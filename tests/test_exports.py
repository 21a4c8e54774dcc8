"""Every name a module lists in __all__ exists, so a deleted helper
cannot linger in an export list; importing the package stays light; every
library name the benchmark's tracer patches still exists, and the
benchmark's tiny pipeline ops pass the benchmark's own checks."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dilates

MODULES = sorted(m.name for m in pkgutil.iter_modules(dilates.__path__, "dilates."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_modules_found():
    assert {"dilates.search", "dilates.checks", "dilates.cli"} <= set(MODULES)


def test_import_loads_no_cache_or_cli_code():
    # the cache module pulls in subprocess; search reaches it lazily, so
    # `import dilates` pays for neither
    env = {**os.environ, "PYTHONPATH": str(Path(dilates.__file__).parents[1])}
    code = ("import sys, dilates; print(' '.join(m for m in "
            "('dilates.cache', 'dilates.cli', 'subprocess') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _load_bench_module(monkeypatch, name):
    # registered while the test runs, so its dataclasses resolve their module
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_traced_names_resolve(monkeypatch):
    # bench/tracing.py patches these names by attribute ("Class.method"
    # through the class __dict__); a renamed one breaks `bench/run.py --trace 1`
    tracing = _load_bench_module(monkeypatch, "tracing")
    missing = []
    for mod_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"dilates.{mod_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            where = vars(getattr(module, owner)) if owner else vars(module)
            if attr not in where:
                missing.append(f"{mod_name}.{name}")
    assert missing == []
    assert set(tracing.OBSERVERS) <= set(tracing.SPAN_NAMES)
    # the interval-pair observer imports this one itself
    assert hasattr(importlib.import_module("dilates.intervals"), "scale_intervals")


def test_bench_tiny_pipeline_ops_pass_their_checks(monkeypatch, tmp_path):
    # the benchmark checks every op (both non-naive kernels agree, the chain
    # holds, the CLI report matches); run them here first
    workloads = _load_bench_module(monkeypatch, "workloads")
    workload = workloads.build("pipeline", 0, tiny=True)
    outs = {}
    for op in [*workload.ops, workload.warm]:
        outs[op.key_text] = op.run(tmp_path)
        op.check(outs[op.key_text], outs)
