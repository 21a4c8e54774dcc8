"""Every name a module lists in __all__ exists, so a deleted helper
cannot linger in an export list, and is read by the package, the demos
or the benchmark, as is every public member of a class it lists, and
every module-level private name is used somewhere
in the package, so a helper cannot outlive its last caller, and every
imported name is read in its module; importing the
package stays light; only the one set-bit scanner writes binary
digits; every library name the
benchmark's tracer patches still exists, and the benchmark's tiny
pipeline ops pass the benchmark's own checks.  Public entry points
refuse out-of-range input and malformed literals with ValueError, and a
non-integer where an integer belongs with TypeError; no string in the
package but residues._integer's spells a lower-bound refusal."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dilates
from dilates.checks import check_dilate_chain, check_kfold_cd_chain, check_plunnecke
from dilates.gaps import Gap, find_max_proper_gap, lambda_span_check, truncate_to_large_steps
from dilates.grids import (GridSet, box_grid_set, digit_sum_count, equal_box_sides,
                           grid_projection_sumset, irwin_hall_volume, optimized_box_sides_3d,
                           simplex_construction, simplex_grid_set)
from dilates.intervals import (TorusIntervalSet, discretize_to_zp, interval_dilate_sum,
                               scale_intervals)
from dilates.residues import (ResidueSet, affine_image, dilate, dilate_sum, is_prime,
                              iterated_sumset, linear_form)
from dilates.search import (SearchTask, exact_min_dilate_sumset, heuristic_min_dilate_sumset,
                            sweep)
from dilates.verify import (run_affine_suite, run_cd_suite, run_dilate_chain_suite,
                            run_kfold_suite, run_plunnecke_suite, run_ruzsa_suite)

MODULES = sorted(m.name for m in pkgutil.iter_modules(dilates.__path__, "dilates."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_modules_found():
    assert {"dilates.search", "dilates.checks", "dilates.cli"} <= set(MODULES)


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private functions, classes and constants a module defines at its
    top level, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used():
    # a read, an attribute or an import anywhere in the package counts as
    # a use; the definition itself and a plain rebinding do not
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(dilates.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == []


# public on purpose with no reader, as its docstring says
UNREAD_PUBLIC_NAMES = {"is_canonical"}


def test_every_public_name_is_read():
    # the public twin of test_every_private_name_is_used: a read or an
    # attribute in src/, demos/ or bench/ counts; an import, a re-export
    # and the name's own __all__ entry do not, and tests are no callers.
    # A public class's members count too: each def in its body not named
    # with a leading underscore (a method, classmethod or property) must be
    # read as an attribute, matched by name
    root = Path(__file__).parents[1]
    names, attributes = set(), set()
    for path in sorted(p for d in ("src", "demos", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unread = []
    for module in MODULES:
        exported = getattr(importlib.import_module(module), "__all__", ())
        unread += [f"{module}.{name}" for name in exported
                   if name not in names | attributes | UNREAD_PUBLIC_NAMES]
        tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text())
        unread += [f"{module}.{cls.name}.{node.name}" for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name in exported
                   for node in cls.body if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_") and node.name not in attributes]
    assert unread == []


def test_every_import_is_read():
    # a name a module imports, at its top or inside a function, is read
    # somewhere in that module; __future__ features, the re-exports of
    # __init__.py and the names a module lists in __all__ are exempt
    unused = []
    for path in sorted(Path(dilates.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert unused == []


# an integer argument's lower bound is refused by residues._integer alone;
# these conditions join two values, or bound a set's own dimension, so no
# single argument's bound states them ("{}" stands for a formatted value)
JOINT_CONDITIONS = {
    "need m + n >= 1, got m={}, n={}",  # checks.check_plunnecke
    "projection needs dimension >= 2",  # grids.grid_projection_sumset, intervals.pipeline_check
}
_BOUND_REFUSAL = re.compile(r" must be >= | must be positive|\bneeds? .*>= ")


def test_integer_bounds_are_refused_by_one_rule():
    found = []
    for path in sorted(Path(dilates.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(part) for node in ast.walk(tree) for part in ast.walk(node)
                if part is not node and (isinstance(node, ast.JoinedStr) or (
                    isinstance(node, ast.FunctionDef) and node.name == "_integer"))}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if _BOUND_REFUSAL.search(text) and text not in JOINT_CONDITIONS:
                found.append(f"{path.name}:{node.lineno}: {text!r}")
    assert found == []


# the one set-bit scanner: _positions writes a bitvector's binary digits,
# which its lazy helper _find_ones reads
SCANNER = {"residues.py:_positions", "residues.py:_find_ones"}


def test_only_the_scanner_calls_bin():
    # a kernel that wants members or runs reads them from _positions,
    # instead of writing and scanning the digits itself
    found = []
    for path in sorted(Path(dilates.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # the innermost def around each node: outer defs are walked first
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner.update((id(part), node.name) for part in ast.walk(node))
        found += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "bin"]
    assert found and set(found) <= SCANNER, found


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


GAP = Gap(7, 0, (1,), (3,))
SMALL = ResidueSet.from_elements(101, [0, 1, 3])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Gap(7, 7, (1,), (2,)), "base out of range", id="gap-base"),
    pytest.param(lambda: Gap(7, 0, (7,), (2,)), "generator 7 out of range", id="gap-generator"),
    pytest.param(lambda: Gap(7, 0, (1,), (0,)), "^every entry of lengths must be >= 1, got 0$",
                 id="gap-length"),
    pytest.param(lambda: Gap.parse("p=7;a=0;v=[1;k=[2]"), "bad list", id="gap-parse-list"),
    pytest.param(lambda: Gap.parse("p=7;a=0;v=[1];k=2]"), "bad list", id="gap-parse-open"),
    pytest.param(lambda: Gap.parse("p=7;a=0;v=[1]"), "bad gap literal", id="gap-parse-missing"),
    pytest.param(lambda: Gap.parse("p=7;b=0;v=[1];k=[2]"), "bad gap literal", id="gap-parse-key"),
    pytest.param(lambda: Gap.parse("p=7;a=0;v=[1];k=[2];x=1"), "bad gap literal",
                 id="gap-parse-extra"),
    pytest.param(lambda: truncate_to_large_steps(GAP, 1), "^lam must be >= 2, got 1$",
                 id="truncate-lam"),
    pytest.param(lambda: lambda_span_check(GAP, 1, 1), "^lam must be >= 2, got 1$",
                 id="span-lam"),
    pytest.param(lambda: lambda_span_check(GAP, 2, -1), "^exponent must be >= 0, got -1$",
                 id="span-exponent"),
    pytest.param(lambda: find_max_proper_gap(ResidueSet.from_elements(7, [1, 2]), 0),
                 "^d_max must be >= 1, got 0$", id="finder-d-max"),
    pytest.param(lambda: GridSet(0, 3, ()), "^dim must be >= 1, got 0$", id="grid-dim"),
    pytest.param(lambda: GridSet(2, 1, ()), "^lam must be >= 2, got 1$", id="grid-lam"),
    pytest.param(lambda: box_grid_set(0, 9, []), "^d must be >= 1, got 0$", id="box-dim"),
    pytest.param(lambda: box_grid_set(0, 9, ["1/2"]), "^d must be >= 1, got 0$",
                 id="box-dim-before-sides"),
    pytest.param(lambda: equal_box_sides(0, "1/9", 9), "^d must be >= 1, got 0$",
                 id="box-sides-dim"),
    pytest.param(lambda: GridSet.parse("n=2;lambda=3"), "bad grid literal", id="grid-parse"),
    pytest.param(lambda: GridSet.parse("n=2;lambda=3;cells=(0,0)"), "bad grid cell list",
                 id="grid-parse-cells"),
    pytest.param(lambda: GridSet.parse("n=2;lam=3;cells=[(0,0)]"), "bad grid literal",
                 id="grid-parse-key"),
    pytest.param(lambda: GridSet.parse("n=2;lambda=3;cells=[(0,0)"), "bad grid cell list",
                 id="grid-parse-unclosed"),
    pytest.param(lambda: GridSet.parse("n=2;lambda=3;cells=[(0,0),(1,2]"), "bad grid cell list",
                 id="grid-parse-unclosed-cell"),
    pytest.param(lambda: grid_projection_sumset(GridSet(1, 3, [0])), "dimension >= 2",
                 id="project-dim"),
    pytest.param(lambda: scale_intervals(TorusIntervalSet.empty(9), 0),
                 "^lam must be >= 1, got 0$", id="scale-lam"),
    pytest.param(lambda: TorusIntervalSet.parse("D=9;[1,2]"), "bad interval chunk",
                 id="intervals-parse-chunk"),
    pytest.param(lambda: TorusIntervalSet.parse("[1,2)"), "bad interval literal",
                 id="intervals-parse-missing"),
    pytest.param(lambda: TorusIntervalSet.parse("d=9;[1,2)"), "bad interval literal",
                 id="intervals-parse-key"),
    pytest.param(lambda: TorusIntervalSet.parse("D=9;[1,2"), "bad interval chunk",
                 id="intervals-parse-unclosed"),
    pytest.param(lambda: ResidueSet.parse("p=7"), "bad set literal", id="set-parse-missing"),
    pytest.param(lambda: ResidueSet.parse("q=7;{1}"), "bad set literal", id="set-parse-key"),
    pytest.param(lambda: ResidueSet.parse("p=7;{1,2"), "bad set literal",
                 id="set-parse-unclosed"),
    pytest.param(lambda: SearchTask(7, 2, 3, budget=-1), "^budget must be >= 0, got -1$",
                 id="task-budget"),
    pytest.param(lambda: exact_min_dilate_sumset(SearchTask(7, 2, 3, mode="heuristic")),
                 "must be 'exact'", id="exact-mode"),
    pytest.param(lambda: heuristic_min_dilate_sumset(SearchTask(7, 2, 3)),
                 "must be 'heuristic'", id="heuristic-mode"),
    pytest.param(lambda: check_kfold_cd_chain(ResidueSet.from_elements(7, [1]), 1, 2),
                 "^k must be >= 2, got 1$", id="kfold-k"),
    pytest.param(lambda: check_plunnecke(SMALL, SMALL, -1, 2), "^m must be >= 0, got -1$",
                 id="plunnecke-m"),
    pytest.param(lambda: check_plunnecke(SMALL, SMALL, 0, 0),
                 "^need m \\+ n >= 1, got m=0, n=0$", id="plunnecke-m-plus-n"),
    pytest.param(lambda: check_dilate_chain(SMALL, 2, 0), "^l must be >= 1, got 0$",
                 id="dilate-chain-l"),
    pytest.param(lambda: iterated_sumset(SMALL, 0), "^m must be >= 1, got 0$",
                 id="iterated-sumset-m"),
    pytest.param(lambda: linear_form(SMALL, {1: 2, 3: -1}),
                 "^multiplicity must be >= 0, got -1$", id="linear-form-multiplicity"),
    pytest.param(lambda: run_cd_suite(11, 0), "^cases must be >= 1, got 0$", id="cd-cases"),
    pytest.param(lambda: run_cd_suite(11, -3), "^cases must be >= 1, got -3$",
                 id="cd-cases-negative"),
    pytest.param(lambda: run_affine_suite(11, 2, orbit_samples=-1),
                 "^orbit_samples must be >= 0, got -1$", id="affine-orbit-samples"),
    pytest.param(lambda: is_prime(2**64 + 1), "limited to n < 2", id="is-prime-range"),
])
def test_out_of_range_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# each builds a value from x and reads back the field x went into
INTEGER_FIELDS = [
    pytest.param(lambda x: ResidueSet(x, 5).modulus, id="residue-set"),
    pytest.param(lambda x: ResidueSet.from_elements(x, [3]).modulus, id="residue-set-elements"),
    pytest.param(lambda x: ResidueSet.full(x).modulus, id="residue-set-full"),
    pytest.param(lambda x: GridSet(x, 3, ()).dim, id="grid-dim"),
    pytest.param(lambda x: GridSet(2, x, ()).lam, id="grid-lam"),
    pytest.param(lambda x: TorusIntervalSet(x, ((0, 1),)).denominator, id="intervals"),
    pytest.param(lambda x: TorusIntervalSet(9, ((0, x),)).intervals[0][1], id="intervals-raw"),
    pytest.param(lambda x: Gap(x, 0, (1,), (2,)).modulus, id="gap-modulus"),
    pytest.param(lambda x: Gap(11, x, (1,), (2,)).base, id="gap-base"),
    pytest.param(lambda x: Gap(11, 0, (x,), (2,)).generators[0], id="gap-generators"),
    pytest.param(lambda x: Gap(11, 0, (1,), (x,)).lengths[0], id="gap-lengths"),
    pytest.param(lambda x: SearchTask(x, 2, 3).p, id="task-p"),
    pytest.param(lambda x: SearchTask(11, x, 3).lam, id="task-lam"),
    pytest.param(lambda x: SearchTask(11, 2, x).m, id="task-m"),
    pytest.param(lambda x: SearchTask(11, 2, 3, seed=x).seed, id="task-seed"),
    pytest.param(lambda x: SearchTask(11, 2, 3, budget=x).budget, id="task-budget"),
    pytest.param(lambda x: 7 * is_prime(x), id="is-prime"),
]


@pytest.mark.parametrize("build", INTEGER_FIELDS)
def test_integer_fields_take_numpy_integers_and_refuse_floats(build):
    for x in (7, np.int64(7), np.uint16(7)):
        value = build(x)
        assert value == 7 and type(value) is int
    with pytest.raises(TypeError, match="must be (an integer|integers), got float"):
        build(7.0)


ARCS = TorusIntervalSet(64, ((1, 3), (10, 20)))
SPAN = Gap(11, 0, (1,), (3,))
# each passes x as the integer argument of a function and returns its result
INTEGER_ARGUMENTS = [
    pytest.param(lambda x: scale_intervals(ARCS, x), id="scale-lam"),
    pytest.param(lambda x: interval_dilate_sum(ARCS, x), id="interval-dilate-sum-lam"),
    pytest.param(lambda x: equal_box_sides(2, Fraction(1, 3), 4 * x), id="equal-box-lam"),
    pytest.param(lambda x: optimized_box_sides_3d(Fraction(1, 50), 20 * x), id="box-3d-lam"),
    pytest.param(lambda x: truncate_to_large_steps(Gap(11, 0, (1, 2), (3, 1)), x),
                 id="truncate-lam"),
    pytest.param(lambda x: find_max_proper_gap(ResidueSet.from_elements(11, [0, 1, 5, 6]), x),
                 id="finder-d-max"),
    pytest.param(lambda x: lambda_span_check(SPAN, x, 1), id="span-lam"),
    pytest.param(lambda x: lambda_span_check(SPAN, 2, x), id="span-exponent"),
    pytest.param(lambda x: discretize_to_zp(ARCS, 5 * x + 1), id="discretize-p"),
    pytest.param(lambda x: digit_sum_count(x, 3, 3), id="digit-sum-m"),
    pytest.param(lambda x: digit_sum_count(2, x + 1, 4), id="digit-sum-lam"),
    pytest.param(lambda x: digit_sum_count(2, 3, 2 * x), id="digit-sum-t"),
    pytest.param(lambda x: irwin_hall_volume(x, 1), id="irwin-hall-m"),
    pytest.param(lambda x: simplex_construction(2 * x + 1), id="simplex-construction-n"),
    pytest.param(lambda x: simplex_grid_set(2 * x, 8), id="simplex-grid-n"),
    pytest.param(lambda x: simplex_grid_set(4, 4 * x), id="simplex-grid-lam"),
    pytest.param(lambda x: run_ruzsa_suite(50 * x, 2), id="ruzsa-modulus"),
    pytest.param(lambda x: run_plunnecke_suite(2, max_element=x + 1), id="plunnecke-max-element"),
    pytest.param(lambda x: run_dilate_chain_suite(2, max_element=x + 1),
                 id="dilate-chain-max-element"),
    pytest.param(lambda x: run_cd_suite(11, x), id="cd-cases"),
    pytest.param(lambda x: run_ruzsa_suite(50, x), id="ruzsa-cases"),
    pytest.param(lambda x: run_plunnecke_suite(x, max_element=3), id="plunnecke-cases"),
    pytest.param(lambda x: run_dilate_chain_suite(x, max_element=3), id="dilate-chain-cases"),
    pytest.param(lambda x: run_dilate_chain_suite(2, max_element=3, lambdas=(2, x + 1)),
                 id="dilate-chain-lambdas"),
    pytest.param(lambda x: run_dilate_chain_suite(2, max_element=3, chain_lengths=(x,)),
                 id="dilate-chain-chain-lengths"),
    pytest.param(lambda x: run_kfold_suite(11, x), id="kfold-cases"),
    pytest.param(lambda x: run_affine_suite(11, x, orbit_samples=2), id="affine-cases"),
    pytest.param(lambda x: run_affine_suite(11, 2, orbit_samples=x),
                 id="affine-orbit-samples"),
    pytest.param(lambda x: dilate(SMALL, x), id="dilate-lam"),
    pytest.param(lambda x: dilate_sum(SMALL, x), id="dilate-sum-lam"),
    pytest.param(lambda x: affine_image(SMALL, x, 1), id="affine-image-u"),
    pytest.param(lambda x: affine_image(SMALL, 1, x), id="affine-image-v"),
    pytest.param(lambda x: iterated_sumset(SMALL, x), id="iterated-sumset-m"),
    pytest.param(lambda x: linear_form(SMALL, {1: x, 3: 1}), id="linear-form-multiplicity"),
    pytest.param(lambda x: linear_form(SMALL, {1: 2, x: 1}), id="linear-form-coefficient"),
    pytest.param(lambda x: check_plunnecke(SMALL, SMALL, x, 1), id="plunnecke-m"),
    pytest.param(lambda x: check_plunnecke(SMALL, SMALL, 1, x), id="plunnecke-n"),
    pytest.param(lambda x: check_dilate_chain(SMALL, x, 2), id="dilate-chain-lam"),
    pytest.param(lambda x: check_dilate_chain(SMALL, 2, x), id="dilate-chain-l"),
    pytest.param(lambda x: check_kfold_cd_chain(SMALL, x, 3), id="kfold-cd-k"),
    pytest.param(lambda x: check_kfold_cd_chain(SMALL, 3, x), id="kfold-cd-lam"),
]


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
def test_integer_arguments_take_numpy_integers_and_refuse_floats(call):
    expected = call(2)
    for x in (np.int64(2), np.uint16(2)):
        assert call(x) == expected
    with pytest.raises(TypeError, match="must be an integer, got float"):
        call(2.0)


def test_numpy_task_shares_the_plain_tasks_key(tmp_path):
    assert SearchTask(np.int64(7), 2, 3).digest() == SearchTask(7, 2, 3).digest()
    # a sweep over numpy integers writes the entry a sweep over ints writes
    entries = []
    for p, lam, m in (([7], [2], [3]), ([np.int64(7)], [np.int32(2)], np.arange(3, 4))):
        cache_dir = tmp_path / str(len(entries))
        report = sweep(p, lam, m, cache_dir=cache_dir)
        assert report.errors == [] and report.computed == 1
        [entry] = [f for f in (cache_dir / "search").iterdir()
                   if not f.name.endswith(".meta.json")]
        entries.append((entry.name, entry.read_bytes()))
    assert entries[0] == entries[1]
