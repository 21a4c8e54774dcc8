"""Cache layout, experiment records, and the command-line surface."""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from dilates import cache as cache_mod
from dilates.cli import main
from dilates.verify import SuiteSummary


def run_cli(tmp_path, *argv):
    os.makedirs(tmp_path, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------- cache

def test_canonical_json_is_stable():
    a = cache_mod.canonical_json({"b": 1, "a": [2, 3]})
    b = cache_mod.canonical_json({"a": [2, 3], "b": 1})
    assert a == b == b'{"a":[2,3],"b":1}\n'
    assert cache_mod.digest_of({"x": 1}) == cache_mod.digest_of({"x": 1})


def test_store_and_load_outputs(tmp_path):
    payload = {"answer": 42, "ratio": "4/9"}
    path = cache_mod.store_experiment(tmp_path, "search", "ab" * 32, payload)
    assert path.read_bytes() == cache_mod.canonical_json(payload)
    assert cache_mod.load_outputs(tmp_path, "search", "ab" * 32) == payload
    assert cache_mod.load_outputs(tmp_path, "search", "cd" * 32) is None
    meta = json.loads((tmp_path / "search" / ("ab" * 32 + ".meta.json")).read_text())
    assert meta["kind"] == "search" and "created_at" in meta
    assert set(meta) == {"kind", "inputs_digest", "created_at", "tool_version",
                         "git_describe"}
    # byte-identical outputs on rerun even though metadata may differ
    again = cache_mod.store_experiment(tmp_path, "search", "ab" * 32, payload)
    assert again.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError):
        cache_mod.store_experiment(tmp_path, "bogus", "x", {})


def test_atomic_write_concurrent_writers(tmp_path):
    target = tmp_path / "search" / ("ab" * 32 + ".json")
    payloads = [cache_mod.canonical_json({"writer": i}) for i in range(8)]
    barrier = threading.Barrier(len(payloads))
    errors = []

    def writer(data):
        barrier.wait()
        try:
            for _ in range(50):
                cache_mod.atomic_write(target, data)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(d,)) for d in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_bytes() in payloads
    assert [p.name for p in target.parent.iterdir()] == [target.name]  # no temp left
    plain = tmp_path / "plain.json"
    plain.write_bytes(b"{}")
    assert target.stat().st_mode == plain.stat().st_mode


def test_list_outputs_sorted(tmp_path):
    cache_mod.store_experiment(tmp_path, "search", "ff" * 32, {"v": 2})
    cache_mod.store_experiment(tmp_path, "search", "aa" * 32, {"v": 1})
    listed = cache_mod.list_outputs(tmp_path, "search")
    assert [d for d, _ in listed] == ["aa" * 32, "ff" * 32]
    assert cache_mod.list_outputs(tmp_path, "gap") == []


def test_cache_dir_env_override(monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, "/tmp/somewhere-else")
    assert cache_mod.default_cache_dir() == Path("/tmp/somewhere-else")
    monkeypatch.delenv(cache_mod.ENV_CACHE_DIR)
    assert cache_mod.default_cache_dir() == Path("dilates_cache")


# ---------------------------------------------------------------- CLI

def test_cli_construct_box_chain(tmp_path):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "2", "--lambda", "9", "--gamma", "1/9",
                   "--p", "10007", "--out", "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "chain_report.json").read_text())
    assert report["grid_projection_measure"] == "4/9"
    assert report["discrete_within_continuous"] is True
    first = (tmp_path / "out" / "chain_report.json").read_bytes()
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "2", "--lambda", "9", "--gamma", "1/9",
                   "--p", "10007", "--out", "out") == 0
    assert (tmp_path / "out" / "chain_report.json").read_bytes() == first


def test_cli_construct_box_empty_warns_exit_zero(tmp_path, capsys):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "1", "--lambda", "16", "--gamma", "1/81", "--out", "out")
    assert code == 0
    assert "empty" in capsys.readouterr().out


def test_cli_construct_simplex(tmp_path):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "6", "--out", "out")
    assert code == 0
    data = json.loads((tmp_path / "out" / "simplex.json").read_text())
    assert data["region_volume"] == "29/360"
    assert data["sum_region_volume"] == "119/120"


def test_cli_verify_ok_and_usage_error(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--p", "101", "--cases", "300", "--seed", "1") == 0
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--p", "100", "--cases", "10") == 2


def test_cli_verify_math_failure_exit_code(tmp_path, monkeypatch):
    # wiring test: a suite reporting violations must exit 3
    import dilates.cli as cli_module

    def broken(args, cases, seed):
        return SuiteSummary("cd", cases, 1)

    monkeypatch.setitem(cli_module.SUITES, "cd", broken)
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--cases", "5") == 3


def test_cli_search_and_cache_hit(tmp_path, capsys):
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "2", "--mode", "exact") == 0
    first = capsys.readouterr().out
    assert '"min_size": 4' in first
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "2", "--mode", "exact") == 0
    assert json.loads(capsys.readouterr().out) == json.loads(first)


def test_cli_search_scale_cap_exit(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "1009",
                   "--lambda", "2", "--m", "200", "--mode", "exact") == 4


def test_cli_sweep_and_report(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", "5,7",
                   "--lambda", "2", "--m-range", "1..2", "--out", "sw") == 0
    csv_text = (tmp_path / "sw" / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "p,lambda,m,alpha,min_size,min_over_p,exact,witness"
    assert len(csv_text.splitlines()) == 5
    assert run_cli(tmp_path, "--cache-dir", "cache", "report", "--out", "plots") == 0
    results = (tmp_path / "plots" / "results.csv").read_text()
    assert results == csv_text  # same cells, same renderer
    dat = (tmp_path / "plots" / "min_density_lambda2.dat").read_text()
    assert dat.splitlines()[0] == "# alpha min_over_p"
    env = (tmp_path / "plots" / "envelope_lambda2.dat").read_text()
    assert env.splitlines()[0] == "# alpha envelope_min_over_p"
    assert len(env.splitlines()) == 5


def test_cli_sweep_recomputes_truncated_entry(tmp_path, capsys):
    argv = ("--cache-dir", "cache", "sweep", "--p", "5,7", "--lambda", "2",
            "--m-range", "1..2", "--out", "sw")
    assert run_cli(tmp_path, *argv) == 0
    csv_bytes = (tmp_path / "sw" / "sweep.csv").read_bytes()
    entries = sorted(p for p in (tmp_path / "cache" / "search").glob("*.json")
                     if not p.name.endswith(".meta.json"))
    victim = entries[0]
    good = victim.read_bytes()
    victim.write_bytes(good[:len(good) // 2])
    assert [d for d, _ in cache_mod.list_outputs(tmp_path / "cache", "search")] == \
        [p.stem for p in entries[1:]]
    capsys.readouterr()
    assert run_cli(tmp_path, *argv) == 0
    out, err = capsys.readouterr()
    assert "(1 computed, 3 cached)" in out
    assert err.count("undecodable") == 1 and victim.name in err
    assert (tmp_path / "sw" / "sweep.csv").read_bytes() == csv_bytes
    assert victim.read_bytes() == good  # rewritten


def test_cli_io_error_exit_code(tmp_path, capsys):
    # an output path that cannot be created is an I/O error (5), not a usage
    # error (2); the cells computed before the failed write stay cached
    (tmp_path / "taken").write_text("a file, not a directory")
    argv = ("--cache-dir", "cache", "sweep", "--p", "5", "--lambda", "2",
            "--m-range", "1..2")
    assert run_cli(tmp_path, *argv, "--out", "taken") == 5
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert len(cache_mod.list_outputs(tmp_path / "cache", "search")) == 2
    assert run_cli(tmp_path, *argv, "--out", "sw") == 0
    assert "(0 computed, 2 cached)" in capsys.readouterr().out


def test_cli_report_empty_cache(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "empty-cache", "report",
                   "--out", "plots") == 0
    assert (tmp_path / "plots" / "results.csv").read_text() == \
        "p,lambda,m,alpha,min_size,min_over_p,exact,witness\n"


def test_cli_gap_commands(tmp_path, capsys):
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "find",
                   "--set", "p=11;{0,2,4,6}", "--d-max", "2") == 0
    assert json.loads(capsys.readouterr().out)["gap"] == "p=11;a=0;v=[2];k=[4]"
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "expand",
                   "--gap", "p=11;a=0;v=[2];k=[3]") == 0
    assert json.loads(capsys.readouterr().out)["elements"] == "p=11;{0,2,4}"
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "span",
                   "--gap", "p=13;a=0;v=[1];k=[4]", "--lambda", "3",
                   "--exponent", "1") == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_cli_usage_error_on_bad_literal(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "find",
                   "--set", "nonsense", "--d-max", "2") == 2
