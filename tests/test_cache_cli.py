"""Cache layout, experiment records, and the command-line surface."""

import json
import os
import sys
import threading
import time
from hashlib import sha256
from pathlib import Path

import pytest

from dilates import cache as cache_mod
from dilates.cli import main
from dilates.search import SearchTask, decode_entry
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
    # a key hashes the compact JSON without the newline
    assert cache_mod.key({"b": 1, "a": [2, 3]}) == sha256(b'{"a":[2,3],"b":1}').hexdigest()


def test_store_and_load_outputs(tmp_path):
    payload = {"answer": 42, "ratio": "4/9"}
    path = cache_mod.store_experiment(tmp_path, "search", "ab" * 32, payload)
    assert path.read_bytes() == cache_mod.canonical_json(payload)
    assert cache_mod.load_outputs(tmp_path, "search", "ab" * 32, dict) == payload
    assert cache_mod.load_outputs(tmp_path, "search", "cd" * 32, dict) is None
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
    listed = cache_mod.list_outputs(tmp_path, "search", dict)
    assert [d for d, _ in listed] == ["aa" * 32, "ff" * 32]
    assert cache_mod.list_outputs(tmp_path, "gap", dict) == []


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


def test_cli_construct_box_tiny_gamma_warns_exit_zero(tmp_path, capsys):
    # 10**320 is past the float range; the side is found in integers
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "2", "--lambda", "9", "--gamma", f"1/{10**320}", "--out", "out")
    assert code == 0
    assert "empty" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [("--gamma", "1/0"), ("--sides", "1/3,1/0")])
def test_cli_construct_zero_denominator_exit_2(tmp_path, capsys, flag):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "2", "--lambda", "9", *flag, "--out", "out")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_construct_composite_modulus_exit_2(tmp_path):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--d", "1", "--lambda", "9", "--gamma", "1/3",
                   "--p", "9", "--out", "out")
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_cli_construct_simplex(tmp_path):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "6", "--out", "out")
    assert code == 0
    data = json.loads((tmp_path / "out" / "simplex.json").read_text())
    assert data["region_volume"] == "29/360"
    assert data["sum_region_volume"] == "119/120"


def test_cli_construct_simplex_mask_cap_exit_4(tmp_path, capsys):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "6", "--lambda", "21", "--out", "out")
    assert code == 4
    assert "exceeds mask cap" in capsys.readouterr().err


def test_cli_construct_simplex_p_without_lambda_exit_2(tmp_path, capsys):
    # --p discretizes the grid set, which only --lambda builds
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "5", "--p", "11", "--out", "out")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv, message", [
    (("construct", "box", "--d", "2", "--lambda", "0", "--gamma", "1/3"), "resolution"),
    (("construct", "box", "--d", "3", "--lambda", "0", "--gamma", "1/3", "--optimized"),
     "resolution"),
    (("construct", "box", "--d", "2", "--lambda", "9", "--gamma", "1/9", "--p", "0"),
     "must be prime"),
    (("construct", "simplex", "--n", "5", "--lambda", "0"), "resolution"),
    (("verify", "ruzsa", "--modulus", "-5", "--cases", "3"), "modulus must be positive"),
])
def test_cli_zero_and_negative_values_exit_2(tmp_path, capsys, argv, message):
    # 0 is a value, not "absent": no traceback, no silently skipped step
    out = ("--out", "out") if argv[0] == "construct" else ()
    assert run_cli(tmp_path, "--cache-dir", "cache", *argv, *out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def test_cli_verify_ok_and_usage_error(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--p", "101", "--cases", "300", "--seed", "1") == 0
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--p", "100", "--cases", "10") == 2


def test_cli_verify_rejects_non_positive_cases(tmp_path, capsys):
    for cases in ("0", "-5"):
        assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                       "--cases", cases) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cache").exists()


def test_cli_verify_dilate_chain_rejects_small_lambda_and_length(tmp_path, capsys):
    # lambda = 1 used to divide by zero while sizing the modulus
    for flags in (("--lambda", "1"), ("--lambda", "-2"), ("--l", "-1")):
        assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "dilate-chain",
                       "--cases", "3", *flags) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_dilate_chain_modulus_cap_exit_4(tmp_path, capsys):
    # --l 12 would need a 3.6 GiB bitvector; it and a length whose power
    # alone is out of reach are refused before any set is built
    for length in ("12", "1000000000"):
        assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "dilate-chain",
                       "--cases", "1", "--l", length) == 4
        assert capsys.readouterr().err.startswith("scale cap exceeded: ")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("suite", ["cd", "ruzsa", "kfold-cd", "affine"])
def test_cli_verify_suites_at_small_primes(tmp_path, capsys, suite, p):
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", suite,
                   "--p", str(p), "--cases", "40") == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_verify_math_failure_exit_code(tmp_path, monkeypatch):
    # wiring test: a suite reporting violations must exit 3
    import dilates.verify as verify_module

    def broken(p, cases, seed):
        return SuiteSummary("cd", cases, 1)

    monkeypatch.setattr(verify_module, "run_cd_suite", broken)
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--cases", "5") == 3


def _entries(cache_dir, kind):
    return sorted(p for p in (cache_dir / kind).glob("*.json")
                  if not p.name.endswith(".meta.json"))


def test_cli_records_keyed_by_resolved_inputs(tmp_path, capsys):
    # plunnecke reads no --p: one entry
    for p in ("7", "11"):
        assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "plunnecke",
                       "--p", p, "--cases", "5") == 0
    assert len(_entries(tmp_path / "cache", "verify")) == 1
    # the box is discretized at each prime: one entry per prime
    for p in ("10007", "10009"):
        assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "2",
                       "--lambda", "9", "--gamma", "1/9", "--p", p, "--out", "out") == 0
    reports = [json.loads(e.read_text())["chain_report"]["p"]
               for e in _entries(tmp_path / "cache", "construct")]
    assert sorted(reports) == [10007, 10009]
    # one list of m, written two ways: one entry
    for m_range in ("2..3", "2,3"):
        assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", "5",
                       "--lambda", "2", "--m-range", m_range, "--out", "sw") == 0
    assert len(_entries(tmp_path / "cache", "sweep")) == 1


def test_cli_search_and_cache_hit(tmp_path, capsysbinary):
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "2", "--mode", "exact") == 0
    first = capsysbinary.readouterr().out
    assert b'"min_size": 4' in first
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "2", "--mode", "exact") == 0
    assert capsysbinary.readouterr().out == first


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
    victim = tmp_path / "cache" / "search" / f"{SearchTask(p=7, lam=2, m=2).digest()}.json"
    good = victim.read_bytes()
    bad_witness = {**json.loads(good), "witness": "garbage"}
    no_classes = {k: v for k, v in json.loads(good).items() if k != "classes_enumerated"}
    edited_key = {**json.loads(good), "task_digest": "0" * 64}
    search_argv = ("--cache-dir", "cache", "search", "--p", "7", "--lambda", "2", "--m", "2")
    # a truncated file, then JSON of a shape the search result does not have;
    # report and search share one decoder, so both reject every one of them
    for damaged in (good[:len(good) // 2], b"{}", b"[1,2]", b'{"min_size": 5}',
                    cache_mod.canonical_json(bad_witness),
                    cache_mod.canonical_json(no_classes),
                    cache_mod.canonical_json(edited_key)):
        victim.write_bytes(damaged)
        assert [d for d, _ in cache_mod.list_outputs(tmp_path / "cache", "search",
                                                     decode_entry)] == \
            [p.stem for p in entries if p != victim]
        capsys.readouterr()
        assert run_cli(tmp_path, *argv) == 0
        out, err = capsys.readouterr()
        assert "(1 computed, 3 cached)" in out
        assert err.count("undecodable") == 1 and victim.name in err
        assert (tmp_path / "sw" / "sweep.csv").read_bytes() == csv_bytes
        assert victim.read_bytes() == good  # rewritten
        # report skips the entry; search recomputes and rewrites it
        victim.write_bytes(damaged)
        assert run_cli(tmp_path, "--cache-dir", "cache", "report", "--out", "plots") == 0
        out, err = capsys.readouterr()
        assert "rendered 3 cached results" in out and err.count("undecodable") == 1
        assert run_cli(tmp_path, *search_argv) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == json.loads(good) and err.count("undecodable") == 1
        assert victim.read_bytes() == good


def test_cli_entry_under_another_key_is_skipped(tmp_path, capsys):
    # a valid entry renamed to another task's key: report skips it, and
    # search for that task misses, recomputes and overwrites it
    argv = ("--cache-dir", "cache", "sweep", "--p", "5,7", "--lambda", "2",
            "--m-range", "1..2", "--out", "sw")
    assert run_cli(tmp_path, *argv) == 0
    root = tmp_path / "cache" / "search"
    other = SearchTask(p=7, lam=2, m=3)
    moved = root / f"{other.digest()}.json"
    (root / f"{SearchTask(p=7, lam=2, m=2).digest()}.json").rename(moved)
    capsys.readouterr()
    assert run_cli(tmp_path, "--cache-dir", "cache", "report", "--out", "plots") == 0
    out, err = capsys.readouterr()
    assert "rendered 3 cached results" in out
    assert err.count("another task's key") == 1 and other.digest() in err
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "3") == 0
    assert json.loads(capsys.readouterr().out)["task"]["m"] == 3
    assert decode_entry(json.loads(moved.read_text()))[0] == other
    assert run_cli(tmp_path, *argv) == 0
    assert "(1 computed, 3 cached)" in capsys.readouterr().out


def test_cli_io_error_exit_code(tmp_path, capsys):
    # an output path that cannot be created is an I/O error (5), not a usage
    # error (2); the cells computed before the failed write stay cached
    (tmp_path / "taken").write_text("a file, not a directory")
    argv = ("--cache-dir", "cache", "sweep", "--p", "5", "--lambda", "2",
            "--m-range", "1..2")
    assert run_cli(tmp_path, *argv, "--out", "taken") == 5
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert len(cache_mod.list_outputs(tmp_path / "cache", "search", dict)) == 2
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


def test_cli_gap_span_refuses_huge_exponent_at_once(tmp_path):
    start = time.perf_counter()
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "span",
                   "--gap", "p=13;a=0;v=[1];k=[4]", "--lambda", "3",
                   "--exponent", str(10**9)) == 4
    assert time.perf_counter() - start < 1.0


def test_cli_usage_error_on_bad_literal(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "find",
                   "--set", "nonsense", "--d-max", "2") == 2
