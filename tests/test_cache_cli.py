"""Cache layout, experiment records, and the command-line surface."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from dilates import cache as cache_mod
from dilates import search
from dilates.cli import main
from dilates.grids import box_grid_set, optimized_box_sides_3d
from dilates.residues import ResidueSet, affine_image, canonical_form
from dilates.search import SearchTask, decode_entry
from test_grids import _reference_format


def run_cli(tmp_path, *argv):
    os.makedirs(tmp_path, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------- cache

def _raw(outputs, key):
    """A decoder that takes every entry as it is, under any key."""
    return outputs


_GMTIME = time.gmtime


def _clock_at(monkeypatch, seconds):
    """Stop the clock that stamps created_at at `seconds` past the epoch."""
    monkeypatch.setattr(time, "gmtime", lambda secs=None: _GMTIME(seconds))


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
    assert cache_mod.load_outputs(tmp_path, "search", "ab" * 32, _raw) == payload
    assert cache_mod.load_outputs(tmp_path, "search", "cd" * 32, _raw) is None
    meta = json.loads((tmp_path / "search" / ("ab" * 32 + ".meta.json")).read_text())
    assert meta["kind"] == "search" and "created_at" in meta
    assert set(meta) == {"kind", "inputs_digest", "created_at", "tool_version",
                         "git_describe"}
    again = cache_mod.store_experiment(tmp_path, "search", "ab" * 32, payload)
    assert again.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError):
        cache_mod.store_experiment(tmp_path, "bogus", "x", {})


def test_store_writes_the_sidecar_only_with_its_entry(tmp_path, monkeypatch):
    # created_at is when the entry was written: a store that leaves the
    # entry as it was writes no sidecar and runs no git describe, unless
    # the sidecar is missing
    digest = "ab" * 32
    entry = tmp_path / "search" / f"{digest}.json"
    sidecar = tmp_path / "search" / f"{digest}.meta.json"
    described = []
    monkeypatch.setattr(cache_mod, "git_describe", lambda: described.append(1) or "v1")

    def store(seconds, payload):
        _clock_at(monkeypatch, seconds)
        cache_mod.store_experiment(tmp_path, "search", digest, payload)
        meta = json.loads(sidecar.read_text())
        return meta["created_at"], sidecar.stat().st_ino, entry.stat().st_ino

    first = store(10**9, {"v": 1})
    assert first[0] == "2001-09-09T01:46:40Z" and len(described) == 1
    assert store(2 * 10**9, {"v": 1}) == first and len(described) == 1
    changed = store(3 * 10**9, {"v": 2})
    assert changed[0] == "2065-01-24T05:20:00Z" and len(described) == 2
    assert changed[1] != first[1] and changed[2] != first[2]
    sidecar.unlink()
    restored = store(4 * 10**9, {"v": 2})
    assert restored[0] == "2096-10-02T07:06:40Z" and restored[2] == changed[2]
    assert json.loads(sidecar.read_text())["git_describe"] == "v1" and len(described) == 3


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


def test_atomic_write_leaves_identical_target_untouched(tmp_path):
    target = tmp_path / "a" / "b" / "entry.json"  # directories made on demand
    data = cache_mod.canonical_json({"v": 1})
    assert cache_mod.atomic_write(target, data) is True
    os.utime(target, ns=(10**9, 10**9))  # an old mtime, so any rewrite shows
    before = target.stat()
    assert cache_mod.atomic_write(target, data) is False
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, 10**9)
    assert target.read_bytes() == data


@pytest.mark.parametrize("old", [b"", b'{"v":1}', b'{"v":2}\n', b'{"v":1}\n\n'])
def test_atomic_write_replaces_differing_target(tmp_path, old):
    # truncated, same size with other bytes, and longer: each is replaced
    target = tmp_path / "entry.json"
    target.write_bytes(old)
    inode = target.stat().st_ino
    cache_mod.atomic_write(target, b'{"v":1}\n')
    assert target.read_bytes() == b'{"v":1}\n'
    assert target.stat().st_ino != inode
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_atomic_write_skips_a_stale_temp_name(tmp_path, monkeypatch):
    # a temp file a crashed writer left under the next name blocks nothing
    # and is not touched
    monkeypatch.setattr(cache_mod, "_tmp_numbers", itertools.count(7))
    target = tmp_path / "entry.json"
    stale = tmp_path / f".entry.json.{os.getpid()}.7.tmp"
    stale.write_bytes(b"left by a crash")
    cache_mod.atomic_write(target, b"new\n")
    assert target.read_bytes() == b"new\n"
    assert stale.read_bytes() == b"left by a crash"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, target.name]


def test_atomic_write_failed_rename_leaves_no_temp(tmp_path):
    target = tmp_path / "entry.json"
    target.mkdir()
    # data as long as the directory's size, so the identity check reads it too
    with pytest.raises(OSError):
        cache_mod.atomic_write(target, b"x" * target.stat().st_size)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert target.is_dir()


def test_atomic_write_mode_follows_the_current_umask(tmp_path):
    # the umask set after import is the one that counts, as for a plain write
    old = os.umask(0o077)
    try:
        cache_mod.atomic_write(tmp_path / "entry.json", b"{}")
        (tmp_path / "plain.json").write_bytes(b"{}")
    finally:
        os.umask(old)
    modes = {(tmp_path / n).stat().st_mode for n in ("entry.json", "plain.json")}
    assert modes == {0o100600}


_RACE_WRITER = """
import sys, time
from pathlib import Path
from dilates.cache import atomic_write
target, go, data = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3].encode()
while not go.exists():
    time.sleep(0.001)
for i in range(200):
    atomic_write(target, data if i % 2 else data + b"!")
atomic_write(target, data)
"""


def test_atomic_write_racing_processes(tmp_path):
    # writers in separate processes, each alternating two payloads so that
    # most writes replace the target rather than find it identical
    target = tmp_path / "cache" / "entry.json"
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(Path(cache_mod.__file__).parents[1])}
    payloads = [f"writer {i}\n" for i in range(3)]
    procs = [subprocess.Popen([sys.executable, "-c", _RACE_WRITER, str(target), str(go), d],
                              env=env) for d in payloads]
    try:
        go.touch()
        codes = [p.wait(timeout=60) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert codes == [0, 0, 0]
    assert target.read_text() in payloads
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_list_outputs_skips_an_entry_deleted_while_listing(tmp_path, capsys):
    for digest in ("aa", "bb", "cc"):
        cache_mod.store_experiment(tmp_path, "search", digest * 32, {"v": digest})
    victim = tmp_path / "search" / ("bb" * 32 + ".json")

    def decode(outputs, key):
        victim.unlink(missing_ok=True)  # gone after the glob, before its read
        return outputs

    listed = cache_mod.list_outputs(tmp_path, "search", decode)
    assert [d for d, _ in listed] == ["aa" * 32, "cc" * 32]
    assert cache_mod.load_outputs(tmp_path, "search", "bb" * 32, decode) is None
    assert capsys.readouterr().err == ""


def test_list_outputs_lists_what_a_json_glob_lists(tmp_path):
    # sidecars, temp files and other names are no entries; dot-prefixed
    # .json names are, as a pathlib glob of "*.json" finds them
    for digest in ("ff" * 32, "aa" * 32):
        cache_mod.store_experiment(tmp_path, "search", digest, {"v": digest})
    root = tmp_path / "search"
    for name in (".x.json", ".json", "b.c.json", "z.JSON", "notes.txt",
                 f".{'aa' * 32}.json.{os.getpid()}.0.tmp", ".meta.json"):
        (root / name).write_bytes(b'{"v":0}\n')
    old = [p.stem for p in sorted(root.glob("*.json")) if not p.name.endswith(".meta.json")]
    assert old == [".json", ".x", "aa" * 32, "b.c", "ff" * 32]
    # each entry is decoded with the key it is filed under
    assert cache_mod.list_outputs(tmp_path, "search", lambda outputs, key: key) == \
        [(d, d) for d in old]
    assert cache_mod.list_outputs(str(tmp_path), "search", _raw) == \
        cache_mod.list_outputs(tmp_path, "search", _raw)
    (tmp_path / "gap").write_bytes(b"a file, not a directory")
    assert cache_mod.list_outputs(tmp_path, "gap", _raw) == []


@pytest.mark.parametrize("as_str", [False, True])
def test_atomic_write_takes_a_str_or_a_path(tmp_path, as_str):
    target = tmp_path / "made" / "entry.json"
    cache_mod.atomic_write(str(target) if as_str else target, b'{"v":1}\n')
    assert target.read_bytes() == b'{"v":1}\n'
    cache_mod.atomic_write(str(target) if as_str else target, b'{"v":22}\n')
    assert target.read_bytes() == b'{"v":22}\n'
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_list_outputs_sorted(tmp_path):
    cache_mod.store_experiment(tmp_path, "search", "ff" * 32, {"v": 2})
    cache_mod.store_experiment(tmp_path, "search", "aa" * 32, {"v": 1})
    listed = cache_mod.list_outputs(tmp_path, "search", _raw)
    assert [d for d, _ in listed] == ["aa" * 32, "ff" * 32]
    assert cache_mod.list_outputs(tmp_path, "gap", _raw) == []


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


@pytest.mark.parametrize("flags, message", [
    (("--d", "2", "--gamma", "1/9", "--optimized"), "unequal-sides 3-d box"),
    (("--d", "2"), "need --gamma or --sides"),
    (("--d", "3", "--optimized"), "need --gamma or --sides"),
    (("--d", "3", "--optimized", "--sides", "1/2,1/2,1/2"),
     "--sides excludes --gamma and --optimized"),
    (("--d", "2", "--gamma", "1/9", "--sides", "1/3,1/3"),
     "--sides excludes --gamma and --optimized"),
])
def test_cli_construct_box_flag_errors_exit_2(tmp_path, capsys, flags, message):
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box",
                   "--lambda", "9", *flags, "--out", "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def test_cli_construct_simplex(tmp_path):
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "6", "--out", "out")
    assert code == 0
    data = json.loads((tmp_path / "out" / "simplex.json").read_text())
    assert data["region_volume"] == "29/360"
    assert data["sum_region_volume"] == "119/120"


def test_cli_construct_simplex_builder_cap_exit_4(tmp_path, capsys):
    # n = 6, lambda = 32 would form an array of 1.2e8 cells
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "6", "--lambda", "32", "--out", "out")
    assert code == 4
    captured = capsys.readouterr()
    assert "exceeds builder cap" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (("simplex", "--n", "6", "--lambda", "16", "--p", "100003"), "pair cap"),
    # primes at and past 2^62 put residues beyond int64
    (("box", "--d", "2", "--lambda", "3", "--gamma", "1/9", "--p", str(2**62 + 135)),
     f"scale cap exceeded: p = {2**62 + 135} is not below 2^62"),
    (("box", "--d", "2", "--lambda", "3", "--gamma", "1/9", "--p", str(2**63 + 29)),
     f"scale cap exceeded: p = {2**63 + 29} is not below 2^62"),
])
def test_cli_construct_scale_caps_refuse_before_writing(tmp_path, capsys, argv, message):
    # the chain runs before the first file: a cap leaves no output, no entry
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", *argv, "--out", "out") == 4
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache" / "construct").exists()


def test_cli_construct_box_past_lambda_n_2_30(tmp_path):
    # lam^n = 1.6e9: the 3 x 3 cells encode on int64 endpoints
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "2",
                   "--lambda", "40000", "--gamma", "1/100000000", "--out", "out") == 0
    assert (tmp_path / "out" / "box_intervals.txt").read_text() == \
        "D=1600000000;[40001,40004);[80001,80004);[120001,120004)\n"
    assert len(_entries(tmp_path / "cache", "construct")) == 1


def test_cli_construct_runs_the_chain_once(tmp_path, monkeypatch):
    # construct's files and chain report read one A and one A'
    import dilates.cli as cli_module
    import dilates.intervals as intervals_module

    encode = intervals_module.encode_grid_to_intervals
    discretize = intervals_module.discretize_to_zp
    grid = box_grid_set(2, 9, [Fraction(1, 3)] * 2)
    a = encode(grid)
    calls = {"encode": 0, "discretize": 0}

    def counted_encode(s):
        calls["encode"] += s == grid
        return encode(s)

    def counted_discretize(x, p):
        calls["discretize"] += x == a
        return discretize(x, p)

    for module in (cli_module, intervals_module):
        monkeypatch.setattr(module, "encode_grid_to_intervals", counted_encode)
        monkeypatch.setattr(module, "discretize_to_zp", counted_discretize)
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "2",
                   "--lambda", "9", "--gamma", "1/9", "--p", "10007", "--out", "out") == 0
    assert calls == {"encode": 1, "discretize": 1}


def test_cli_construct_violated_chain_exit_3(tmp_path, monkeypatch, capsys):
    # a false link is reported after the grid, intervals and residues are
    # written, before the chain report and the cache entry
    import dilates.cli as cli_module

    real = cli_module._chain_report
    monkeypatch.setattr(cli_module, "_chain_report", lambda *stages:
                        dataclasses.replace(real(*stages), continuous_within_grid=False))
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "2",
                   "--lambda", "9", "--gamma", "1/9", "--p", "10007", "--out", "out") == 3
    assert "pipeline chain violated" in capsys.readouterr().err
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == \
        ["box_grid.txt", "box_intervals.txt", "box_residues.txt"]
    assert not (tmp_path / "cache" / "construct").exists()


def test_cli_construct_out_of_memory_exit_4(tmp_path, monkeypatch, capsys):
    # an allocation that fails in the chain, where no cap refused the work up
    # front, exits 4 as a cap does: nothing written, no cache entry
    import dilates.cli as cli_module

    def out_of_memory(*stages):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(cli_module, "_chain_report", out_of_memory)
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "2",
                   "--lambda", "9", "--gamma", "1/9", "--p", "10007", "--out", "out") == 4
    captured = capsys.readouterr()
    assert captured.err == "scale cap exceeded: out of memory: " \
        "Unable to allocate 2.00 GiB for an array\n" and captured.out == ""
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_cli_construct_grid_file_matches_reference_format(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "construct", "box", "--d", "3",
                   "--lambda", "64", "--gamma", "1/64", "--optimized", "--out", "out") == 0
    grid = box_grid_set(3, 64, optimized_box_sides_3d(Fraction(1, 64), 64))
    text = _reference_format(grid)
    assert (tmp_path / "out" / "box_grid.txt").read_bytes() == (text + "\n").encode()
    [entry] = _entries(tmp_path / "cache", "construct")
    assert json.loads(entry.read_text())["grid"] == text


def test_cli_construct_simplex_p_without_lambda_exit_2(tmp_path, capsys):
    # --p discretizes the grid set, which only --lambda builds
    code = run_cli(tmp_path, "--cache-dir", "cache", "construct", "simplex",
                   "--n", "5", "--p", "11", "--out", "out")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv, message", [
    (("construct", "box", "--d", "2", "--lambda", "0", "--gamma", "1/3"),
     "lam must be >= 2, got 0"),
    (("construct", "box", "--d", "3", "--lambda", "0", "--gamma", "1/3", "--optimized"),
     "lam must be >= 2, got 0"),
    (("construct", "box", "--d", "2", "--lambda", "9", "--gamma", "1/9", "--p", "0"),
     "must be prime"),
    (("construct", "simplex", "--n", "5", "--lambda", "0"), "lam must be >= 2, got 0"),
    (("verify", "ruzsa", "--p", "-5", "--cases", "3"), "modulus must be >= 1, got -5"),
    (("construct", "box", "--d", "0", "--lambda", "9", "--gamma", "1/9"),
     "d must be >= 1, got 0"),
    (("verify", "ruzsa", "--p", "0", "--cases", "3"), "modulus must be >= 1, got 0"),
], ids=[  # each id names the condition refused
    "argv0-resolution", "argv1-resolution", "argv2-must be prime", "argv3-resolution",
    "argv4-modulus must be positive", "argv5-dimension must be >= 1",
    "argv6-modulus must be positive, got 0"])
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


def test_cli_verify_ruzsa_reads_p_as_its_modulus(tmp_path, capsys):
    # --p is ruzsa's modulus, filed under the key the retired --modulus 1000
    # had, so entries cached by that flag still hit
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "ruzsa",
                   "--p", "1000", "--cases", "3") == 0
    key = cache_mod.key({"suite": "ruzsa", "cases": 3, "seed": 0, "modulus": 1000})
    assert [e.name for e in _entries(tmp_path / "cache", "verify")] == [f"{key}.json"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        run_cli(tmp_path, "--cache-dir", "cache", "verify", "ruzsa", "--modulus", "7")
    assert exc.value.code == 2
    assert "unrecognized arguments: --modulus 7" in capsys.readouterr().err
    assert len(_entries(tmp_path / "cache", "verify")) == 1


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


_SUITE_READS = {"cd": {"--p"}, "ruzsa": {"--p"}, "plunnecke": set(),
                "dilate-chain": {"--lambda", "--l"}, "kfold-cd": {"--p"}, "affine": {"--p"}}


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite, reads in _SUITE_READS.items()
    for flag in ("--p", "--lambda", "--l") if flag not in reads])
def test_cli_verify_refuses_a_flag_its_suite_does_not_read(tmp_path, capsys, suite, flag):
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", suite, flag, "2",
                   "--cases", "3") == 2
    assert capsys.readouterr().err == f"error: verify {suite} takes no {flag}\n"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("suite", ["cd", "ruzsa", "kfold-cd", "affine"])
def test_cli_verify_suites_at_small_primes(tmp_path, capsys, suite, p):
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", suite,
                   "--p", str(p), "--cases", "40") == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_verify_math_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a broken sumset kernel fails every Cauchy-Davenport case of the real
    # suite: all are counted, the first five reported, and the CLI exits 3
    import dilates.checks as checks_module

    monkeypatch.setattr(checks_module, "sumset", lambda a, b: ResidueSet(a.modulus, 0))
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                   "--cases", "8") == 3
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert (summary["cases"], summary["violations"], summary["ok"]) == (8, 8, False)
    assert len(summary["first_failures"]) == 5
    assert all(f["holds"] is False and f["lhs"] == "0" for f in summary["first_failures"])
    assert "suite cd: 8 violation(s)" in captured.err


@pytest.mark.parametrize("name, broken", [
    # |u*A + v + lam*(u*A + v)| read off the low bits differs from |A + lam*A|
    pytest.param("dilate_sum", lambda a, lam: ResidueSet(a.modulus, a.bits & 0xFF),
                 id="dilate_sum"),
    # the identity is no canonical form: an orbit's images disagree
    pytest.param("canonical_form", lambda a: a, id="canonical_form"),
])
def test_cli_verify_affine_violations_exit_3(tmp_path, monkeypatch, capsys, name, broken):
    import dilates.verify as verify_module

    monkeypatch.setattr(verify_module, name, broken)
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "affine",
                   "--cases", "20") == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] > 0 and summary["cases"] == 20 + 25
    failures = summary["first_failures"]
    assert 0 < len(failures) <= 5
    constant = summary["stats"]["orbit_canonical_constant"]
    if name == "dilate_sum":
        assert all(f["lhs"] != f["rhs"] for f in failures)
        assert constant == 25
    else:
        # each entry names a set, u and v whose orbit shows the mismatch
        for f in failures:
            a = ResidueSet.parse(f["set"])
            image = affine_image(a, f["u"], f["v"])
            assert [broken(a).format(), broken(image).format()] == \
                [f["canonical_form"], f["image_canonical_form"]]
            assert f["canonical_form"] != f["image_canonical_form"]
            assert canonical_form(a) == canonical_form(image)
        assert summary["violations"] == 25 - constant


def _entries(cache_dir, kind):
    return sorted(p for p in (cache_dir / kind).glob("*.json")
                  if not p.name.endswith(".meta.json"))


def test_cli_records_keyed_by_resolved_inputs(tmp_path, capsys):
    # cd's --p resolves to 101 when not given: one entry
    for flags in ((), ("--p", "101")):
        assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "cd",
                       *flags, "--cases", "5") == 0
    assert len(_entries(tmp_path / "cache", "verify")) == 1
    # plunnecke reads no --p and refuses one: no second entry
    assert run_cli(tmp_path, "--cache-dir", "cache", "verify", "plunnecke",
                   "--p", "7", "--cases", "5") == 2
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


# past the anchored-set cap, the walk's first leaf {0, ..., m-1} attains
# its floor in these cells, so their minimum is forced and answered
@pytest.mark.parametrize("p, lam, m, size", [(61, 3, 40, 61), (101, 1, 30, 59),
                                             (101, 0, 30, 30), (1009, 3, 600, 1009)])
def test_cli_search_answers_forced_cells(tmp_path, capsys, p, lam, m, size):
    argv = ("search", "--p", str(p), "--lambda", str(lam), "--m", str(m))
    assert run_cli(tmp_path, "--cache-dir", "cache", *argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["min_size"], out["exact"]) == (size, True)
    assert out["witness"] == ResidueSet.from_elements(p, range(m)).format()
    assert out["classes_enumerated"] == search._orbit_count(p, m) > 10**8
    [entry] = _entries(tmp_path / "cache", "search")
    assert json.loads(entry.read_text()) == out


# 1009, 3, 200: the first leaf has 797 members against a floor of 399;
# 100003, 0, 60000 is forced, but its orbit count has 29218 digits, more
# than str(int) writes; 1000003, 3, 1000003 is one anchored set, but its
# walk would hold 3*m*p bits (about 350 GiB), and p is past _FORCED_CAP
@pytest.mark.parametrize("argv, message", [
    (("--p", "1009", "--lambda", "3", "--m", "200"), "anchored sets exceed cap"),
    (("--p", "100003", "--lambda", "0", "--m", "60000"),
     "97058-bit orbit count unwritable"),
    (("--p", "1000003", "--lambda", "3", "--m", "1000003"),
     "the walk's 3000018000027 bits of prefixes exceed cap"),
])
def test_cli_search_refuses_cells_past_the_cap_exit_4(tmp_path, capsys, argv, message):
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", *argv) == 4
    assert message in capsys.readouterr().err
    assert _entries(tmp_path / "cache", "search") == []


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


def test_cli_sweep_reports_cell_errors_and_exits_0(tmp_path, capsys):
    # m = 0 is no search cell: its error goes to stderr, the other cells run
    assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", "5",
                   "--lambda", "2", "--m-range", "0..2", "--out", "sw") == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("cell error: {'p': 5, 'lambda': 2, 'm': 0, ")
    assert "2 cells (2 computed, 0 cached), 1 errors" in captured.out
    assert json.loads((tmp_path / "sw" / "sweep.json").read_text())["errors"][0]["m"] == 0


@pytest.mark.parametrize("m_range", ["1..2..3", "2..", "..3", "2,x", "3..2", ","])
def test_cli_sweep_malformed_m_range_exit_2(tmp_path, capsys, m_range):
    assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", "5",
                   "--lambda", "2", "--m-range", m_range, "--out", "sw") == 2
    assert capsys.readouterr().err == (f"error: bad --m-range {m_range!r}: "
                                       "expected lo..hi or a comma list of integers\n")
    assert not (tmp_path / "sw").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag, value", [("--p", "5,x"), ("--lambda", "2,x"),
                                         ("--lambda", "2.5"), ("--p", "2..3"),
                                         ("--p", ","), ("--lambda", "")])
def test_cli_sweep_malformed_int_list_exit_2(tmp_path, capsys, flag, value):
    lists = {"--p": "5", "--lambda": "2", flag: value}
    assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", lists["--p"],
                   "--lambda", lists["--lambda"], "--m-range", "2..3", "--out", "sw") == 2
    assert capsys.readouterr().err == (f"error: bad {flag} {value!r}: "
                                       "expected a comma list of integers\n")
    assert not (tmp_path / "sw").exists() and not (tmp_path / "cache").exists()


def test_cli_sweep_bad_budget_exits_2_before_writing(tmp_path, capsys):
    # every cell shares --budget, so it is refused once, not as an error per cell
    assert run_cli(tmp_path, "--cache-dir", "cache", "sweep", "--p", "7", "--lambda", "2",
                   "--m-range", "2..3", "--budget", "-1", "--out", "sw") == 2
    assert capsys.readouterr().err == "error: budget must be >= 0, got -1\n"
    assert not (tmp_path / "sw").exists() and not (tmp_path / "cache").exists()


def test_cli_warm_sweep_reads_and_hashes_each_cell_once(tmp_path, monkeypatch, capsys):
    argv = ("--cache-dir", "cache", "sweep", "--p", "5,7", "--lambda", "2",
            "--m-range", "1..3", "--out", "sw")
    assert run_cli(tmp_path, *argv) == 0
    root = tmp_path / "cache" / "search"
    entries = {p.name for p in root.glob("*.json") if not p.name.endswith(".meta.json")}
    assert len(entries) == 6
    keys, opened = [], []

    def counting(calls, real):
        def call(first, *args, **kwargs):
            calls.append(first)
            return real(first, *args, **kwargs)
        return call

    monkeypatch.setattr(cache_mod, "key", counting(keys, cache_mod.key))
    monkeypatch.setattr(cache_mod, "open", counting(opened, open), raising=False)
    monkeypatch.setattr(os, "open", counting(opened, os.open))
    capsys.readouterr()
    assert run_cli(tmp_path, *argv) == 0
    monkeypatch.undo()
    assert "6 cells (0 computed, 6 cached)" in capsys.readouterr().out
    # one key per cell, and one for the sweep's own entry
    assert len(keys) == 6 + 1
    in_search = [os.path.basename(p) for p in map(os.fspath, opened)
                 if os.path.dirname(p).endswith("search")]
    assert sorted(in_search) == sorted(entries)


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
    # search for that task misses, recomputes and overwrites it; each names
    # it in the one stderr line of an undecodable entry
    argv = ("--cache-dir", "cache", "sweep", "--p", "5,7", "--lambda", "2",
            "--m-range", "1..2", "--out", "sw")
    assert run_cli(tmp_path, *argv) == 0
    root = tmp_path / "cache" / "search"
    other = SearchTask(p=7, lam=2, m=3)
    moved = root / f"{other.digest()}.json"
    (root / f"{SearchTask(p=7, lam=2, m=2).digest()}.json").rename(moved)
    line = f"cache: ignoring undecodable entry {Path('cache', 'search', moved.name)}\n"
    capsys.readouterr()
    assert run_cli(tmp_path, "--cache-dir", "cache", "report", "--out", "plots") == 0
    out, err = capsys.readouterr()
    assert "rendered 3 cached results" in out and err == line
    assert run_cli(tmp_path, "--cache-dir", "cache", "search", "--p", "7",
                   "--lambda", "2", "--m", "3") == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["task"]["m"] == 3 and err == line
    assert decode_entry(json.loads(moved.read_text()), other.digest())[0] == other
    assert run_cli(tmp_path, *argv) == 0
    assert "(1 computed, 3 cached)" in capsys.readouterr().out


_STORING_COMMANDS = [
    ("sweep", "--p", "5,7", "--lambda", "2", "--m-range", "1..2", "--out", "sw"),
    ("construct", "box", "--d", "2", "--lambda", "9", "--gamma", "1/9", "--p", "10007",
     "--out", "out"),
    ("verify", "cd", "--p", "101", "--cases", "50"),
    ("gap", "find", "--set", "p=11;{0,2,4,6}", "--d-max", "2"),
]


@pytest.mark.parametrize("argv", _STORING_COMMANDS, ids=lambda argv: argv[0])
def test_cli_warm_rerun_writes_no_file(tmp_path, monkeypatch, argv):
    # an hour later the rerun changes no entry: it renames no temp file
    # over a target, runs no git describe, and every file, sidecars
    # included, keeps its inode, mtime and bytes, so created_at too
    _clock_at(monkeypatch, 10**9)
    assert run_cli(tmp_path, "--cache-dir", "cache", *argv) == 0

    def files():
        return {p: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
                for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    sidecars = [json.loads(data) for p, (_, _, data) in before.items()
                if p.name.endswith(".meta.json")]
    assert sidecars and {m["created_at"] for m in sidecars} == {"2001-09-09T01:46:40Z"}
    _clock_at(monkeypatch, 10**9 + 3600)
    calls = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda *a: calls.append(a) or real_replace(*a))
    monkeypatch.setattr(cache_mod, "git_describe", lambda: calls.append("git") or "x")
    assert run_cli(tmp_path, "--cache-dir", "cache", *argv) == 0
    assert calls == []
    assert files() == before


def test_write_dat_orders_points_by_their_exact_values(tmp_path):
    # 1/3 and 1/3 + 10^-20 round to one float; the exact values order them
    from dilates.cli import _write_dat

    third, eps = Fraction(1, 3), Fraction(1, 10**20)
    assert float(third) == float(third + eps)
    points = [(third + eps, Fraction(1, 5)), (Fraction(1, 2), Fraction(1, 7)),
              (third, Fraction(2, 5)), (third, Fraction(1, 5) + eps), (third, Fraction(1, 5))]
    _write_dat(tmp_path / "p.dat", "min_over_p", points)
    expected = [f"{float(x):.12g} {float(y):.12g}" for x, y in sorted(points)]
    assert expected[2:4] == ["0.333333333333 0.4", "0.333333333333 0.2"]
    assert (tmp_path / "p.dat").read_text().splitlines() == ["# alpha min_over_p", *expected]


def test_cli_io_error_exit_code(tmp_path, capsys):
    # an output path that cannot be created is an I/O error (5), not a usage
    # error (2); the cells computed before the failed write stay cached
    (tmp_path / "taken").write_text("a file, not a directory")
    argv = ("--cache-dir", "cache", "sweep", "--p", "5", "--lambda", "2",
            "--m-range", "1..2")
    assert run_cli(tmp_path, *argv, "--out", "taken") == 5
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert len(cache_mod.list_outputs(tmp_path / "cache", "search", _raw)) == 2
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


def test_cli_gap_span_names_the_nominal_size_cap(tmp_path, capsys):
    # 3^16 * 4 > 2^26, with an exponent below the one refused outright
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "span",
                   "--gap", "p=13;a=0;v=[1];k=[4]", "--lambda", "3",
                   "--exponent", "16") == 4
    assert capsys.readouterr().err == (
        "scale cap exceeded: span check exceeds nominal-size cap: "
        "lambda^exponent * nominal size > 2^26\n")
    assert not (tmp_path / "cache").exists()


def test_cli_usage_error_on_bad_literal(tmp_path):
    assert run_cli(tmp_path, "--cache-dir", "cache", "gap", "find",
                   "--set", "nonsense", "--d-max", "2") == 2


# malformed or conflicting arguments, at least one row per subcommand and
# verify suite, each with the documented exit code it must end with; rows
# pick refusals no other test here makes, except sweep's, all of whose
# refusals are made elsewhere, and the two --p rows, whose messages
# test_cli_verify_refuses_a_flag_its_suite_does_not_read checks
_REFUSED = [
    (("construct", "box", "--d", "3", "--lambda", "8", "--optimized"), 2),
    (("construct", "box", "--d", "2", "--lambda", "9", "--sides", "a,b"), 2),
    (("construct", "simplex", "--n", "0", "--lambda", "4"), 2),
    (("verify", "cd", "--p", "1"), 2),
    (("verify", "ruzsa", "--cases", "0"), 2),
    (("verify", "plunnecke", "--cases", "0"), 2),
    (("verify", "dilate-chain", "--cases", "0"), 2),
    (("verify", "plunnecke", "--p", "0"), 2),
    (("verify", "dilate-chain", "--p", "0"), 2),
    (("verify", "kfold-cd", "--p", "1"), 2),
    (("verify", "affine", "--p", "4"), 2),
    (("verify", "no-such-suite"), 2),
    (("search", "--p", "7", "--lambda", "2", "--m", "9"), 2),
    (("sweep", "--p", "7", "--lambda", "2", "--m-range", "3..2", "--out", "out"), 2),
    (("gap", "find", "--set", "p=11;{}"), 2),
    (("gap", "find", "--set", "p=11;{1}", "--d-max", "3"), 4),
    (("gap", "expand", "--gap", "p=11;a=0;v=[0];k=[2]"), 2),
    (("gap", "expand", "--gap", "p=11;a=0;v=[1];k=[99999999999]"), 4),
    (("gap", "span", "--gap", "p=13;a=0;v=[1];k=[2]", "--lambda", "3"), 2),
    (("report", "--out", "taken"), 5),
    (("no-such-command",), 2),
]


@pytest.mark.parametrize("argv, code", _REFUSED, ids=[" ".join(a) for a, _ in _REFUSED])
def test_cli_refusals_end_in_a_documented_exit_code(tmp_path, argv, code):
    # no exception escapes main: an argparse refusal's SystemExit(2) counts as 2
    (tmp_path / "taken").write_text("a file, not a directory")
    try:
        got = run_cli(tmp_path, "--cache-dir", "cache", *argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code


_RERUN_COMMANDS = [
    ("construct", "box", "--d", "2", "--lambda", "9", "--gamma", "1/9", "--p", "10007",
     "--out", "out"),
    ("verify", "cd", "--p", "101", "--cases", "50"),
    ("sweep", "--p", "5,7", "--lambda", "2", "--m-range", "2..3", "--out", "sweep"),
    ("report", "--out", "plots"),
    ("construct", "simplex", "--n", "6"),
]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.endswith(".meta.json")}


def test_cli_main_repeated_in_one_process(tmp_path, monkeypatch, capsys):
    # main builds its parser once and keeps it: after a usage error and a
    # refused input, each command prints and writes what it did before, and
    # what one fresh process per command prints and writes
    import dilates.cli as cli_module

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps alike in every process
    monkeypatch.delenv(cache_mod.ENV_CACHE_DIR, raising=False)
    cli_module.build_parser.cache_clear()

    def help_text():
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    helps = [help_text()]
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path / "errors", "construct", "box", "--lambda", "9", "--gamma", "1/9")
    assert exc.value.code == 2
    assert "required: --d" in capsys.readouterr().err
    assert run_cli(tmp_path / "errors", "construct", "box", "--d", "0", "--lambda", "9",
                   "--gamma", "1/9") == 2
    assert capsys.readouterr().err == "error: d must be >= 1, got 0\n"

    rounds = []
    for name in ("round0", "round1"):
        printed = []
        for argv in _RERUN_COMMANDS:
            assert run_cli(tmp_path / name, "--cache-dir", "cache", *argv) == 0
            printed.append(capsys.readouterr().out)
        rounds.append((printed, _tree(tmp_path / name)))
        helps.append(help_text())
    assert rounds[0] == rounds[1]
    assert len(helps) == 3 and len(set(helps)) == 1
    # 15 calls: three --help, two refused, ten commands; one built the parser
    info = cli_module.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 14)

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1])}

    def fresh_run(*argv):
        proc = subprocess.run([sys.executable, "-m", "dilates", *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    printed = [fresh_run("--cache-dir", "cache", *argv) for argv in _RERUN_COMMANDS]
    assert (printed, _tree(fresh)) == rounds[0]
    assert fresh_run("--help") == helps[0]
    # importing the CLI builds no parser
    code = "import dilates.cli as c; print(c.build_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60).stdout == "0\n"
