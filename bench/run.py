"""Benchmark of the dilates library.

    python3 bench/run.py --workload {search,pipeline,oracles} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src/``.  Load is a closed loop from this single process: one caller
runs each op after the previous one returns, one worker, no extra
threads.  A run generates the workload's op list from the seed, then
repeats passes over it; the number of passes is fixed by ``--seconds``
and the workload's nominal pass time, so a faster commit gets the same
samples, not more.  Every op's output is checked after its timer
stops: in full on the first pass, by byte-stable digest on later passes,
and against the digests in ``golden.json`` wherever an op's inputs have a
recorded digest (every op of the default seed 0).

Times are normalized for host CPU speed by ``speed.SpeedSampler``: a
value reads as seconds at the speed where its fixed probe takes
``speed.NOMINAL_S``.  Raw times stay in the run record in ``bench/out/``.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics:

- ``setup_s``: median of five fresh-interpreter imports of numpy and
  dilates, plus the median of five rounds of generating the inputs from
  the seed and warming up on a tiny copy of the workload;
- ``wall_s``: the time of one typical pass, the sum over the op list of
  each op's median latency;
- ``op_p50_ms`` / ``op_tail_ms``: median, and the value with ten ops
  above it, of the per-op median latencies;
- ``warm_wall_s``: median latency of the warm CLI re-run against the cache
  the pass filled (search: ``sweep`` + ``report``; pipeline: the README's
  two ``construct box`` commands; oracles: ``verify cd`` + ``gap find``);
- ``peak_rss_mib``: ``ru_maxrss`` of this process.

The share of failed ops is ``failed / attempted`` in the same object.
With ``--trace 1`` passes alternate untraced and traced, and the metrics
are the per-layer ones of ``tracing.py``: calls and self time of every
wrapped function, work counts, accept and hit ratios, the tracing
overhead and the share of op time the layer spans cover.  A record of
every run and the spans of the last traced run of each workload go to
``bench/out/``.

``--write-golden`` records the digests of a checked pass into
``golden.json``; ``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
WORK = BENCH / "work"

SETUP_ROUNDS = 5
TAIL_ABOVE = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "warm_wall_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("search", "pipeline", "oracles"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (harness smoke test)")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this seed's output digests in golden.json")
    return ap.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the highest percentile that
    still has TAIL_ABOVE samples above it; the maximum when there are too
    few samples."""
    xs = sorted(values)
    n = len(xs)
    i = n - 1 - TAIL_ABOVE if n > TAIL_ABOVE else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def run_metadata(seed: int) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except OSError:
            pass
    h = sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_digest": h.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "seed": seed}


def fresh_import() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import numpy, dilates"], cwd=ROOT, env=env,
                   check=True, timeout=120)


class Checker:
    """Verdicts per op key: the first output is checked in full, later
    outputs must repeat its byte-stable digest."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.first: dict[str, tuple[str, bool]] = {}
        self.golden_checked = 0

    def verdict(self, op, out, outs) -> bool:
        key = op.key_text
        try:
            digest = _digest(op.stable(out))
        except Exception as exc:  # noqa: BLE001 - an output without a stable form is wrong
            print(f"unreadable output: {key}: {exc!r}", file=sys.stderr)
            return False
        if key not in self.first:
            try:
                op.check(out, outs)
                ok = True
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                print(f"check failed: {key}: {exc!r}", file=sys.stderr)
                ok = False
            self.first[key] = (digest, ok)
        first_digest, ok = self.first[key]
        if digest != first_digest:
            print(f"output changed between passes: {key}", file=sys.stderr)
            ok = False
        want = self.golden.get(op.key_digest)
        if want is not None:
            self.golden_checked += 1
            if want != digest:
                print(f"golden digest mismatch: {key}", file=sys.stderr)
                ok = False
        return ok


class Runner:
    """Closed-loop passes over a workload; keeps each op's timings and the
    verdict on its output."""

    def __init__(self, wl, workdir: Path, checker: Checker, sampler):
        self.wl = wl
        self.workdir = workdir
        self.checker = checker
        self.sampler = sampler
        self.next_op_id = 0
        self.attempted = 0
        self.failed = 0
        # (start, end, seconds outside probes) per call
        self.timings: dict[str, list[tuple]] = {op.key_text: [] for op in wl.ops}
        self.warm_timings: list[tuple] = []

    def _call(self, op, ctx, tracer):
        op_id = self.next_op_id
        self.next_op_id += 1
        if tracer is not None:
            tracer.current_op = op_id
        out, err = None, None
        mark = self.sampler.mark()
        try:
            out = op.run(ctx)
        except Exception as exc:  # noqa: BLE001 - an op that raises has failed
            err = exc
        timing = self.sampler.elapsed(mark)
        if tracer is not None:
            tracer.current_op = -1
        if err is not None:
            print(f"op raised: {op.key_text}", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
        return op_id, out, err, timing

    def run_pass(self, tracer=None) -> dict:
        """One pass: every op `op.reps` times, then the warm re-runs; the
        checks follow."""
        ctx = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        calls = [(op, *self._call(op, ctx, tracer))
                 for op in self.wl.ops + [self.wl.warm] for _ in range(op.reps)]
        outs = {}
        for op, _, out, _, _ in calls:
            outs.setdefault(op.key_text, out)
        for op, _, out, err, timing in calls:
            self.attempted += 1
            if op is self.wl.warm:
                self.warm_timings.append(timing)
            else:
                self.timings[op.key_text].append(timing)
            if err is not None or not self.checker.verdict(op, out, outs):
                self.failed += 1
        shutil.rmtree(ctx, ignore_errors=True)
        return {"op_ids": [c[1] for c in calls], "timings": [c[4] for c in calls]}


def end_to_end(runner: Runner, setup_s: float, norm) -> tuple[dict, dict]:
    per_op = [_median([norm(t) for t in ts]) for ts in runner.timings.values() if ts]
    warm = [norm(t) for t in runner.warm_timings]
    tail_value, tail_pct, tail_above = tail(per_op)
    samples = sum(len(ts) for ts in runner.timings.values())
    values = {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "op_p50_ms": 1000.0 * _median(per_op),
        "op_tail_ms": 1000.0 * tail_value,
        "warm_wall_s": _median(warm),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"sum over {len(per_op)} ops of their median latency, {samples} samples",
        "op_p50_ms": f"median of {len(per_op)} per-op medians",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(per_op)} per-op medians, "
                      f"{tail_above} above",
        "warm_wall_s": f"median of {len(warm)} re-runs",
    }
    return values, notes


def per_layer(tracer, traced: list[dict], untraced: list[dict], norm) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes.  Self times are normalized by
    the speed factor of the op each span belongs to."""
    import tracing

    spans = tracer.arrays()
    factor = np.ones(1 + max(i for p in traced for i in p["op_ids"]))
    for p in traced:
        for op_id, t in zip(p["op_ids"], p["timings"]):
            factor[op_id] = norm(t) / t[2] if t[2] > 0 else 1.0
    tables = [tracing.layer_table(spans, p["op_ids"], factor) for p in traced]
    warnings = []
    values = {}
    for name in tracing.SPAN_NAMES:
        calls = [t["calls"][name] for t in tables]
        if len(set(calls)) > 1:
            warnings.append(f"{name}.calls differs between traced passes: {calls}")
        values[f"{name}.calls"] = calls[0]
        values[f"{name}.self_s"] = _median([t["self_s"][name] for t in tables])
    counters = [p["counters"] for p in traced]
    for name in tracing.COUNTS + list(tracing.RATIOS):
        seen = [c[name] for c in counters]
        if len(set(seen)) > 1:
            warnings.append(f"{name} differs between traced passes: {seen}")
        values[name] = seen[0]

    def pass_time(p):
        return sum(norm(t) for t in p["timings"])

    values["trace.overhead_ratio"] = (_median([pass_time(p) for p in traced])
                                      / _median([pass_time(p) for p in untraced]) - 1.0)
    values["trace.coverage_ratio"] = _median(
        [t["top_level_s"] / sum(end - start for start, end, _ in p["timings"])
         for t, p in zip(tables, traced)])
    return values, warnings


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "dilates" / "__init__.py").is_file():
        print(f"error: no dilates package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the library runs `git describe` on every cache write; keep git from
    # searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import dilates
    import tracing
    import workloads

    if Path(dilates.__file__).resolve().parent != SRC / "dilates":
        print(f"error: imported dilates from {dilates.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, workdir, t_start, dilates, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, t_start, dilates, tracing, workloads) -> int:
    import speed

    meta = run_metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                tiny=args.tiny)
    print("# meta " + json.dumps(meta, sort_keys=True))

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    checker = Checker(golden)
    tracer = tracing.Tracer() if args.trace else None
    with speed.SpeedSampler() as sampler:
        imports, rounds = [], []
        for _ in range(SETUP_ROUNDS):
            mark = sampler.mark()
            fresh_import()
            imports.append(sampler.elapsed(mark))
            mark = sampler.mark()
            wl = workloads.build(args.workload, args.seed, args.tiny)
            warm_up = Runner(workloads.build(args.workload, 0, tiny=True), workdir,
                             Checker({}), sampler)
            warm_up.run_pass()
            rounds.append(sampler.elapsed(mark))

        runner = Runner(wl, workdir, checker, sampler)
        untraced, traced = [], []
        for i in range(wl.passes(args.seconds)):
            if tracer is not None and i % 2:
                tracer.counters.clear()
                tracer.install(dilates)
                try:
                    record = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                record["counters"] = tracing.counter_metrics(tracer.counters)
                traced.append(record)
            else:
                untraced.append(runner.run_pass())

    def norm(timing) -> float:
        t0, t1, raw = timing
        return raw * sampler.factor(t0, t1)

    setup_s = _median([norm(t) for t in imports]) + _median([norm(t) for t in rounds])
    e2e, notes = end_to_end(runner, setup_s, norm)
    record = {"meta": meta, "attempted": runner.attempted, "failed": runner.failed,
              "golden_checked": checker.golden_checked, "end_to_end": e2e,
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "op_latency_s": {k: [norm(t) for t in ts] for k, ts in runner.timings.items()},
              "op_latency_raw_s": {k: [t[2] for t in ts] for k, ts in runner.timings.items()},
              "warm_latency_s": [norm(t) for t in runner.warm_timings],
              "warm_latency_raw_s": [t[2] for t in runner.warm_timings],
              "setup_raw_s": _median([t[2] for t in imports]) + _median([t[2] for t in rounds]),
              "probe_s": list(sampler.took),
              "run_s": perf_counter() - t_start}
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    ratio = runner.failed / runner.attempted
    print(f"failed_op_ratio {ratio:.6g} ({runner.failed} of {runner.attempted} ops; "
          f"{checker.golden_checked} golden digests compared)")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                  + ("-tiny" if args.tiny else ""))
    if args.trace:
        layers, warnings = per_layer(tracer, traced, untraced, norm)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        record["per_layer"] = layers
        tracer.save(OUT / f"{args.workload}.spans.npz")  # one file: a traced search is ~60 MB
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
        for name, value in layers.items():
            print(f"{name} {value:.6g} {tracing.unit(name)}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))

    if args.write_golden:
        if runner.failed:
            print("error: not writing golden digests from a run with failed ops",
                  file=sys.stderr)
            return 1
        for op in wl.ops + [wl.warm]:
            golden[op.key_digest] = checker.first[op.key_text][0]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
