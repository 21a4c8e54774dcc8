"""Span tracing installed from outside the library.

`install` replaces each public function listed in `TRACED` with a wrapper
that records a span (name, start, end, parent span, op id), in every
`dilates` module that holds a reference to it, and `uninstall` puts the
originals back.  Spans are recorded only while an op is running (op id
>= 0), so the benchmark's own output checks never show up in the trace.
Spans live in flat arrays, which keeps a traced exact-search pass (about
1.3 million spans) within a few tens of MiB; they are written out once,
when the run ends.  Span times include the CPU-speed probes that interrupt
them (about 2% of wall time, see speed.py).
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# module -> wrapped public names; "Class.method" patches the class attribute
TRACED = {
    "residues": ["sumset", "dilate", "dilate_sum", "iterated_sumset",
                 "affine_image", "canonical_form", "is_canonical",
                 "ResidueSet.elements", "ResidueSet.from_elements"],
    "grids": ["box_grid_set", "simplex_grid_set", "grid_projection_sumset"],
    "intervals": ["pipeline_check", "encode_grid_to_intervals",
                  "interval_dilate_sum", "discretize_to_zp",
                  "TorusIntervalSet.contains_set"],
    "checks": ["check_cauchy_davenport", "check_ruzsa_triangle",
               "check_plunnecke", "check_dilate_chain", "check_kfold_cd_chain"],
    "verify": ["run_cd_suite", "run_ruzsa_suite", "run_plunnecke_suite",
               "run_dilate_chain_suite", "run_kfold_suite", "run_affine_suite"],
    "gaps": ["find_max_proper_gap", "is_proper", "lambda_span_check"],
    "search": ["sweep", "exact_min_dilate_sumset", "heuristic_min_dilate_sumset"],
    "cache": ["load_outputs", "store_experiment", "atomic_write", "git_describe"],
    "cli": ["main"],
}

SPAN_NAMES = [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]

# Work counters and ratios measured at the wrapped boundaries.  Ratios with
# no attempts read 0.
COUNTS = ["residues.sumset.bits", "search.subsets_visited",
          "search.classes_enumerated", "search.heuristic.evaluations",
          "intervals.minkowski_pairs", "cache.bytes_written"]
RATIOS = {
    "residues.is_canonical.accept_ratio": ("is_canonical.accepted", "is_canonical.calls"),
    "gaps.is_proper.accept_ratio": ("is_proper.accepted", "is_proper.calls"),
    "cache.hit_ratio": ("load_outputs.hits", "load_outputs.calls"),
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return {"residues.sumset.bits": "bits", "cache.bytes_written": "bytes"}.get(metric, "count")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span store plus the counters the observers update."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.open_depth = [0] * len(SPAN_NAMES)
        self.current_op = -1
        self.counters: Counter = Counter()
        self._restore: list = []

    def inside(self, span_name: str) -> bool:
        return self.open_depth[self.name_ids[span_name]] > 0

    def _wrap(self, span_name: str, fn, observe):
        nid = self.name_ids[span_name]
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack, depth = self.stack, self.open_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every traced name in every loaded module of `package`."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for fname in names:
                span_name = f"{mod_name}.{fname}"
                observe = OBSERVERS.get(span_name)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(span_name, raw.__func__, observe))
                    else:
                        patched = self._wrap(span_name, raw, observe)
                    setattr(cls, meth, patched)
                    self._restore.append((cls, meth, raw))
                    continue
                orig = getattr(mod, fname)
                wrapper = self._wrap(span_name, orig, observe)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def layer_table(spans: dict[str, np.ndarray], ops, op_factor: np.ndarray) -> dict[str, dict]:
    """Per span name: calls and self time for the spans of the given ops.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.  It is
    scaled by `op_factor[op]` of the span's op.  Also returns the raw time
    covered by top-level spans."""
    keep = np.isin(spans["op"], ops)
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_time = (dur - child) * op_factor[spans["op"]]
    names = spans["name"][keep]
    calls = np.bincount(names, minlength=len(SPAN_NAMES))
    self_s = np.bincount(names, weights=self_time[keep], minlength=len(SPAN_NAMES))
    top = float(dur[keep & ~has_parent].sum())
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
        "self_s": {n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)},
        "top_level_s": top,
    }


def counter_metrics(counters: Counter) -> dict[str, float]:
    out = {name: counters[name] for name in COUNTS}
    for name, (num, den) in RATIOS.items():
        out[name] = counters[num] / counters[den] if counters[den] else 0.0
    return out


# Observers run after the span closes, so their own cost is not in any span.

def _obs_sumset(t, args, kwargs, result):
    t.counters["residues.sumset.bits"] += _arg(args, kwargs, 0, "a").modulus


def _obs_is_canonical(t, args, kwargs, result):
    t.counters["is_canonical.calls"] += 1
    t.counters["is_canonical.accepted"] += bool(result)
    if t.inside("search.exact_min_dilate_sumset"):
        t.counters["search.subsets_visited"] += 1


def _obs_exact(t, args, kwargs, result):
    t.counters["search.classes_enumerated"] += result.classes_enumerated


def _obs_heuristic(t, args, kwargs, result):
    t.counters["search.heuristic.evaluations"] += result.classes_enumerated


def _obs_interval_dilate_sum(t, args, kwargs, result):
    from dilates.intervals import scale_intervals
    a = _arg(args, kwargs, 0, "a")
    lam = _arg(args, kwargs, 1, "lam")
    t.counters["intervals.minkowski_pairs"] += (
        len(a.intervals) * len(scale_intervals(a, lam).intervals))


def _obs_is_proper(t, args, kwargs, result):
    t.counters["is_proper.calls"] += 1
    t.counters["is_proper.accepted"] += bool(result)


def _obs_load_outputs(t, args, kwargs, result):
    t.counters["load_outputs.calls"] += 1
    t.counters["load_outputs.hits"] += result is not None


def _obs_atomic_write(t, args, kwargs, result):
    t.counters["cache.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


OBSERVERS = {
    "residues.sumset": _obs_sumset,
    "residues.is_canonical": _obs_is_canonical,
    "search.exact_min_dilate_sumset": _obs_exact,
    "search.heuristic_min_dilate_sumset": _obs_heuristic,
    "intervals.interval_dilate_sum": _obs_interval_dilate_sum,
    "gaps.is_proper": _obs_is_proper,
    "cache.load_outputs": _obs_load_outputs,
    "cache.atomic_write": _obs_atomic_write,
}
