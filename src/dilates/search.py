"""Minimization of |A + lam*A| over m-element subsets of Z/pZ.

Exact mode scores one representative per affine orbit {u*A + v}: the
objective is affine-invariant, so it suffices to score sets that equal
their own canonical form (the image with the lexicographically least
sorted tuple).  For m >= 2 that form starts (0, 1): for members x != y
the map z -> (z - x) / (y - x) sends A to an image containing 0 and 1.
So the scan visits only the C(p-2, m-2) sets {0, 1} + (an (m-2)-subset
of 2..p-1), and {0} alone for m = 1.  is_canonical compares a visited set
with its m(m-1) pair images, because every image starting (0, 1) is the
image of the pair sent to 0 and 1.  A parallel run splits the anchored
sets at their third element: each chunk is the lexicographically
contiguous run {0, 1, x} + (an (m-3)-subset of x+1..p-1), which makes
parallel runs reduce to the same (min, lexicographically-least-witness)
answer for any worker count.

Heuristic mode is plain seeded simulated annealing over single-element
swaps and only ever reports an upper bound.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from math import comb

from .errors import ScaleCapError
from .residues import (ResidueSet, canonical_form, dilate_sum, is_canonical,
                       require_prime)

__all__ = [
    "SearchTask",
    "SearchResult",
    "exact_min_dilate_sumset",
    "exact_min_reference",
    "heuristic_min_dilate_sumset",
    "sweep",
    "SweepReport",
    "sweep_rows",
    "sweep_csv",
    "rows_csv",
    "CSV_HEADER",
]

_CLASS_CAP = 10**8


@dataclass(frozen=True)
class SearchTask:
    """One minimization cell: p prime, dilation lam, target size m."""

    p: int
    lam: int
    m: int
    mode: str = "exact"
    seed: int = 0
    budget: int = 0

    def __post_init__(self):
        require_prime(self.p)
        if not 1 <= self.m <= self.p:
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.mode not in ("exact", "heuristic"):
            raise ValueError(f"mode must be exact|heuristic, got {self.mode!r}")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    def canonical_encoding(self) -> str:
        return json.dumps(
            {"p": self.p, "lambda": self.lam, "m": self.m, "mode": self.mode,
             "seed": self.seed, "budget": self.budget},
            sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return sha256(self.canonical_encoding().encode()).hexdigest()


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one task; witness is always in canonical form."""

    min_size: int
    witness: ResidueSet
    classes_enumerated: int
    exact: bool
    task_digest: str

    def to_json_dict(self, task: SearchTask) -> dict:
        return {
            "task": json.loads(task.canonical_encoding()),
            "task_digest": self.task_digest,
            "alpha": f"{task.m}/{task.p}",
            "min_size": self.min_size,
            "min_over_p": f"{Fraction(self.min_size, task.p).numerator}/"
                          f"{Fraction(self.min_size, task.p).denominator}",
            "exact": self.exact,
            "witness": self.witness.format(),
            "classes_enumerated": self.classes_enumerated,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchResult":
        return cls(
            min_size=data["min_size"],
            witness=ResidueSet.parse(data["witness"]),
            classes_enumerated=data["classes_enumerated"],
            exact=data["exact"],
            task_digest=data["task_digest"],
        )


def _scan_chunk(args: tuple[int, int, int, tuple[int, ...]]) -> tuple[int | None, tuple[int, ...] | None, int]:
    """Scan the sets head + c, c an (m - len(head))-combination of
    head[-1] + 1 .. p - 1, in lexicographic order; score canonical
    representatives only.  Returns (local min, local witness, classes)."""
    p, lam, m, head = args
    best_size = None
    best_witness = None
    classes = 0
    for tail in combinations(range(head[-1] + 1, p), m - len(head)):
        combo = head + tail
        a = ResidueSet.from_elements(p, combo)
        if is_canonical(a):
            classes += 1
            size = len(dilate_sum(a, lam))
            if best_size is None or size < best_size:
                best_size = size
                best_witness = combo
    return best_size, best_witness, classes


def exact_min_dilate_sumset(task: SearchTask, workers: int = 1) -> SearchResult:
    """Global minimum of |A + lam*A| over all m-subsets of Z/pZ.

    Visits only the C(p - k, m - k) sets through the anchor {0, 1}[:k],
    k = min(m, 2), in lexicographic order.  Deterministic for any worker
    count: chunk minima merge by (size, lexicographic witness).  Estimated
    canonical class count must stay under _CLASS_CAP.
    """
    if task.mode != "exact":
        raise ValueError("task.mode must be 'exact'")
    p, m = task.p, task.m
    est_classes = max(comb(p, m) // (p * (p - 1)), 1)
    if est_classes > _CLASS_CAP:
        raise ScaleCapError(
            f"~{est_classes} canonical classes exceed cap {_CLASS_CAP}; "
            "use heuristic mode")

    k = min(m, 2)
    if workers > 1 and comb(p - k, m - k) > 1024:
        chunks = [(p, task.lam, m, (0, 1, x)) for x in range(2, p - m + 3)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, chunks))
    else:
        parts = [_scan_chunk((p, task.lam, m, (0, 1)[:k]))]

    best_size, best_witness, classes = None, None, 0
    for size, witness, count in parts:
        classes += count
        if size is None:
            continue
        if best_size is None or (size, witness) < (best_size, best_witness):
            best_size, best_witness = size, witness
    assert best_witness is not None  # {0, 1, ..., m-1} is canonical
    return SearchResult(
        min_size=best_size,
        witness=ResidueSet.from_elements(p, best_witness),
        classes_enumerated=classes,
        exact=True,
        task_digest=task.digest(),
    )


def exact_min_reference(p: int, lam: int, m: int) -> int:
    """No-pruning oracle: scan every one of the C(p, m) subsets."""
    require_prime(p)
    return min(len(dilate_sum(ResidueSet.from_elements(p, combo), lam))
               for combo in combinations(range(p), m))


def heuristic_min_dilate_sumset(task: SearchTask) -> SearchResult:
    """Seeded annealing upper bound; result never improves on the exact
    minimum and never worsens as the budget grows (best-so-far)."""
    if task.mode != "heuristic":
        raise ValueError("task.mode must be 'heuristic'")
    p, lam, m = task.p, task.lam, task.m
    rng = random.Random(task.seed)

    current = list(range(m))
    outside = list(range(m, p))

    def objective(members) -> int:
        return len(dilate_sum(ResidueSet.from_elements(p, members), lam))

    cur_val = objective(current)
    best_members = tuple(current)
    best_val = cur_val
    evaluations = 1
    temperature = float(m)  # T_0 = m, geometric cooling by 0.999 per move
    for _ in range(task.budget):
        if not outside:
            break
        i = rng.randrange(len(current))
        j = rng.randrange(len(outside))
        current[i], outside[j] = outside[j], current[i]
        val = objective(current)
        evaluations += 1
        delta = val - cur_val
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            cur_val = val
            if val < best_val:
                best_val = val
                best_members = tuple(sorted(current))
        else:
            current[i], outside[j] = outside[j], current[i]  # revert
        temperature *= 0.999

    witness = ResidueSet.from_elements(p, best_members)
    return SearchResult(
        min_size=best_val,
        witness=canonical_form(witness),
        classes_enumerated=evaluations,
        exact=False,
        task_digest=task.digest(),
    )


def run_task(task: SearchTask, workers: int = 1) -> SearchResult:
    if task.mode == "exact":
        return exact_min_dilate_sumset(task, workers=workers)
    return heuristic_min_dilate_sumset(task)


@dataclass
class SweepReport:
    """All cells of a sweep, plus bookkeeping that stays out of the
    serialized outputs so reruns are byte-identical."""

    tasks: list[SearchTask]
    results: list[SearchResult]
    errors: list[dict]
    computed: int = 0
    cached: int = 0


def sweep(p_values, lam_values, m_rule, mode: str = "exact", seed: int = 0,
          budget: int = 0, workers: int = 1, cache_dir=None) -> SweepReport:
    """One result per (p, lam, m) cell, deterministic order, cached by task
    digest.  m_rule is an iterable of m values or a callable p -> iterable.
    Per-cell errors are recorded and the sweep continues."""
    from . import cache as cache_mod

    report = SweepReport(tasks=[], results=[], errors=[])
    for p in p_values:
        ms = list(m_rule(p)) if callable(m_rule) else list(m_rule)
        for lam in lam_values:
            for m in ms:
                try:
                    task = SearchTask(p=p, lam=lam, m=m, mode=mode,
                                      seed=seed, budget=budget)
                except (ValueError, ScaleCapError) as exc:
                    report.errors.append(
                        {"p": p, "lambda": lam, "m": m, "error": str(exc)})
                    continue
                cached = None
                if cache_dir is not None:
                    cached = cache_mod.load_outputs(cache_dir, "search", task.digest())
                if cached is not None:
                    result = SearchResult.from_json_dict(cached)
                    report.cached += 1
                else:
                    try:
                        result = run_task(task, workers=workers)
                    except (ValueError, ScaleCapError) as exc:
                        report.errors.append(
                            {"p": p, "lambda": lam, "m": m, "error": str(exc)})
                        continue
                    report.computed += 1
                    if cache_dir is not None:
                        cache_mod.store_experiment(
                            cache_dir, "search", task.digest(),
                            result.to_json_dict(task))
                report.tasks.append(task)
                report.results.append(result)
    return report


CSV_HEADER = "p,lambda,m,alpha,min_size,min_over_p,exact,witness"


def sweep_rows(report: SweepReport) -> list[dict]:
    return [r.to_json_dict(t) for t, r in zip(report.tasks, report.results)]


def _csv_row(row: dict) -> str:
    task = row["task"]
    return ",".join([
        str(task["p"]), str(task["lambda"]), str(task["m"]), row["alpha"],
        str(row["min_size"]), row["min_over_p"],
        "true" if row["exact"] else "false", '"' + row["witness"] + '"',
    ])


def rows_csv(rows: list[dict]) -> str:
    """Render search-result JSON dicts, as built by SearchResult.to_json_dict,
    as CSV (fixed header, LF newlines, exact rationals)."""
    return "\n".join([CSV_HEADER, *map(_csv_row, rows)]) + "\n"


def sweep_csv(report: SweepReport) -> str:
    """Render a sweep as CSV, one row per cell in sweep order."""
    return rows_csv(sweep_rows(report))
