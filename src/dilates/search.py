"""Minimization of |A + lam*A| over m-subsets of Z/pZ.

Exact mode needs one set per affine orbit {u*A + v}, as the objective is
affine-invariant, and every orbit meets the sets through the anchor
{0, 1}: for members x != y, z -> (z - x) / (y - x) sends A to such a set.
So the least (size, sorted tuple) pair over those anchored sets answers
a cell, and is canonical without a test.  A forced cell's answer is its
first anchored set {0, ..., m-1}; every other cell is walked by a serial
branch and bound (_branch_and_bound) over the C(p-2, m-2) sets
{0, 1} + (an (m-2)-subset of 2..p-1) in lexicographic order (see
exact_min_dilate_sumset).  Each new member adds two shifts, folded once
mod p, to its prefix's partial sum.  The walk prunes every prefix whose
partial sum already has as many members as the best set so far.
classes_enumerated, the orbit count, comes from Burnside's lemma
(_orbit_count).

Heuristic mode is plain seeded simulated annealing over single-element
swaps and only ever reports an upper bound.  It scores each swap on
bitvectors, as the exact walk does (_dilate_sum_size).
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lgamma, log, log2

from .checks import _num
from .errors import ScaleCapError
from .residues import (ResidueSet, _integer, _integer_fields, canonical_form, dilate_sum,
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
    "decode_entry",
    "CSV_HEADER",
]

_SCAN_CAP = 10**8  # most anchored sets of a walked cell
_FORCED_CAP = 1 << 34  # largest m*p of a forced cell: bounds its orbit count and witness
_MODES = ("exact", "heuristic")
_MODE_ERROR = f"mode must be {'|'.join(_MODES)}, got {{!r}}"


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
        if not (type(self.p) is type(self.lam) is type(self.m) is type(self.seed)
                is type(self.budget) is int and self.budget >= 0):  # plain ints skip the calls
            _integer_fields(self, "p", "lam", "m", "seed")
            object.__setattr__(self, "budget", _integer(self.budget, "budget", 0))
        require_prime(self.p)
        if not 1 <= self.m <= self.p:
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.mode not in _MODES:
            raise ValueError(_MODE_ERROR.format(self.mode))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "lambda": self.lam, "m": self.m, "mode": self.mode,
                "seed": self.seed, "budget": self.budget}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchTask":
        return cls(p=data["p"], lam=data["lambda"], m=data["m"], mode=data["mode"],
                   seed=data["seed"], budget=data["budget"])

    def digest(self) -> str:
        """The task's cache key, cache.key of its JSON form."""
        return self._key

    @functools.cached_property
    def _key(self) -> str:
        # computed once per task, as a warm sweep asks for it per row;
        # lazily, so importing dilates loads no cache code
        from . import cache

        return cache.key(self.to_json_dict())


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one task; witness is always in canonical form."""

    min_size: int
    witness: ResidueSet
    classes_enumerated: int
    exact: bool

    def to_json_dict(self, task: SearchTask) -> dict:
        return {
            "task": task.to_json_dict(),
            "task_digest": task.digest(),
            "alpha": f"{task.m}/{task.p}",  # unreduced: m = p gives "p/p"
            "min_size": self.min_size,
            "min_over_p": _num(Fraction(self.min_size, task.p)),
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
        )


def decode_entry(data: dict, key: str,
                 task: SearchTask | None = None) -> tuple[SearchTask, SearchResult]:
    """(task, result) of a search cache entry filed under key, as
    SearchResult.to_json_dict writes it; raises on any other shape, and
    unless its task_digest, key and its task's key agree.  The one decoder
    of the "search" cache kind, so every reader accepts and rejects the
    same entries.  An entry of task, the task it was looked up for, yields
    task, whose key is known already."""
    entry_task = SearchTask.from_json_dict(data["task"])
    task = task if entry_task == task else entry_task
    if not data["task_digest"] == key == task.digest():
        raise ValueError(f"task_digest, key {key!r} and the task's key disagree")
    return task, SearchResult.from_json_dict(data)


def _branch_and_bound(p: int, lam: int, m: int) -> tuple[int, tuple[int, ...]]:
    """Least (|A + lam*A|, A) over the anchored m-sets A, as sorted tuples.

    Walks the sets through {0, 1}[:m] in lexicographic order with an
    explicit stack, as a recursion would be m deep.  Depth d holds the
    prefix elems[:d] as bitvectors P, L = lam*P and S = P + lam*P, so
    adding x ORs in two shifts, L + x and (P | x) + lam*x, folded once
    mod p: each is below 2^(2p - 1).  |S|
    only grows along a branch, so a child with |S| >= best is pruned:
    every set below it scores at least best and comes later in
    lexicographic order than the set that set best.

    The walk has no floor stop.  exact_min_dilate_sumset walks only cells
    with m >= 3, lam != 0, +-1 mod p and 2m - 1 <= p - 2, and there no set
    attains the Cauchy-Davenport floor 2m - 1.  By Vosper's theorem such a
    set would make A and lam*A progressions with one common difference d.
    But lam*A has difference lam*d, and an m-term progression with
    2 <= m <= p - 2 fixes its difference up to sign, so lam = +-1.
    """
    lam %= p
    full = (1 << p) - 1
    top = [d if d < 2 else p - m + d for d in range(m)]  # last element at depth d
    elems = [0] * m
    P, L, S, nxt = [0] * m, [0] * m, [0] * m, [0] * m
    best, witness = p + 1, ()
    depth = 0
    while depth >= 0:
        x = nxt[depth]
        if x > top[depth]:
            depth -= 1
            continue
        nxt[depth] = x + 1
        lx = lam * x % p
        p_x = P[depth] | 1 << x
        t = S[depth] | L[depth] << x | p_x << lx
        s_x = (t | t >> p) & full
        size = s_x.bit_count()
        if size >= best:
            continue
        elems[depth] = x
        if depth + 1 == m:
            best, witness = size, tuple(elems)
            continue
        depth += 1
        P[depth], L[depth], S[depth], nxt[depth] = p_x, L[depth - 1] | 1 << lx, s_x, x + 1
    return best, witness


def _floor(p: int, lam: int, m: int) -> int:
    """min(p, 2m - 1) by Cauchy-Davenport when lam is a unit, m when p | lam."""
    return m if lam % p == 0 else min(p, 2 * m - 1)


def _orbit_count(p: int, m: int) -> int:
    """Number of orbits of the affine group AGL(1, p) on m-subsets of Z/pZ.

    Burnside: the orbit count is the mean number of sets fixed by a group
    element.  The identity fixes all C(p, m).  A translation z -> z + v,
    v != 0, has the single cycle Z/pZ, so it fixes only the sets of size
    0 or p, which have one orbit and are answered directly.  Every other
    map z -> u*z + v, u != 1, is z -> u*(z - c) + c for its one fixed
    point c, with p of them per u; its other points fall into (p-1)/d
    cycles of length d = ord(u).  A fixed set is a union of cycles, with
    or without c, so for d > 1 there are C((p-1)/d, m // d) of them when
    m mod d is 0 or 1 and none otherwise.  There are phi(d) units of each
    order d | p-1, and the group has p(p-1) elements.  For m >= 2 no
    d > m has m mod d in {0, 1}, so only d <= m are summed; m <= 1 gives
    one orbit, as the group is transitive on points.
    """
    if m <= 1 or m == p:
        return 1
    fixed = comb(p, m)
    for d in range(2, m + 1):
        if (p - 1) % d == 0 and m % d <= 1:
            phi = sum(gcd(j, d) == 1 for j in range(d))
            fixed += p * phi * comb((p - 1) // d, m // d)
    return fixed // (p * (p - 1))


def exact_min_dilate_sumset(task: SearchTask) -> SearchResult:
    """Global minimum of |A + lam*A| over all m-subsets of Z/pZ.

    A forced cell, with m <= 2 (one orbit), lam = 0 or +-1 mod p, or
    2m - 1 >= p, is answered by its first anchored set {0, ..., m-1}: for
    m >= 3 that set attains _floor, as an interval does, and no set can
    beat it.  A forced cell with m*p over _FORCED_CAP, or whose orbit
    count str, and so JSON, cannot write, is refused.  Any other cell with
    more than _SCAN_CAP anchored sets is refused before any work, and the
    rest return the least (size, sorted tuple) pair of _branch_and_bound.
    Either way the witness W is the least such pair over the anchored sets,
    so canonical: its canonical form C is anchored, no later than W in
    lexicographic order and of equal size (the objective is
    affine-invariant), so C = W.
    """
    if task.mode != "exact":
        raise ValueError("task.mode must be 'exact'")
    p, lam, m = task.p, task.lam % task.p, task.m
    if m <= 2 or lam in (0, 1, p - 1) or 2 * m - 1 >= p:
        if m * p > _FORCED_CAP:
            raise ScaleCapError(f"m*p = {m * p} exceeds cap {_FORCED_CAP}; use heuristic mode")
        # log2 C(p, m)/(p(p - 1)) <= log2 of the count: a count a digit or
        # more past str()'s limit is refused unbuilt, and nearer it str()
        # decides, raising ValueError past the limit
        bits = (lgamma(p + 1) - lgamma(m + 1) - lgamma(p - m + 1)) / log(2) - log2(p * (p - 1))
        try:
            if (limit := sys.get_int_max_str_digits()) and bits >= (limit + 1) * log2(10):
                raise ValueError
            str(classes := _orbit_count(p, m))
        except ValueError:
            raise ScaleCapError(f"~{math.floor(bits) + 1}-bit orbit count unwritable") from None
        size = (_floor(p, lam, m) if m >= 3 else
                len({(x + lam * y) % p for x in range(m) for y in range(m)}))
        return SearchResult(size, ResidueSet(p, (1 << m) - 1), classes, exact=True)
    if (sets := comb(p - 2, m - 2)) > _SCAN_CAP:
        raise ScaleCapError(f"{sets} anchored sets exceed cap {_SCAN_CAP}; use heuristic mode")
    best_size, best_witness = _branch_and_bound(p, lam, m)
    return SearchResult(best_size, ResidueSet.from_elements(p, best_witness),
                        _orbit_count(p, m), exact=True)


def exact_min_reference(p: int, lam: int, m: int) -> int:
    """No-pruning oracle: scan every one of the C(p, m) subsets."""
    require_prime(p)
    return min(len(dilate_sum(ResidueSet.from_elements(p, combo), lam))
               for combo in combinations(range(p), m))


def _dilate_sum_size(p: int, lam: int, members) -> int:
    """|A + lam*A| for A the residues in members, each in [0, p).

    Annealing's objective: lam*A is the OR of 1 << (lam*x mod p), and
    A + lam*A the OR of lam*A shifted up by each member x < p, folded
    once mod p.  len(dilate_sum(...)) is its test oracle."""
    lam %= p
    dil = 0
    for x in members:
        dil |= 1 << (lam * x % p)
    total = 0
    for x in members:
        total |= dil << x
    return ((total | total >> p) & ((1 << p) - 1)).bit_count()


def heuristic_min_dilate_sumset(task: SearchTask) -> SearchResult:
    """Seeded annealing upper bound; result never improves on the exact
    minimum and never worsens as the budget grows (best-so-far)."""
    if task.mode != "heuristic":
        raise ValueError("task.mode must be 'heuristic'")
    p, lam, m = task.p, task.lam, task.m
    rng = random.Random(task.seed)

    current = list(range(m))
    moved = {}  # the members outside current: moved.get(j, m + j) for j < p - m

    cur_val = _dilate_sum_size(p, lam, current)
    best_members = tuple(current)
    best_val = cur_val
    evaluations = 1
    temperature = float(m)  # T_0 = m, geometric cooling by 0.999 per move
    for _ in range(task.budget if m < p else 0):
        i = rng.randrange(m)
        j = rng.randrange(p - m)
        current[i], moved[j] = moved.get(j, m + j), current[i]
        val = _dilate_sum_size(p, lam, current)
        evaluations += 1
        delta = val - cur_val
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            cur_val = val
            if val < best_val:
                best_val = val
                best_members = tuple(sorted(current))
        else:
            current[i], moved[j] = moved[j], current[i]  # revert
        temperature *= 0.999

    witness = canonical_form(ResidueSet.from_elements(p, best_members))
    return SearchResult(best_val, witness, evaluations, exact=False)


def solve_cell(task: SearchTask, cache_dir=None) -> tuple[SearchResult, bool]:
    """(result, cached) for one cell: the cache entry under the task's key
    if it decodes, so holds this task's result, else the exact or heuristic
    search, whose result is then stored.  cache_dir None skips the cache."""
    from . import cache as cache_mod

    if cache_dir is not None:
        cached = cache_mod.load_outputs(cache_dir, "search", task.digest(),
                                        functools.partial(decode_entry, task=task))
        if cached is not None:
            return cached[1], True
    if task.mode == "exact":
        result = exact_min_dilate_sumset(task)
    else:
        result = heuristic_min_dilate_sumset(task)
    if cache_dir is not None:
        cache_mod.store_experiment(cache_dir, "search", task.digest(),
                                   result.to_json_dict(task))
    return result, False


@dataclass
class SweepReport:
    """All cells of a sweep, plus bookkeeping that stays out of the
    serialized outputs so reruns are byte-identical."""

    tasks: list[SearchTask]
    results: list[SearchResult]
    errors: list[dict]
    computed: int = 0
    cached: int = 0


def sweep(p_values, lam_values, m_values, mode: str = "exact", seed: int = 0,
          budget: int = 0, cache_dir=None) -> SweepReport:
    """One result per (p, lam, m) cell, deterministic order, cached by task
    digest.  Per-cell errors are recorded and the sweep continues; a bad
    mode, seed or budget, shared by every cell, raises before any cell runs."""
    if mode not in _MODES:
        raise ValueError(_MODE_ERROR.format(mode))
    seed, budget = _integer(seed, "seed"), _integer(budget, "budget", 0)
    report = SweepReport(tasks=[], results=[], errors=[])
    m_values = list(m_values)
    for p in p_values:
        for lam in lam_values:
            for m in m_values:
                try:
                    task = SearchTask(p=p, lam=lam, m=m, mode=mode,
                                      seed=seed, budget=budget)
                    result, cached = solve_cell(task, cache_dir)
                except (ValueError, ScaleCapError) as exc:
                    report.errors.append(
                        {"p": p, "lambda": lam, "m": m, "error": str(exc)})
                    continue
                if cached:
                    report.cached += 1
                else:
                    report.computed += 1
                report.tasks.append(task)
                report.results.append(result)
    return report


CSV_HEADER = "p,lambda,m,alpha,min_size,min_over_p,exact,witness"


def sweep_rows(report: SweepReport) -> list[dict]:
    return [r.to_json_dict(t) for t, r in zip(report.tasks, report.results)]


def sweep_csv(report: SweepReport) -> str:
    """Render a sweep as CSV: the fixed header, then one row per cell in
    sweep order with the values of its JSON row, LF newlines."""
    return _rows_csv(sweep_rows(report))


def _rows_csv(rows: list[dict]) -> str:
    """sweep_csv of the report whose sweep_rows are rows."""
    lines = [CSV_HEADER]
    for row in rows:
        task = row["task"]
        lines.append(f'{task["p"]},{task["lambda"]},{task["m"]},{row["alpha"]},'
                     f'{row["min_size"]},{row["min_over_p"]},'
                     f'{"true" if row["exact"] else "false"},"{row["witness"]}"')
    return "\n".join(lines) + "\n"
