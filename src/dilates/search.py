"""Minimization of |A + lam*A| over m-subsets of Z/pZ.

Exact mode needs one set per affine orbit {u*A + v}, as the objective is
affine-invariant, and every orbit meets the sets through the anchor
{0, 1}: for members x != y, z -> (z - x) / (y - x) sends A to such a set.
So a serial branch and bound (_branch_and_bound) walks the C(p-2, m-2)
sets {0, 1} + (an (m-2)-subset of 2..p-1), and {0} alone for m = 1, in
lexicographic order.  Each new member adds two shifts, folded once
mod p, to its prefix's partial sum.  The walk prunes every prefix whose
partial sum already has as many members as the best set so far, and
stops at the Cauchy-Davenport floor.  It keeps the least (size, sorted
tuple) pair, which is canonical without a test (see
exact_min_dilate_sumset).
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

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

_SCAN_CAP = 10**8
# The walk keeps P, L and S, up to p bits each, at each of m depths: a cell
# with 3*m*p over this many bits is refused unless it is forced, as past
# _SCAN_CAP.  Only cells with m near p reach it, whose floor is p.
_WALK_BITS = 1 << 30
_FORCED_CAP = 1 << 17  # largest p of a forced cell answered past either cap
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
    lexicographic order than the set that set best.  The walk stops once
    best reaches _floor, the size no set can beat.
    """
    lam %= p
    full = (1 << p) - 1
    floor = _floor(p, lam, m)
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
            if best == floor:
                break
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

    A cell with more than _SCAN_CAP sets through the anchor {0, 1}[:k],
    k = min(m, 2), or whose walk would hold more than _WALK_BITS bits of
    prefix bitvectors, is refused before any work unless the walk's first leaf
    {0, ..., m-1} attains _floor, where the walk would stop: when lam = 0
    or +-1 mod p or the floor is p, and by Vosper's theorem in no other
    cell past the cap (m >= 3, p odd).  Such a forced cell is refused too
    if p > _FORCED_CAP, which bounds the orbit count's work, or if str,
    and so JSON, cannot write the count.  Any other cell returns the least
    (size, sorted tuple) pair of _branch_and_bound.  That witness W is
    canonical: its canonical form C is anchored, no later than W in
    lexicographic order and of equal size (the objective is
    affine-invariant), so the walk reached C first and C = W.
    """
    if task.mode != "exact":
        raise ValueError("task.mode must be 'exact'")
    p, m = task.p, task.m
    k = min(m, 2)
    sets = comb(p - k, m - k)
    if sets > _SCAN_CAP or 3 * m * p > _WALK_BITS:
        floor, lam = _floor(p, task.lam, m), task.lam % p
        if p > _FORCED_CAP or not (lam in (0, 1, p - 1) or floor == p):
            what = (f"{sets} anchored sets exceed cap {_SCAN_CAP}" if sets > _SCAN_CAP else
                    f"the walk's {3 * m * p} bits of prefixes exceed cap {_WALK_BITS}")
            raise ScaleCapError(f"{what}; use heuristic mode")
        try:
            str(classes := _orbit_count(p, m))  # past sys.get_int_max_str_digits(), ValueError
        except ValueError:
            raise ScaleCapError(f"{classes.bit_length()}-bit orbit count unwritable") from None
        return SearchResult(floor, ResidueSet(p, (1 << m) - 1), classes, exact=True)
    best_size, best_witness = _branch_and_bound(p, task.lam, m)
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
    outside = list(range(m, p))

    cur_val = _dilate_sum_size(p, lam, current)
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
        val = _dilate_sum_size(p, lam, current)
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
