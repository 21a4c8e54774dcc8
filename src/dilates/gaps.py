"""Generalized arithmetic progressions over Z/pZ.

A progression P = {a + sum n_i v_i : 0 <= n_i < k_i} is proper when all
nominal_size = prod k_i combinations land on distinct residues.  P expands
as the sum {a} + v_1*{0..k_1-1} + ..., one residues.sumset per generator.
The module also has the large-step truncation P' (keep only generators with
k_i >= lam), the lambda-power span containment check, and a small-scale
exhaustive finder for the largest proper progression inside a given set.

The finder (p <= 101, dimension <= 2) works on numpy arrays.  One run
table, runs[v][x] = the number of consecutive members x, x+v, ..., serves
both dimensions; the 1-dim best is one argmax over it.  The 2-dim search
runs once per first length k1, over every (v1, a) with a k1-run and every
v2 at once.  It tests properness of a candidate (v1, v2; k1, k2) without
expanding it: with r = v2/v1 mod p and ||x|| = min(x mod p, p - x mod p),
it is proper iff ||j*r|| >= k1 for every 1 <= j < k2, because a collision
is (i-i')*v1 == J*v2 with |i-i'| < k1 < p and 0 < |J| < k2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

import numpy as np

from .checks import IneqReport
from .errors import ScaleCapError
from .residues import (ResidueSet, _bits_to_mask, _fields, _integer, _integer_fields, _ints,
                       dilate, iterated_sumset, linear_form, require_prime, sumset)

__all__ = [
    "Gap",
    "expand",
    "is_proper",
    "truncate_to_large_steps",
    "lambda_span_check",
    "find_max_proper_gap",
]

_EXPAND_CAP = 1 << 26
_FINDER_MAX_P = 101
_FINDER_MAX_DIM = 2


@dataclass(frozen=True)
class Gap:
    """A generalized arithmetic progression with explicit base, generators
    and lengths.  Degenerate data (k_i = 1 terms, repeated generators) is
    legal; zero generators are rejected only when their length exceeds 1."""

    modulus: int
    base: int
    generators: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        _integer_fields(self, "modulus", "base")
        for name, low in (("generators", None), ("lengths", 1)):
            object.__setattr__(self, name, tuple(_integer(x, f"every entry of {name}", low)
                                                 for x in getattr(self, name)))
        require_prime(self.modulus)
        if len(self.generators) != len(self.lengths):
            raise ValueError("generators and lengths must have equal arity")
        if not 0 <= self.base < self.modulus:
            raise ValueError("base out of range")
        for v, k in zip(self.generators, self.lengths):
            if not 0 <= v < self.modulus:
                raise ValueError(f"generator {v} out of range")
            if v == 0 and k >= 2:
                raise ValueError("zero generator with length >= 2")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def nominal_size(self) -> int:
        return prod(self.lengths)

    @classmethod
    def parse(cls, text: str) -> "Gap":
        """Parse ``p=<p>;a=<a>;v=[v1,..];k=[k1,..]``."""
        p, a, v, k = _fields(text, "gap", "p", "a", "v", "k")
        return cls(int(p), int(a), *(_ints(x, "[]", "list in gap literal") for x in (v, k)))

    def format(self) -> str:
        v = ",".join(map(str, self.generators))
        k = ",".join(map(str, self.lengths))
        return f"p={self.modulus};a={self.base};v=[{v}];k=[{k}]"


def expand(gap: Gap) -> ResidueSet:
    """All residues the progression represents: {a} plus, per generator v,
    one sumset with the run {0..min(k, p) - 1} dilated by v."""
    if gap.nominal_size > _EXPAND_CAP:
        raise ScaleCapError(f"nominal size {gap.nominal_size} exceeds cap {_EXPAND_CAP}")
    p = gap.modulus
    total = ResidueSet(p, 1 << gap.base)
    for v, k in zip(gap.generators, gap.lengths):
        total = sumset(total, dilate(ResidueSet(p, (1 << min(k, p)) - 1), v))
    return total


def is_proper(gap: Gap) -> bool:
    """True iff all nominal_size combinations are distinct residues."""
    return gap.nominal_size <= gap.modulus and len(expand(gap)) == gap.nominal_size


def truncate_to_large_steps(gap: Gap, lam: int) -> Gap:
    """The base-0 sub-progression on the generators with k_i >= lam.

    Generator/length pairs are ordered by descending length (ties keep the
    original order).  For proper input the truncation keeps at least a
    1/lam^(d-m) fraction of the elements, m being the number of survivors.
    """
    lam = _integer(lam, "lam", 2)
    order = sorted(range(gap.dimension), key=lambda i: (-gap.lengths[i], i))
    kept = [i for i in order if gap.lengths[i] >= lam]
    if not kept:
        raise ValueError(f"no generator has length >= {lam}")
    return Gap(gap.modulus, 0,
               tuple(gap.generators[i] for i in kept),
               tuple(gap.lengths[i] for i in kept))


def lambda_span_check(gap: Gap, lam: int, exponent: int) -> IneqReport:
    """Verify P' + lam*P' + ... + lam^d*P' contains the lam^d-fold sumset
    of P', for a truncation P' whose lengths all satisfy k_i >= lam.

    lhs/rhs are the two cardinalities; holds is the set containment.
    Details report whether the right side already fills Z/pZ and the
    Cauchy-Davenport floor min(lam^d (|P'| - 1) + 1, p) that forces it.
    """
    lam, exponent = _integer(lam, "lam", 2), _integer(exponent, "exponent", 0)
    if any(k < lam for k in gap.lengths):
        raise ValueError("span check requires every length >= lam")
    # lam >= 2, so lam**exponent passes the cap once exponent reaches its
    # bit length: refuse that before building the power
    if (exponent >= _EXPAND_CAP.bit_length()
            or lam**exponent * gap.nominal_size > _EXPAND_CAP):
        raise ScaleCapError("span check exceeds nominal-size cap: "
                            "lambda^exponent * nominal size > 2^26")
    p = gap.modulus
    base = expand(gap)
    lhs_set = linear_form(base, {lam**j: 1 for j in range(exponent + 1)})
    rhs_set = iterated_sumset(base, lam**exponent)
    holds = rhs_set.is_subset(lhs_set)
    floor = min(lam**exponent * (len(base) - 1) + 1, p)
    details = (
        ("rhs_fills_group", str(len(rhs_set) == p).lower()),
        ("cd_floor", str(floor)),
    )
    return IneqReport(
        inequality="lambda-power-span",
        lhs=len(lhs_set), rhs=len(rhs_set), holds=holds,
        slack=len(lhs_set) - len(rhs_set), details=details,
        inputs=(gap, lam, exponent),
    )


def _run_tables(s: ResidueSet, half: int) -> np.ndarray:
    """runs[v][x] = number of consecutive members x, x+v, ... of s (capped
    at p), for every generator 1 <= v <= half, as a (half + 1, p) uint8
    array (row 0 is unused, and zero unless s is full).  Every v-cycle is walked backwards from one
    non-member z in a single pass: along the walk, a run is the count of
    members so far minus that count at the last non-member passed."""
    p = s.modulus
    if len(s) == p:
        return np.full((half + 1, p), p, dtype=np.uint8)
    inside = _bits_to_mask(p, s.bits)
    z = int(np.argmin(inside))
    walk = (z + np.arange(1, half + 1)[:, None] * np.arange(p - 1, -1, -1)) % p
    step_in = inside[walk]
    seen = np.cumsum(step_in, axis=1)
    at_gap = np.maximum.accumulate(np.where(step_in, 0, seen), axis=1)
    runs = np.zeros((half + 1, p), dtype=np.uint8)
    np.put_along_axis(runs[1:], walk, (seen - at_gap).astype(np.uint8), axis=1)
    return runs


@lru_cache(maxsize=None)
def _ratio_table(p: int) -> np.ndarray:
    """table[r, k1] = the least j >= 1 with ||j*r|| < k1, for 1 <= r < p and
    1 <= k1 <= p (0 elsewhere): by the rule in the module docstring, the
    largest k2 with Gap(p, a, (v1, r*v1), (k1, k2)) proper.  One binary
    search over every row's running minima m_r(j) of ||j*r||, stored as
    r*(p+1) - m_r(j) so that one flat array ascends through all rows.
    Entries are at most p <= 101, so the table is uint8."""
    r = np.arange(1, p)[:, None]
    x = r * np.arange(1, p + 1) % p
    keys = r * (p + 1) - np.minimum.accumulate(np.minimum(x, p - x), axis=1)
    at = np.searchsorted(keys.ravel(), r * (p + 1) - np.arange(1, p + 1), side="right")
    table = np.zeros((p, p + 1), dtype=np.uint8)
    table[1:, 1:] = at - (r - 1) * p + 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _level_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-prime gathers of the 2-dim search, h = (p-1)/2:
    steps[j][a, v2] = (a + j*v2) mod p for 0 <= j < isqrt(p), as int16
    (a k1 level reads rows j < k2 <= isqrt(p)), and limits[k1, v1, v2] =
    _ratio_table(p)[v2/v1 mod p][k1], the largest proper k2, for
    0 <= k1 <= p/2 and 0 <= v1, v2 <= h, as uint8 (0 where v1 or v2 is 0,
    so generator 0 is never offered)."""
    half = (p - 1) // 2
    by_k1 = np.zeros((p // 2 + 1, p), dtype=np.uint8)  # by_k1[k1][r]
    by_k1[:, 1:] = _ratio_table(p)[1:, :p // 2 + 1].T
    gens = np.arange(half + 1, dtype=np.int16)
    inverses = np.array([0] + [pow(v, -1, p) for v in range(1, half + 1)], dtype=np.int16)
    steps = (np.arange(p, dtype=np.int16)[:, None]
             + np.arange(isqrt(p), dtype=np.int16)[:, None, None] * gens) % p
    return steps, np.take(by_k1, inverses[:, None] * gens % p, axis=1)


def find_max_proper_gap(s: ResidueSet, d_max: int) -> Gap:
    """Exhaustive search for a largest proper progression inside s.

    Brute force only: requires p <= 101 and d_max <= 2.  Generators are
    normalized to 1 <= v <= (p-1)/2 (sign flips preserve the represented
    set) and 2-dim candidates to k_1 >= k_2; ties between maximizers are
    broken by smaller dimension, then lexicographically least (a, v, k),
    i.e. the least key (-k_1*k_2, dimension, a, v, k).

    Every candidate is accounted for, level by level in k1.  One run table
    per generator serves both dimensions, and the 1-dim best is its first
    maximum in (a, v) order.  A k1 level takes every (v1, a) whose run
    reaches k1 and every v2 in bulk.  Properness of (v1, v2; k1, k2) is
    read from ``_ratio_table`` for r = v2/v1 mod p: it holds iff
    min_{1 <= j < k2} ||j*r|| >= k1, with ||x|| = min(x mod p, p - x mod p),
    since a collision is (i-i')*v1 == J*v2 with |i-i'| < k1 < p and
    0 < |J| < k2.  Properness is monotone in k2 and a larger k2 is strictly
    better, so only the largest k2 that is proper and whose rows a + j*v2
    (j < k2) each hold a k1-run is offered per (a, v1, v2, k1); it is found
    by extending the survivors of row j to row j + 1.  So each level
    offers, as arrays, the candidates a loop over (v1, a, v2) would offer
    one at a time, and its least key is compared with the incumbent's under
    the same key: the result is the least key over all candidates.  Levels
    run largest possible area k1*cap2 first, and a level whose largest
    area cannot beat the incumbent is skipped, as none of its candidates
    could win.
    """
    p, d_max = s.modulus, _integer(d_max, "d_max", 1)
    require_prime(p)
    if p > _FINDER_MAX_P or d_max > _FINDER_MAX_DIM:
        raise ScaleCapError(f"finder limited to p <= {_FINDER_MAX_P}, d <= {_FINDER_MAX_DIM}")
    if s.bits == 0:
        raise ValueError("empty set contains no progression")
    elements = s.elements()
    size = len(elements)
    if size == 1:
        return Gap(p, elements[0], (0,), (1,))

    half = 1 if p == 2 else (p - 1) // 2
    runs = _run_tables(s, half)
    members = np.array(elements)
    # dimension 1: for a prime modulus any v != 0, k <= p progression is
    # proper; the first maximum in (a, v) order is the least key
    i, v = divmod(int(np.argmax(runs[1:, members].T)), half)
    k = int(runs[v + 1, members[i]])
    best_key = (-k, 1, elements[i], (v + 1,), (k,))
    # dimension 2, unless a progression found above already covers all of s
    if k < size and d_max >= 2:
        steps, limits = _level_tables(p)
        levels = [(k1, min(k1, size // k1, p // k1)) for k1 in range(2, k + 1)]
        # largest possible area first, so an early incumbent prunes the rest
        for k1, cap2 in sorted(levels, key=lambda level: -level[0] * level[1]):
            if cap2 < 2 or (-k1 * cap2, 2) > best_key[:2]:
                continue
            holds = runs >= k1  # holds[v][x]: x starts a k1-run of generator v
            v1, i = np.nonzero(holds[:, members])
            a = members[i]
            cap = np.minimum(limits[k1][v1], cap2)
            c, v2 = np.nonzero((cap >= 2) & holds[v1[:, None], steps[1][a]])
            if not len(c):
                continue
            v1, a, cap = v1[c], a[c], cap[c, v2]
            k2 = np.full(len(c), 2)
            grow = np.arange(len(c))
            for j in range(2, cap2):
                grow = grow[cap[grow] > j]
                grow = grow[holds[v1[grow], steps[j][a[grow], v2[grow]]]]
                k2[grow] = j + 1
            # within a level the area is k1*k2: order by (-area, a, v1, v2)
            w = np.lexsort((v2, v1, a, -k2))[0]
            key = (-k1 * int(k2[w]), 2, int(a[w]), (int(v1[w]), int(v2[w])), (k1, int(k2[w])))
            if key < best_key:
                best_key = key
    _, _, a, vs, ks = best_key
    return Gap(p, a, vs, ks)
