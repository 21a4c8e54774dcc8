"""Generalized arithmetic progressions over Z/pZ.

A progression P = {a + sum n_i v_i : 0 <= n_i < k_i} is proper when all
nominal_size = prod k_i combinations land on distinct residues.  Besides
expansion and properness this module provides the large-step truncation
P' (keep only generators with k_i >= lam), the lambda-power span
containment check, and a small-scale exhaustive finder for the largest
proper progression inside a given set.

The finder (p <= 101, dimension <= 2) tests properness of a 2-dim
candidate (v1, v2; k1, k2) without expanding it: with r = v2/v1 mod p and
||x|| = min(x mod p, p - x mod p), it is proper iff ||j*r|| >= k1 for
every 1 <= j < k2, because a collision is (i-i')*v1 == J*v2 with
|i-i'| < k1 < p and 0 < |J| < k2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .checks import IneqReport, _digest
from .errors import ScaleCapError
from .residues import ResidueSet, dilate, iterated_sumset, require_prime, sumset

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
        require_prime(self.modulus)
        if len(self.generators) != len(self.lengths):
            raise ValueError("generators and lengths must have equal arity")
        if not 0 <= self.base < self.modulus:
            raise ValueError("base out of range")
        for v, k in zip(self.generators, self.lengths):
            if not 0 <= v < self.modulus:
                raise ValueError(f"generator {v} out of range")
            if k < 1:
                raise ValueError(f"length {k} must be >= 1")
            if v == 0 and k >= 2:
                raise ValueError("zero generator with length >= 2")

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def nominal_size(self) -> int:
        return prod(self.lengths)

    @property
    def is_degenerate(self) -> bool:
        nontrivial = [v for v, k in zip(self.generators, self.lengths) if k >= 2]
        return len(set(nontrivial)) < len(nontrivial) or any(k == 1 for k in self.lengths)

    @classmethod
    def parse(cls, text: str) -> "Gap":
        """Parse ``p=<p>;a=<a>;v=[v1,..];k=[k1,..]``."""
        parts = text.strip().split(";")
        if len(parts) != 4 or not parts[0].startswith("p=") or not parts[1].startswith("a=") \
                or not parts[2].startswith("v=[") or not parts[3].startswith("k=["):
            raise ValueError(f"bad gap literal: {text!r}")

        def ints(body: str) -> tuple[int, ...]:
            body = body.strip()
            if not body.endswith("]"):
                raise ValueError(f"bad list in gap literal: {body!r}")
            inner = body[:-1].strip()
            return tuple(int(tok) for tok in inner.split(",")) if inner else ()

        return cls(int(parts[0][2:]), int(parts[1][2:]),
                   ints(parts[2][3:]), ints(parts[3][3:]))

    def format(self) -> str:
        v = ",".join(map(str, self.generators))
        k = ",".join(map(str, self.lengths))
        return f"p={self.modulus};a={self.base};v=[{v}];k=[{k}]"


def expand(gap: Gap, cap: int = _EXPAND_CAP) -> ResidueSet:
    """All residues the progression represents (with multiplicity collapsed)."""
    if gap.nominal_size > cap:
        raise ScaleCapError(f"nominal size {gap.nominal_size} exceeds cap {cap}")
    p = gap.modulus
    values = {gap.base}
    for v, k in zip(gap.generators, gap.lengths):
        values = {(x + j * v) % p for x in values for j in range(k)}
    return ResidueSet.from_elements(p, values)


def is_proper(gap: Gap, cap: int = _EXPAND_CAP) -> bool:
    """True iff all nominal_size combinations are distinct residues."""
    if gap.nominal_size > gap.modulus:
        return False
    return len(expand(gap, cap)) == gap.nominal_size


def truncate_to_large_steps(gap: Gap, lam: int) -> Gap:
    """The base-0 sub-progression on the generators with k_i >= lam.

    Generator/length pairs are ordered by descending length (ties keep the
    original order).  For proper input the truncation keeps at least a
    1/lam^(d-m) fraction of the elements, m being the number of survivors.
    """
    if lam < 2:
        raise ValueError("need lam >= 2")
    order = sorted(range(gap.dimension), key=lambda i: (-gap.lengths[i], i))
    kept = [i for i in order if gap.lengths[i] >= lam]
    if not kept:
        raise ValueError(f"no generator has length >= {lam}")
    return Gap(gap.modulus, 0,
               tuple(gap.generators[i] for i in kept),
               tuple(gap.lengths[i] for i in kept))


def lambda_span_check(gap: Gap, lam: int, exponent: int,
                      cap: int = _EXPAND_CAP) -> IneqReport:
    """Verify P' + lam*P' + ... + lam^d*P' contains the lam^d-fold sumset
    of P', for a truncation P' whose lengths all satisfy k_i >= lam.

    lhs/rhs are the two cardinalities; holds is the set containment.
    Details report whether the right side already fills Z/pZ and the
    Cauchy-Davenport floor min(lam^d (|P'| - 1) + 1, p) that forces it.
    """
    if lam < 2 or exponent < 0:
        raise ValueError("need lam >= 2 and exponent >= 0")
    if any(k < lam for k in gap.lengths):
        raise ValueError("span check requires every length >= lam")
    if lam**exponent * gap.nominal_size > cap:
        raise ScaleCapError("span check exceeds enumeration cap")
    p = gap.modulus
    base = expand(gap, cap)
    lhs_set = base
    for j in range(1, exponent + 1):
        lhs_set = sumset(lhs_set, dilate(base, pow(lam, j, p)))
    rhs_set = base if exponent == 0 else iterated_sumset(base, lam**exponent)
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
        inputs_digest=_digest(gap.format(), str(lam), str(exponent)),
    )


def _run_tables(s: ResidueSet, half: int) -> list[bytes]:
    """runs[v][x] = number of consecutive members x, x+v, ... of s (capped
    at p), for every generator 1 <= v <= half (row 0 is unused)."""
    p = s.modulus
    if len(s) == p:
        return [bytes([p]) * p] * (half + 1)
    inside = [s.bits >> x & 1 for x in range(p)]
    z = inside.index(0)
    runs = [b""]
    for v in range(1, half + 1):
        # v generates one p-cycle; walk it backwards from the non-member z
        run = bytearray(p)
        nxt = 0
        for x in [y % p for y in range(z + (p - 1) * v, z, -v)]:
            if inside[x]:
                nxt += 1
                run[x] = nxt
            else:
                nxt = 0
        runs.append(bytes(run))
    return runs


@lru_cache(maxsize=None)
def _ratio_table(p: int) -> tuple[bytes, ...]:
    """table[r][k1] = the least j >= 1 with ||j*r|| < k1, for 1 <= r < p and
    1 <= k1 <= p: by the rule in the module docstring, the largest k2 with
    Gap(p, a, (v1, r*v1), (k1, k2)) proper.  Entries are at most p <= 101,
    so each row is a bytes object."""
    table = [b""]
    for r in range(1, p):
        row = bytearray(p + 1)
        low = p  # min ||i*r|| over 1 <= i < j; rows k1 <= low are unresolved
        for j in range(1, p + 1):
            x = j * r % p
            norm = min(x, p - x)
            if norm < low:
                row[norm + 1:low + 1] = bytes([j]) * (low - norm)
                low = norm
        table.append(bytes(row))
    return tuple(table)


def find_max_proper_gap(s: ResidueSet, d_max: int) -> Gap:
    """Exhaustive search for a largest proper progression inside s.

    Brute force only: requires p <= 101 and d_max <= 2.  Generators are
    normalized to 1 <= v <= (p-1)/2 (sign flips preserve the represented
    set) and 2-dim candidates to k_1 >= k_2; ties between maximizers are
    broken by smaller dimension, then lexicographically least (a, v, k).

    Every candidate is accounted for.  One run table per generator serves
    both dimensions.  Properness of (v1, v2; k1, k2) is read from
    ``_ratio_table`` for r = v2/v1 mod p: it holds iff
    min_{1 <= j < k2} ||j*r|| >= k1, with ||x|| = min(x mod p, p - x mod p),
    since a collision is (i-i')*v1 == J*v2 with |i-i'| < k1 < p and
    0 < |J| < k2.  Properness is monotone in k2 and a larger k2 is strictly
    better, so only the largest proper k2 is offered per (a, v1, v2, k1);
    a (v1, a, k1) whose best possible key cannot beat the incumbent is
    skipped, as none of its candidates could win.
    """
    p = s.modulus
    require_prime(p)
    if p > _FINDER_MAX_P or d_max > _FINDER_MAX_DIM:
        raise ScaleCapError(f"finder limited to p <= {_FINDER_MAX_P}, d <= {_FINDER_MAX_DIM}")
    if d_max < 1:
        raise ValueError("need d_max >= 1")
    if s.bits == 0:
        raise ValueError("empty set contains no progression")
    elements = s.elements()
    size = len(elements)
    if size == 1:
        return Gap(p, elements[0], (0,), (1,))

    half = 1 if p == 2 else (p - 1) // 2
    gens = range(1, half + 1)
    runs = _run_tables(s, half)
    # dimension 1: for a prime modulus any v != 0, k <= p progression is proper
    best_key = min((-runs[v][a], 1, a, (v,), (runs[v][a],))
                   for v in gens for a in elements)
    # dimension 2, unless a progression found above already covers all of s
    if -best_key[0] < size and d_max >= 2:
        ratios = _ratio_table(p)
        for v1 in gens:
            run1 = runs[v1]
            inv = pow(v1, -1, p)
            limits = [(v2, ratios[v2 * inv % p]) for v2 in gens]
            for a in elements:
                for k1 in range(2, run1[a] + 1):
                    cap2 = min(k1, size // k1, p // k1)
                    if cap2 < 2 or (-k1 * cap2, 2, a, (v1, 1), (k1, cap2)) >= best_key:
                        continue
                    for v2, limit in limits:
                        # the largest k2 <= cap2 that is proper and whose rows
                        # a + j*v2 (j < k2) each support a k1-run
                        cap = limit[k1]
                        if cap > cap2:
                            cap = cap2
                        k2 = 1
                        while k2 < cap and run1[(a + k2 * v2) % p] >= k1:
                            k2 += 1
                        if k2 >= 2:
                            key = (-k1 * k2, 2, a, (v1, v2), (k1, k2))
                            if key < best_key:
                                best_key = key
    _, _, a, vs, ks = best_key
    return Gap(p, a, vs, ks)
