"""Exact interval arithmetic on the circle and the grid-to-residue pipeline.

Grid sets are encoded into unions of tiny intervals on T = R/Z via base-lam
digit expansion, the sum A + lam*A is computed exactly on interval sets,
and interval sets are discretized into Z/pZ.  Every endpoint is an integer
over a fixed denominator, so all comparisons in the claim chain

    |A' + lam*A'| / p  <=  mu(A + lam*A)  <=  measure(S')

are exact.  A violated link is an implementation bug, never a data issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import MathAssertionError, ScaleCapError
from .grids import GridSet, grid_projection_sumset
from .residues import Kernel, ResidueSet, dilate_sum, require_prime

__all__ = [
    "TorusIntervalSet",
    "encode_grid_to_intervals",
    "scale_intervals",
    "interval_dilate_sum",
    "discretize_to_zp",
    "ChainReport",
    "pipeline_check",
    "check_overflow_containment",
]

_ENCODE_CAP = 1 << 30   # largest denominator lam**n we will materialize
_PAIR_CAP = 10**6       # pairwise interval sums per Minkowski product


def _normalize(denominator: int, raw) -> tuple[tuple[int, int], ...]:
    """Sort/merge raw [a, b) pairs (integers over the denominator, already
    reduced into [0, D]) into the canonical disjoint non-adjacent form."""
    pairs = sorted(p for p in raw if p[0] < p[1])
    merged: list[list[int]] = []
    for a, b in pairs:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class TorusIntervalSet:
    """A finite union of half-open intervals [a/D, b/D) on the circle.

    Intervals are sorted, pairwise disjoint and non-adjacent; an arc
    crossing 0 is stored split at 0.
    """

    denominator: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        d = self.denominator
        if d < 1:
            raise ValueError(f"denominator must be positive, got {d}")
        prev_end = -1
        for a, b in self.intervals:
            if not (0 <= a < b <= d):
                raise ValueError(f"bad interval [{a}, {b}) over denominator {d}")
            if a <= prev_end:
                raise ValueError("intervals must be sorted, disjoint, non-adjacent")
            prev_end = b

    @classmethod
    def from_raw(cls, denominator: int, raw_pairs) -> "TorusIntervalSet":
        """Build from arbitrary integer pairs (a, b), a < b, reducing mod
        the denominator and splitting arcs that cross 0."""
        d = denominator
        reduced = []
        for a, b in raw_pairs:
            length = b - a
            if length <= 0:
                continue
            if length >= d:
                return cls.full(d)
            a %= d
            end = a + length
            if end <= d:
                reduced.append((a, end))
            else:
                reduced.append((a, d))
                reduced.append((0, end - d))
        return cls(d, _normalize(d, reduced))

    @classmethod
    def empty(cls, denominator: int) -> "TorusIntervalSet":
        return cls(denominator, ())

    @classmethod
    def full(cls, denominator: int) -> "TorusIntervalSet":
        return cls(denominator, ((0, denominator),))

    def measure(self) -> Fraction:
        return Fraction(sum(b - a for a, b in self.intervals), self.denominator)

    def is_empty(self) -> bool:
        return not self.intervals

    def rescale(self, new_denominator: int) -> "TorusIntervalSet":
        """Re-express over a denominator that is a multiple of the current one."""
        q, r = divmod(new_denominator, self.denominator)
        if r != 0 or q < 1:
            raise ValueError("new denominator must be a positive multiple")
        return TorusIntervalSet(new_denominator,
                                tuple((a * q, b * q) for a, b in self.intervals))

    def contains_set(self, other: "TorusIntervalSet") -> bool:
        """True iff other is a subset of self (exact, via common denominator)."""
        d = lcm(self.denominator, other.denominator)
        mine = self.rescale(d).intervals
        for a, b in other.rescale(d).intervals:
            # non-adjacent normalization means a covered interval sits inside
            # a single interval of mine
            if not any(x <= a and b <= y for x, y in mine):
                return False
        return True

    @classmethod
    def parse(cls, text: str) -> "TorusIntervalSet":
        """Parse ``D=<D>;[a1,b1);[a2,b2);...``."""
        parts = text.strip().split(";")
        if not parts or not parts[0].startswith("D="):
            raise ValueError(f"bad interval literal: {text!r}")
        d = int(parts[0][2:])
        pairs = []
        for chunk in parts[1:]:
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("[") and chunk.endswith(")")):
                raise ValueError(f"bad interval chunk: {chunk!r}")
            a, b = chunk[1:-1].split(",")
            pairs.append((int(a), int(b)))
        return cls(d, tuple(pairs))

    def format(self) -> str:
        body = ";".join(f"[{a},{b})" for a, b in self.intervals)
        return f"D={self.denominator};{body}" if body else f"D={self.denominator};"


def encode_grid_to_intervals(s: GridSet, size_cap: int = _ENCODE_CAP) -> TorusIntervalSet:
    """Map each grid cell x to the interval [y, y + lam^-n) with
    y = sum x_i lam^-i; the flattened cell index is exactly y * lam^n."""
    d = s.lam**s.dim
    if d > size_cap:
        raise ScaleCapError(f"lam^n = {d} exceeds encode cap {size_cap}")
    return TorusIntervalSet(d, _normalize(d, [(c, c + 1) for c in s.cells]))


def scale_intervals(a: TorusIntervalSet, lam: int) -> TorusIntervalSet:
    """lam * A on the circle: each interval maps to arcs of total length
    min(lam * len, 1), by exact endpoint multiplication."""
    if lam < 1:
        raise ValueError("need lam >= 1")
    d = a.denominator
    return TorusIntervalSet.from_raw(d, [(lam * x, lam * y) for x, y in a.intervals])


def _minkowski(a: TorusIntervalSet, b: TorusIntervalSet,
               pair_cap: int = _PAIR_CAP) -> TorusIntervalSet:
    if a.is_empty() or b.is_empty():
        return TorusIntervalSet.empty(a.denominator)
    if len(a.intervals) * len(b.intervals) > pair_cap:
        raise ScaleCapError("interval Minkowski sum exceeds pair cap")
    raw = [(x1 + x2, y1 + y2)
           for x1, y1 in a.intervals for x2, y2 in b.intervals]
    return TorusIntervalSet.from_raw(a.denominator, raw)


def interval_dilate_sum(a: TorusIntervalSet, lam: int,
                        pair_cap: int = _PAIR_CAP) -> TorusIntervalSet:
    """Exact A + lam*A on the circle."""
    if lam < 2:
        raise ValueError("need lam >= 2")
    return _minkowski(a, scale_intervals(a, lam), pair_cap)


def discretize_to_zp(a: TorusIntervalSet, p: int, check_prime: bool = True) -> ResidueSet:
    """A' = {0 <= r < p : [r/p, (r+1)/p) is inside A}, by integer inequalities
    r*D >= x*p and (r+1)*D <= y*p against each interval [x, y)."""
    if check_prime:
        require_prime(p)
    d = a.denominator
    bits = 0
    for x, y in a.intervals:
        lo = max(-((-x * p) // d), 0)         # ceil(x*p/d)
        hi = min((y * p) // d - 1, p - 1)     # largest r with (r+1)*d <= y*p
        if lo <= hi:
            bits |= ((1 << (hi - lo + 1)) - 1) << lo
    return ResidueSet(p, bits)


@dataclass(frozen=True)
class ChainReport:
    """Outcome of one run of the grid -> circle -> Z/pZ pipeline."""

    lam: int
    dim: int
    p: int
    grid_cells: int
    residue_density: Fraction            # |A'| / p
    residue_dilate_sum_density: Fraction  # |A' + lam*A'| / p
    interval_measure: Fraction           # mu(A)
    interval_dilate_sum_measure: Fraction  # mu(A + lam*A)
    grid_projection_measure: Fraction    # measure(S')
    discrete_within_continuous: bool     # |A'+lam*A'|/p <= mu(A+lam*A)
    continuous_within_grid: bool         # mu(A+lam*A) <= measure(S')
    interval_inside_grid_prediction: bool

    @property
    def all_hold(self) -> bool:
        return (self.discrete_within_continuous and self.continuous_within_grid
                and self.interval_inside_grid_prediction)

    def to_json_dict(self) -> dict:
        def frac(f: Fraction) -> str:
            return f"{f.numerator}/{f.denominator}"

        def dec(f: Fraction) -> str:
            return f"{float(f):.12g}"

        return {
            "lambda": self.lam,
            "dim": self.dim,
            "p": self.p,
            "grid_cells": self.grid_cells,
            "residue_density": frac(self.residue_density),
            "residue_density_decimal": dec(self.residue_density),
            "residue_dilate_sum_density": frac(self.residue_dilate_sum_density),
            "residue_dilate_sum_density_decimal": dec(self.residue_dilate_sum_density),
            "interval_measure": frac(self.interval_measure),
            "interval_measure_decimal": dec(self.interval_measure),
            "interval_dilate_sum_measure": frac(self.interval_dilate_sum_measure),
            "interval_dilate_sum_measure_decimal": dec(self.interval_dilate_sum_measure),
            "grid_projection_measure": frac(self.grid_projection_measure),
            "grid_projection_measure_decimal": dec(self.grid_projection_measure),
            "discrete_within_continuous": self.discrete_within_continuous,
            "continuous_within_grid": self.continuous_within_grid,
            "interval_inside_grid_prediction": self.interval_inside_grid_prediction,
        }


def check_overflow_containment(s: GridSet) -> bool:
    """Carry soundness: A + lam*A stays inside the cells predicted by the
    projection sumset, as interval sets over denominator lam^(n-1)."""
    a = encode_grid_to_intervals(s)
    summed = interval_dilate_sum(a, s.lam)
    prediction = encode_grid_to_intervals(grid_projection_sumset(s))
    return prediction.contains_set(summed)


def pipeline_check(s: GridSet, p: int, kernel: Kernel | None = None,
                   strict: bool = True) -> ChainReport:
    """Run the full chain for one grid set and verify both inequalities.

    With strict=True (default) a violated inequality raises
    MathAssertionError; the inequalities are theorems, so a violation
    means a kernel or interval bug.
    """
    require_prime(p)
    a = encode_grid_to_intervals(s)
    a_sum = interval_dilate_sum(a, s.lam)
    a_p = discretize_to_zp(a, p)
    a_p_sum = dilate_sum(a_p, s.lam, kernel)
    s_prime = grid_projection_sumset(s)

    report = ChainReport(
        lam=s.lam,
        dim=s.dim,
        p=p,
        grid_cells=len(s),
        residue_density=Fraction(len(a_p), p),
        residue_dilate_sum_density=Fraction(len(a_p_sum), p),
        interval_measure=a.measure(),
        interval_dilate_sum_measure=a_sum.measure(),
        grid_projection_measure=s_prime.measure(),
        discrete_within_continuous=Fraction(len(a_p_sum), p) <= a_sum.measure(),
        continuous_within_grid=a_sum.measure() <= s_prime.measure(),
        interval_inside_grid_prediction=encode_grid_to_intervals(s_prime).contains_set(a_sum),
    )
    if strict and not report.all_hold:
        raise MathAssertionError(f"pipeline chain violated: {report.to_json_dict()}")
    return report
