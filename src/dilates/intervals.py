"""Exact interval arithmetic on the circle and the grid-to-residue pipeline.

Grid sets are encoded into unions of tiny intervals on T = R/Z via base-lam
digit expansion, the sum A + lam*A is computed exactly on interval sets,
and interval sets are discretized into Z/pZ.  Every endpoint is an integer
over a fixed denominator, so all comparisons in the claim chain

    |A' + lam*A'| / p  <=  mu(A + lam*A)  <=  measure(S')

are exact.  A violated link is an implementation bug, never a data issue.

A set keeps its arcs as two ascending endpoint arrays, int64 while the
denominator allows and exact Python ints beyond, and every operation reads
those arrays: sorted cells become arcs by their runs, scaling multiplies
the endpoints, a Minkowski sum closes one operand per interval length of
the other, and containment is one binary search of the ends.  The tuple of
(start, end) pairs is a read-only view, built on first read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from math import lcm

import numpy as np

from .checks import _num_fields
from .errors import MathAssertionError, ScaleCapError
from .grids import GridSet, _projection_mask
from .residues import ResidueSet, dilate_sum, require_prime

__all__ = [
    "TorusIntervalSet",
    "encode_grid_to_intervals",
    "scale_intervals",
    "interval_dilate_sum",
    "discretize_to_zp",
    "ChainReport",
    "pipeline_check",
]

_ENCODE_CAP = 1 << 30   # largest denominator lam**n we will materialize
_PAIR_CAP = 10**6       # arcs a Minkowski sum forms before normalizing


def _endpoint_dtype(bound: int):
    """int64 while every number the normalization forms (at most 2*bound in
    magnitude) fits in it; exact Python ints (dtype=object) beyond that."""
    return np.int64 if bound < 1 << 62 else object


def _integer(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise TypeError(f"interval endpoints and denominators must be integers, got {value!r}")


def _denominator(value) -> int:
    d = _integer(value)
    if d < 1:
        raise ValueError(f"denominator must be positive, got {d}")
    return d


def _pair_array(d: int, pairs) -> np.ndarray:
    """The (a, b) pairs as an (n, 2) array, int64 while _endpoint_dtype
    allows for d and every |value|, exact Python ints beyond."""
    values = [_integer(v) for a, b in pairs for v in (a, b)]
    dtype = _endpoint_dtype(max([d, *map(abs, values)]))
    return np.array(values, dtype=dtype).reshape(-1, 2)


def _as_pairs(starts: np.ndarray, ends: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(zip(starts.tolist(), ends.tolist()))


def _normalize(d: int, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical endpoint arrays of the union of the arcs [starts[i], ends[i])
    mod d: empty arcs are dropped, an arc of length >= d makes the full
    circle, the rest are reduced into [0, d), split at 0, sorted on their
    starts (one sort of packed keys) and merged (touching arcs too) by
    running maximum of the ends."""
    lengths = ends - starts
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    if not len(starts):
        return starts, starts
    if (lengths >= d).any():
        return np.zeros(1, starts.dtype), np.full(1, d, starts.dtype)
    starts = starts % d
    ends = starts + lengths
    wrap = ends > d
    starts = np.concatenate((starts, np.zeros(np.count_nonzero(wrap), dtype=starts.dtype)))
    ends = np.concatenate((np.minimum(ends, d), ends[wrap] - d))
    # every end is <= d < 2^k, so one sort of the keys (start << k) | end
    # orders the arcs by start; the order among equal starts cannot change
    # the running maximum at the end of their run
    k = d.bit_length()
    dtype = _endpoint_dtype(d << k)
    keys = np.sort((starts.astype(dtype, copy=False) << k) | ends.astype(dtype, copy=False))
    starts, ends = keys >> k, np.maximum.accumulate(keys & ((1 << k) - 1))
    gap = starts[1:] > ends[:-1]
    return starts[np.concatenate(([True], gap))], ends[np.concatenate((gap, [True]))]


class TorusIntervalSet:
    """A finite union of half-open intervals [a/D, b/D) on the circle.

    Intervals are sorted, pairwise disjoint and non-adjacent; an arc
    crossing 0 is stored split at 0.  The arcs live in two read-only
    endpoint arrays of dtype _endpoint_dtype(D); ``intervals`` is their
    tuple of (a, b) pairs of Python ints.  Instances are immutable, and
    ``==``, ``hash`` and ``repr`` are those of (denominator, intervals).
    """

    __slots__ = ("denominator", "_starts", "_ends", "_pairs")

    def __init__(self, denominator: int, intervals) -> None:
        d = _denominator(denominator)
        arr = _pair_array(d, intervals)
        starts, ends = arr[:, 0], arr[:, 1]
        prev_ends = np.concatenate((np.full(1, -1, arr.dtype), ends[:-1]))
        bad = np.flatnonzero((starts >= ends) | (ends > d) | (starts <= prev_ends))
        if len(bad):
            a, b = starts[bad[0]], ends[bad[0]]
            if not 0 <= a < b <= d:
                raise ValueError(f"bad interval [{a}, {b}) over denominator {d}")
            raise ValueError("intervals must be sorted, disjoint, non-adjacent")
        self._set(d, starts, ends)

    def _set(self, d: int, starts: np.ndarray, ends: np.ndarray) -> None:
        dtype = _endpoint_dtype(d)
        starts, ends = (np.ascontiguousarray(x, dtype=dtype) for x in (starts, ends))
        starts.flags.writeable = ends.flags.writeable = False
        for name, value in (("denominator", d), ("_starts", starts), ("_ends", ends),
                            ("_pairs", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, d: int, starts: np.ndarray, ends: np.ndarray) -> "TorusIntervalSet":
        """Wrap normalized endpoint arrays over a checked denominator, unchecked."""
        out = object.__new__(cls)
        out._set(d, starts, ends)
        return out

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        if self._pairs is None:
            object.__setattr__(self, "_pairs", _as_pairs(self._starts, self._ends))
        return self._pairs

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.denominator == other.denominator
                and np.array_equal(self._starts, other._starts)
                and np.array_equal(self._ends, other._ends))

    def __hash__(self):
        return hash((self.denominator, self.intervals))

    def __repr__(self):
        return (f"{type(self).__qualname__}(denominator={self.denominator!r}, "
                f"intervals={self.intervals!r})")

    def __reduce__(self):
        return type(self), (self.denominator, self.intervals)

    @classmethod
    def from_raw(cls, denominator: int, raw_pairs) -> "TorusIntervalSet":
        """Build from arbitrary integer pairs (a, b), reducing mod the
        denominator and splitting arcs that cross 0; pairs with b <= a are
        dropped."""
        d = _denominator(denominator)
        arr = _pair_array(d, raw_pairs)
        return cls._trusted(d, *_normalize(d, arr[:, 0], arr[:, 1]))

    @classmethod
    def empty(cls, denominator: int) -> "TorusIntervalSet":
        return cls(denominator, ())

    @classmethod
    def full(cls, denominator: int) -> "TorusIntervalSet":
        return cls(denominator, ((0, denominator),))

    def measure(self) -> Fraction:
        return Fraction(int((self._ends - self._starts).sum()), self.denominator)

    def is_empty(self) -> bool:
        return not len(self._starts)

    def contains_set(self, other: "TorusIntervalSet") -> bool:
        """True iff other is a subset of self, exact over the common denominator.

        Both are normalized (disjoint, non-adjacent), so each interval of
        other must sit inside a single interval of self, the first whose
        end is not below its end: one binary search of other's ends among
        self's, all scaled to the lcm of the denominators.
        """
        d = lcm(self.denominator, other.denominator)
        dtype = _endpoint_dtype(d)
        qs, qo = d // self.denominator, d // other.denominator
        ends = self._ends.astype(dtype, copy=False) * qs
        at = np.searchsorted(ends, other._ends.astype(dtype, copy=False) * qo)
        if len(at) and at[-1] == len(ends):  # other's ends ascend: only the last can pass
            return False
        return bool((self._starts.astype(dtype, copy=False)[at] * qs
                     <= other._starts.astype(dtype, copy=False) * qo).all())

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


def _encode_cells(d: int, cells: np.ndarray) -> TorusIntervalSet:
    """The union of the intervals [c, c + 1) over d, for an ascending int64
    array of distinct cells below d: one arc per run of consecutive cells."""
    if not len(cells):
        return TorusIntervalSet._trusted(d, cells, cells)
    gap = np.diff(cells) > 1
    return TorusIntervalSet._trusted(d, cells[np.concatenate(([True], gap))],
                                     cells[np.concatenate((gap, [True]))] + 1)


def encode_grid_to_intervals(s: GridSet) -> TorusIntervalSet:
    """Map each grid cell x to the interval [y, y + lam^-n) with
    y = sum x_i lam^-i; the flattened cell index is exactly y * lam^n."""
    d = s.lam**s.dim
    if d > _ENCODE_CAP:
        raise ScaleCapError(f"lam^n = {d} exceeds encode cap {_ENCODE_CAP}")
    return _encode_cells(d, np.sort(np.fromiter(s.cells, dtype=np.int64, count=len(s.cells))))


def scale_intervals(a: TorusIntervalSet, lam: int) -> TorusIntervalSet:
    """lam * A on the circle: each interval maps to arcs of total length
    min(lam * len, 1), by exact endpoint multiplication."""
    if lam < 1:
        raise ValueError("need lam >= 1")
    d = a.denominator
    dtype = _endpoint_dtype(lam * d)
    return TorusIntervalSet._trusted(d, *_normalize(d, a._starts.astype(dtype, copy=False) * lam,
                                                    a._ends.astype(dtype, copy=False) * lam))


def _minkowski(a: TorusIntervalSet, b: TorusIntervalSet) -> TorusIntervalSet:
    """A + B by A + [s, s + L) = close(A, L) + s: close(A, L) is the arcs
    [x, y + L) of A, merged wherever the gap to the next arc is <= L, so A
    is closed once per distinct length of B and only the closed arcs are
    paired with B's starts.  Every end is y + (end of b) <= 2d, which the
    endpoint dtype holds."""
    d = a.denominator
    if a.is_empty() or b.is_empty():
        return TorusIntervalSet.empty(d)
    xs, ys = a._starts, a._ends
    # gaps[i] precedes arc i; d + 1, above every length, stands for the
    # missing gaps before the first arc and after the last
    gaps = np.empty(len(xs) + 1, dtype=xs.dtype)
    gaps[0] = gaps[-1] = d + 1
    gaps[1:-1] = xs[1:] - ys[:-1]
    lengths = b._ends - b._starts
    distinct, per_length = np.unique(lengths, return_counts=True)
    # A closed at L keeps the arcs whose gap before them exceeds L
    closed = len(xs) - np.searchsorted(np.sort(gaps[:-1]), distinct, side="right")
    if int(closed @ per_length) > _PAIR_CAP:
        raise ScaleCapError("interval Minkowski sum exceeds pair cap")
    starts, ends = [], []
    for length in distinct.tolist():
        of_length = lengths == length
        starts.append((xs[gaps[:-1] > length][:, None] + b._starts[of_length]).ravel())
        ends.append((ys[gaps[1:] > length][:, None] + b._ends[of_length]).ravel())
    return TorusIntervalSet._trusted(d, *_normalize(d, np.concatenate(starts), np.concatenate(ends)))


def interval_dilate_sum(a: TorusIntervalSet, lam: int) -> TorusIntervalSet:
    """Exact A + lam*A on the circle.

    Every pair of intervals [x1, y1) of A and [x2, y2) of lam*A gives the
    arc [x1 + x2, y1 + y2), but fewer arcs are formed: A is closed once
    per distinct interval length of lam*A and each closed arc is shifted
    by the starts of that length (see _minkowski).  The arcs so formed,
    counted before any is, may not exceed _PAIR_CAP (else ScaleCapError);
    they are normalized by one sort of packed keys and a running-maximum
    merge.  Endpoints are int64 while twice the denominator fits, exact
    Python ints otherwise.
    """
    if lam < 2:
        raise ValueError("need lam >= 2")
    return _minkowski(a, scale_intervals(a, lam))


def discretize_to_zp(a: TorusIntervalSet, p: int) -> ResidueSet:
    """A' = {0 <= r < p : [r/p, (r+1)/p) is inside A}, by integer inequalities
    r*D >= x*p and (r+1)*D <= y*p against each interval [x, y).  Valid for
    any modulus p >= 1; callers that need a field check p themselves."""
    d = a.denominator
    bits = 0
    for x, y in zip(a._starts.tolist(), a._ends.tolist()):
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
        """Every field under its own name (lam as "lambda"), each Fraction
        as "num/den" plus its display-only _decimal twin."""
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lam" else f.name
            value = getattr(self, f.name)
            out.update(_num_fields(key, value) if isinstance(value, Fraction)
                       else {key: value})
        return out


def pipeline_check(s: GridSet, p: int, strict: bool = True) -> ChainReport:
    """Run the full chain for one grid set and verify both inequalities.

    With strict=True (default) a violated inequality raises
    MathAssertionError; the inequalities are theorems, so a violation
    means a kernel or interval bug.
    """
    require_prime(p)
    if s.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    a = encode_grid_to_intervals(s)
    a_sum = interval_dilate_sum(a, s.lam)
    a_p = discretize_to_zp(a, p)
    a_p_sum = dilate_sum(a_p, s.lam)
    # S' straight from its mask: its cells are counted and encoded, never
    # collected into a GridSet; an empty grid builds no mask, whatever its size
    d_prime = s.lam ** (s.dim - 1)
    s_cells = np.flatnonzero(_projection_mask(s)) if s.cells else np.zeros(0, np.int64)
    s_prime = _encode_cells(d_prime, s_cells)
    residue_sum_density = Fraction(len(a_p_sum), p)
    sum_measure = a_sum.measure()
    s_prime_measure = Fraction(len(s_cells), d_prime)

    report = ChainReport(
        lam=s.lam,
        dim=s.dim,
        p=p,
        grid_cells=len(s),
        residue_density=Fraction(len(a_p), p),
        residue_dilate_sum_density=residue_sum_density,
        interval_measure=a.measure(),
        interval_dilate_sum_measure=sum_measure,
        grid_projection_measure=s_prime_measure,
        discrete_within_continuous=residue_sum_density <= sum_measure,
        continuous_within_grid=sum_measure <= s_prime_measure,
        interval_inside_grid_prediction=s_prime.contains_set(a_sum),
    )
    if strict and not report.all_hold:
        raise MathAssertionError(f"pipeline chain violated: {report.to_json_dict()}")
    return report
