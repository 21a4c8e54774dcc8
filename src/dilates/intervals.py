"""Exact interval arithmetic on the circle and the grid-to-residue pipeline.

Grid sets are encoded into unions of tiny intervals on T = R/Z via base-lam
digit expansion, the sum A + lam*A is computed exactly on interval sets,
and interval sets are discretized into Z/pZ.  Every endpoint is an integer
over a fixed denominator, so all comparisons in the claim chain

    |A' + lam*A'| / p  <=  mu(A + lam*A)  <=  measure(S')

are exact.  A violated link is an implementation bug, never a data issue.

A set keeps its arcs as two ascending endpoint arrays, typed by the one
exact-integer rule, residues._exact_dtype, and every operation reads
those arrays: sorted cells become arcs by their runs, scaling multiplies
the endpoints, a Minkowski sum closes one operand per interval length of
the other, packs each formed arc as the key (start << k) | end with
k = (2d).bit_length(), sorts the keys once on the line [0, 2d] and folds
only the merged arcs mod d, and containment is one binary search of the
ends.  The tuple of (start, end) pairs is a read-only view, built on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .checks import _num_fields
from .errors import MathAssertionError, ScaleCapError
from .grids import GridSet, grid_projection_sumset
from .residues import (ResidueSet, _exact_dtype, _fields, _integer, _ints, _members_to_bits,
                       dilate_sum, require_prime)

__all__ = [
    "TorusIntervalSet",
    "encode_grid_to_intervals",
    "scale_intervals",
    "interval_dilate_sum",
    "discretize_to_zp",
    "ChainReport",
    "pipeline_check",
]

_PAIR_CAP = 10**6       # arcs a Minkowski sum forms before merging


def _merge(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end arrays of the union of the nonempty arcs packed as keys
    (start << k) | end, every end < 2^k: sorts keys in place, which orders
    the arcs by start, and merges them (touching arcs too) by a running
    maximum of the ends, cutting wherever a start passes it.  The order
    among equal starts cannot change the running maximum at the end of
    their run."""
    keys.sort()
    ends = keys & ((1 << k) - 1)
    np.maximum.accumulate(ends, out=ends)
    keys >>= k
    cut = np.flatnonzero(keys[1:] > ends[:-1])  # a merged arc ends at each cut
    return keys[np.append(0, cut + 1)], ends[np.append(cut, len(keys) - 1)]


def _normalize(d: int, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical endpoint arrays of the union of the arcs [starts[i], ends[i])
    mod d: empty arcs are dropped, an arc of length >= d makes the full
    circle, the rest are reduced into [0, d), split at 0, packed with
    k = d.bit_length() and merged by _merge."""
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
    k = d.bit_length()  # every end is <= d < 2^k
    dtype = _exact_dtype(d << k)
    return _merge((starts.astype(dtype, copy=False) << k) | ends.astype(dtype, copy=False), k)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TorusIntervalSet:
    """A finite union of half-open intervals [a/D, b/D) on the circle.

    Intervals are sorted, pairwise disjoint and non-adjacent; an arc
    crossing 0 is stored split at 0.  The arcs live in two read-only
    endpoint arrays of dtype _exact_dtype(D), the one rule of residues,
    which types a grid's cells alike; ``intervals`` is their
    tuple of (a, b) pairs of Python ints, built on first read.  ``==``
    and ``repr`` are those of (denominator, intervals), ``hash`` reads the
    endpoint arrays, and a pickle holds the arrays.
    """

    denominator: int
    _starts: np.ndarray
    _ends: np.ndarray

    def __init__(self, denominator: int, intervals) -> None:
        d = _integer(denominator, "denominator", 1)
        values = [_integer(v, "every interval endpoint") for a, b in intervals for v in (a, b)]
        arr = np.array(values, dtype=_exact_dtype(max([d, *map(abs, values)]))).reshape(-1, 2)
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
        dtype = _exact_dtype(d)
        starts, ends = (np.ascontiguousarray(x, dtype=dtype) for x in (starts, ends))
        starts.flags.writeable = ends.flags.writeable = False
        for name, value in (("denominator", d), ("_starts", starts), ("_ends", ends)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, d: int, starts: np.ndarray, ends: np.ndarray) -> "TorusIntervalSet":
        """Wrap normalized endpoint arrays over a checked denominator, unchecked."""
        out = object.__new__(cls)
        out._set(d, starts, ends)
        return out

    @cached_property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._starts.tolist(), self._ends.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.denominator == other.denominator
                and np.array_equal(self._starts, other._starts)
                and np.array_equal(self._ends, other._ends))

    def __hash__(self):  # equal sets share a denominator, so the dtype of their arrays
        s, e = self._starts, self._ends
        if s.dtype == object:
            return hash((self.denominator, tuple(s.tolist()), tuple(e.tolist())))
        return hash((self.denominator, s.tobytes(), e.tobytes()))

    def __repr__(self):
        return (f"{type(self).__qualname__}(denominator={self.denominator!r}, "
                f"intervals={self.intervals!r})")

    def __reduce__(self):
        return TorusIntervalSet._trusted, (self.denominator, self._starts, self._ends)

    @classmethod
    def empty(cls, denominator: int) -> "TorusIntervalSet":
        return cls(denominator, ())

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
        dtype = _exact_dtype(d)
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
        d, body = _fields(text, "interval", "D", "")
        return cls(int(d), [_ints(chunk, "[)", "interval chunk")
                            for chunk in body.split(";") if chunk.strip()])

    def format(self) -> str:
        body = ";".join(f"[{a},{b})" for a, b in self.intervals)
        return f"D={self.denominator};{body}" if body else f"D={self.denominator};"


def encode_grid_to_intervals(s: GridSet) -> TorusIntervalSet:
    """Map each grid cell x to the interval [y, y + lam^-n) with
    y = sum x_i lam^-i; the flattened cell index is exactly y * lam^n, so
    the arcs over lam^n are the runs of consecutive sorted cells."""
    d = s.lam**s.dim
    cells = s.sorted_cells
    if not len(cells):
        return TorusIntervalSet._trusted(d, cells, cells)
    gap = np.diff(cells) > 1
    return TorusIntervalSet._trusted(d, cells[np.concatenate(([True], gap))],
                                     cells[np.concatenate((gap, [True]))] + 1)


def scale_intervals(a: TorusIntervalSet, lam: int) -> TorusIntervalSet:
    """lam * A on the circle: each interval maps to arcs of total length
    min(lam * len, 1), by exact endpoint multiplication."""
    lam = _integer(lam, "lam", 1)
    d = a.denominator
    dtype = _exact_dtype(lam * d)
    return TorusIntervalSet._trusted(d, *_normalize(d, a._starts.astype(dtype, copy=False) * lam,
                                                    a._ends.astype(dtype, copy=False) * lam))


def _minkowski(a: TorusIntervalSet, b: TorusIntervalSet) -> TorusIntervalSet:
    """A + B by A + [s, s + L) = close(A, L) + s: close(A, L) is the arcs
    [x, y + L) of A, merged wherever the gap to the next arc is <= L, so A
    is closed once per distinct length of B and only the closed arcs are
    paired with B's starts.  Every formed arc starts below 2d and ends at
    most 2d < 2^k, k = (2d).bit_length(), so it is written straight into
    one key array as (start << k) | end, the sum of the packed closed arc
    and the packed arc of B (int64 while d < 2^30, exact Python ints
    beyond).  _merge merges the keys on the line [0, 2d], and only the
    merged arcs are folded mod d, when the last one ends past d."""
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
    formed = int(closed @ per_length)
    if formed > _PAIR_CAP:
        raise ScaleCapError("interval Minkowski sum exceeds pair cap")
    k = (2 * d).bit_length()
    dtype = _exact_dtype(d << k)
    xs, ys = xs.astype(dtype, copy=False), ys.astype(dtype, copy=False)
    packed_b = (b._starts.astype(dtype, copy=False) << k) | b._ends.astype(dtype, copy=False)
    keys = np.empty(formed, dtype=dtype)
    at = 0
    for length, rows, cols in zip(distinct.tolist(), closed.tolist(), per_length.tolist()):
        packed_a = (xs[gaps[:-1] > length] << k) | ys[gaps[1:] > length]
        np.add(packed_a[:, None], packed_b[lengths == length],
               out=keys[at:at + rows * cols].reshape(rows, cols))
        at += rows * cols
    starts, ends = _merge(keys, k)
    if ends[-1] > d:
        starts, ends = _normalize(d, starts, ends)
    return TorusIntervalSet._trusted(d, starts, ends)


def interval_dilate_sum(a: TorusIntervalSet, lam: int) -> TorusIntervalSet:
    """Exact A + lam*A on the circle, the Minkowski sum of A and
    scale_intervals(a, lam) by _minkowski.  The arcs it forms, counted
    before any is, may not exceed _PAIR_CAP (else ScaleCapError).
    """
    lam = _integer(lam, "lam", 2)
    return _minkowski(a, scale_intervals(a, lam))


def discretize_to_zp(a: TorusIntervalSet, p: int) -> ResidueSet:
    """A' = {0 <= r < p : [r/p, (r+1)/p) is inside A}, for any p >= 1 (a
    smaller p raises ValueError; callers that need a field check p
    themselves).  Each arc [x, y) holds the run
    [lo, hi) = [ceil(x*p/D), floor(y*p/D)), found for all arcs at once; the
    arcs are disjoint and non-adjacent, so the nonempty runs are too, and the
    bits are sum 2^hi - 2^lo over them.  The runs are scattered as int64
    residues, so a p that _exact_dtype puts beyond int64 raises
    ScaleCapError before any array is formed."""
    p = _integer(p, "p", 1)
    if _exact_dtype(p) is object:
        raise ScaleCapError(f"p = {p} is not below 2^62, the int64 bound of residues")
    d = a.denominator
    dtype = _exact_dtype(d * p)
    los = -((-p * a._starts.astype(dtype, copy=False)) // d)
    his = (p * a._ends.astype(dtype, copy=False)) // d
    keep = los < his
    los, his = (x[keep].astype(np.int64, copy=False) for x in (los, his))
    return ResidueSet(p, _members_to_bits(p + 1, his) - _members_to_bits(p + 1, los))


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


def _chain_report(s: GridSet, p: int, a: TorusIntervalSet, a_p: ResidueSet) -> ChainReport:
    """The chain's report from A, the encoding of s, and A' in Z/pZ; unchecked."""
    a_sum = interval_dilate_sum(a, s.lam)
    a_p_sum = dilate_sum(a_p, s.lam)
    s_prime = encode_grid_to_intervals(grid_projection_sumset(s))
    residue_sum_density = Fraction(len(a_p_sum), p)
    sum_measure = a_sum.measure()
    s_prime_measure = s_prime.measure()
    return ChainReport(
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
    report = _chain_report(s, p, a, discretize_to_zp(a, p))
    if strict and not report.all_hold:
        raise MathAssertionError(f"pipeline chain violated: {report.to_json_dict()}")
    return report
