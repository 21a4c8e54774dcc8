"""Discretized torus geometry on the grid (Z/lam Z)^n.

A grid point x indexes the half-open cell prod_i [x_i/lam, (x_i+1)/lam) of
the torus T^n.  Grid sets collect the cells lying inside a target region
(open boxes, the corner simplex), and the projection sumset operation
computes the grid set covering pi_first(B') + pi_last(B') for the cell
union B'.  All measures are exact Fractions; floats never enter a claim.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, floor

import numpy as np

from .errors import ScaleCapError
from .residues import _exact_dtype, _fields, _integer, _ints, cyclic_support

__all__ = [
    "GridSet",
    "grid_projection_sumset",
    "box_grid_set",
    "equal_box_sides",
    "optimized_box_sides_3d",
    "simplex_grid_set",
    "digit_sum_count",
    "irwin_hall_volume",
    "simplex_construction",
]

_MASK_CAP = 1 << 26   # largest lam**dim expanded to a dense mask
_BUILD_CAP = 1 << 24  # largest array the grid builder forms


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("pass Fraction/int/'num/den' strings, not floats")
    return Fraction(value)


def nth_root_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integer x, in integers only.

    Newton's iteration from 2**ceil(bits/k), which is above the root,
    decreases strictly until it reaches the floor root."""
    x, k = _integer(x, "x", 0), _integer(k, "k", 1)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


@dataclass(frozen=True, init=False, eq=False, repr=False)
class GridSet:
    """A subset of (Z/lam Z)^dim held as one ascending read-only array of
    row-major flat cell indices, of dtype _exact_dtype(lam^dim) (the one
    rule of residues, which also types its interval encoding), from an
    integer array, read whole, or any iterable of integers.
    ==, hash and repr follow (dim, lam, sorted_cells)."""

    dim: int
    lam: int
    sorted_cells: np.ndarray

    def __init__(self, dim: int, lam: int, cells) -> None:
        dim, lam = _integer(dim, "dim", 1), _integer(lam, "lam", 2)
        dtype = _exact_dtype(lam**dim)
        if not (isinstance(cells, np.ndarray) and cells.ndim == 1 and cells.dtype.kind in "iu"):
            try:
                cells = np.fromiter(map(operator.index, cells), dtype=dtype)
            except OverflowError:  # beyond int64, so beyond lam**dim
                raise ValueError("cell index out of range") from None
        if not (cells[1:] > cells[:-1]).all():
            cells = np.sort(cells)
            cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
        # the ends as Python ints, so a uint64 is compared, never wrapped
        if len(cells) and not (int(cells[0]) >= 0 and int(cells[-1]) < lam**dim):
            raise ValueError("cell index out of range")
        array = cells.astype(dtype)  # a copy: the caller's array stays apart
        array.flags.writeable = False
        for name, value in (("dim", dim), ("lam", lam), ("sorted_cells", array)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return (isinstance(other, GridSet) and (self.dim, self.lam) == (other.dim, other.lam)
                and np.array_equal(self.sorted_cells, other.sorted_cells))

    def __hash__(self):  # equal grids share (dim, lam), so the dtype of sorted_cells
        c = self.sorted_cells
        return hash((self.dim, self.lam, tuple(c.tolist()) if c.dtype == object else c.tobytes()))

    def __repr__(self):
        return f"GridSet(dim={self.dim!r}, lam={self.lam!r}, cells={self.sorted_cells.tolist()!r})"

    def __reduce__(self):
        return GridSet, (self.dim, self.lam, self.sorted_cells)

    @classmethod
    def from_tuples(cls, dim: int, lam: int, tuples) -> "GridSet":
        cells = set()
        for t in tuples:
            if len(t) != dim:
                raise ValueError(f"cell {t} has wrong arity for dim={dim}")
            flat = 0
            for x in t:
                if not 0 <= x < lam:
                    raise ValueError(f"coordinate {x} outside [0, {lam})")
                flat = flat * lam + x
            cells.add(flat)
        return cls(dim, lam, cells)

    @classmethod
    def empty(cls, dim: int, lam: int) -> "GridSet":
        return cls(dim, lam, ())

    def _digits(self) -> np.ndarray:
        """The (cells, dim) array of base-lam digits, one row per cell in
        ascending order, most significant first, in either dtype of
        sorted_cells."""
        cells = self.sorted_cells
        powers = np.array([self.lam**k for k in reversed(range(self.dim))], dtype=cells.dtype)
        return cells[:, None] // powers % self.lam

    def measure(self) -> Fraction:
        return Fraction(len(self), self.lam**self.dim)

    def __len__(self):
        return len(self.sorted_cells)

    @classmethod
    def parse(cls, text: str) -> "GridSet":
        """Parse ``n=<n>;lambda=<lam>;cells=[(x1,...,xn),...]``."""
        dim, lam, cells = _fields(text, "grid", "n", "lambda", "cells")
        return cls.from_tuples(int(dim), int(lam), _ints(cells, "[()]", "grid cell list"))

    def format(self) -> str:
        digits = self._digits()
        row = "(" + ",".join(["%d"] * self.dim) + ")"
        cells = ",".join([row] * len(digits)) % tuple(digits.ravel().tolist())
        return f"n={self.dim};lambda={self.lam};cells=[{cells}]"


def _cell_mask(dim: int, lam: int, cells: np.ndarray) -> np.ndarray:
    """The (lam,)*dim boolean mask of flat cell indices, after the cap."""
    size = lam**dim
    if size > _MASK_CAP:
        raise ScaleCapError(f"lam^dim = {size} exceeds mask cap {_MASK_CAP}")
    mask = np.zeros(size, dtype=bool)
    mask[cells] = True
    return mask.reshape((lam,) * dim)


def grid_projection_sumset(s: GridSet) -> GridSet:
    """S' = pi_first(S) + pi_last(S) + {0,1}^(n-1), cyclically per axis,
    where pi_first forgets the first coordinate and pi_last the last.

    The cells of S' cover pi_first(B') + pi_last(B') exactly, where B' is
    the union of the cells of S; the {0,1} thickening absorbs the carry
    between adjacent cells.  Both projection masks are scattered from S's
    sorted_cells once the mask cap is checked, below which every index is
    int64: the row-major cell c projects to c mod lam^(n-1) under pi_first
    and to c // lam under pi_last.  Their cyclic Minkowski sum is
    residues.cyclic_support (from member pairs while |A| * |B| is at most
    _PAIR_RATIO times the mask size, as for the 924-member 8^6
    projections of simplex n = 7, lambda = 8; by FFT above), thickened by
    one roll per axis.
    """
    if s.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    if not len(s):
        return GridSet.empty(s.dim - 1, s.lam)
    out = cyclic_support(_cell_mask(s.dim - 1, s.lam, s.sorted_cells % s.lam ** (s.dim - 1)),
                         _cell_mask(s.dim - 1, s.lam, s.sorted_cells // s.lam))
    for axis in range(out.ndim):
        out = out | np.roll(out, 1, axis=axis)
    return GridSet(s.dim - 1, s.lam, np.flatnonzero(out))


def box_grid_set(d: int, lam: int, sides) -> GridSet:
    """Cells whose closure fits inside the open box prod_i (0, sides[i]).

    A cell [x/lam, (x+1)/lam) lies in (0, s) iff x >= 1 and x+1 <= lam*s,
    decided by exact rational comparison.
    """
    d = _integer(d, "d", 1)
    sides = [_as_fraction(s) for s in sides]
    if len(sides) != d:
        raise ValueError(f"expected {d} sides, got {len(sides)}")
    for s in sides:
        if not 0 < s < 1:
            raise ValueError(f"box side {s} outside (0, 1)")
    # the largest x on axis i has x + 1 <= lam * sides[i]
    return GridSet(d, lam, _cells(d, lam, [floor(lam * s) - 1 for s in sides]))


def _root_side(value: Fraction, d: int, lam: int) -> Fraction:
    """value**(1/d) as an exact Fraction when possible, else the smallest
    multiple of 1/lam at or above it."""
    lam = _integer(lam, "lam", 2)
    num, den = value.numerator, value.denominator
    rn, rd = nth_root_floor(num, d), nth_root_floor(den, d)
    if rn**d == num and rd**d == den:
        return Fraction(rn, rd)
    k = nth_root_floor(lam**d * num // den, d)
    while k**d * den < lam**d * num:
        k += 1
    return Fraction(k, lam)


def equal_box_sides(d: int, gamma, lam: int) -> tuple[Fraction, ...]:
    """Side lengths of the volume-gamma cube: gamma**(1/d) on every axis."""
    d = _integer(d, "d", 1)
    side = _root_side(_as_fraction(gamma), d, lam)
    return (side,) * d


def optimized_box_sides_3d(gamma, lam: int) -> tuple[Fraction, ...]:
    """Unequal 3-d box sides (2g)^(1/3), (g/4)^(1/3), (2g)^(1/3): same
    volume as the cube but a smaller projection sumset."""
    g = _as_fraction(gamma)
    long = _root_side(2 * g, 3, lam)
    short = _root_side(g / 4, 3, lam)
    return (long, short, long)


def _cells(dim: int, lam: int, his, t: int | None = None) -> np.ndarray:
    """Ascending row-major flat indices of the cells x of (Z/lam Z)^dim with
    1 <= x_i <= his[i] and, when t is given (every his[i] = lam - 1),
    sum x_i <= t.  One axis at a time by broadcasting; a prefix stays while
    its digit sum leaves 1 for each axis to come.  The largest array is
    capped before any is formed: for a box, the largest product of leading
    widths; with t, the last axis's, as kept prefixes never shrink (in
    digits x_i - 1, each sums to <= t - dim), or if none, the first's."""
    if t is None:
        largest = max(accumulate((max(hi, 0) for hi in his), operator.mul))
    else:
        largest = max(digit_sum_count(dim - 1, lam - 1, t - dim), 1) * (lam - 1)
    if largest > _BUILD_CAP:
        raise ScaleCapError(f"builder array of {largest} cells exceeds builder cap {_BUILD_CAP}")
    flat = np.zeros(1, _exact_dtype(lam**dim))
    total = np.zeros(1, np.int64)
    for i, hi in enumerate(his):
        digits = np.arange(1, hi + 1)
        flat = (flat[:, None] * lam + digits.astype(flat.dtype, copy=False)).ravel()
        if t is not None:
            total = (total[:, None] + digits).ravel()
            keep = total <= t - (dim - 1 - i)
            flat, total = flat[keep], total[keep]
    return flat


def simplex_grid_set(n: int, lam: int) -> GridSet:
    """Cells inside the open corner region {all x_i > 0, sum x_i < n/2 - 1}.

    Inclusion of cell x requires every x_i >= 1 and sum(x_i + 1) <= lam*(n/2-1),
    that is 2*sum(x_i + 1) <= lam*(n-2): a digit-sum set with every digit
    at least 1 and sum x_i <= floor(lam*(n-2)/2) - n.
    """
    n, lam = _integer(n, "n", 2), _integer(lam, "lam", 2)
    return GridSet(n, lam, _cells(n, lam, [lam - 1] * n, lam * (n - 2) // 2 - n))


def digit_sum_count(m: int, lam: int, t: int) -> int:
    """#{x in [0, lam)^m : sum x_i <= t} by inclusion-exclusion."""
    m, lam, t = _integer(m, "m", 0), _integer(lam, "lam", 1), _integer(t, "t")
    if t < 0:
        return 0
    if t >= m * (lam - 1):
        return lam**m
    total = 0
    for j in range(min(m, t // lam) + 1):
        total += (-1) ** j * comb(m, j) * comb(t - j * lam + m, m)
    return total


def irwin_hall_volume(m: int, s) -> Fraction:
    """Exact volume of {x in [0,1]^m : sum x_i < s}.

    (1/m!) * sum_{j=0}^{floor(s)} (-1)^j C(m,j) (s-j)^m, clamped to [0, 1].
    """
    m = _integer(m, "m", 1)
    s = _as_fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= m:
        return Fraction(1)
    total = Fraction(0)
    for j in range(floor(s) + 1):
        total += (-1) ** j * comb(m, j) * (s - j) ** m
    v = total / factorial(m)
    return min(max(v, Fraction(0)), Fraction(1))


def simplex_construction(n: int) -> tuple[Fraction, Fraction]:
    """Measures of the corner-simplex construction in dimension n.

    Returns (muB, muCC): muB the volume of {x_i > 0, sum x_i < n/2 - 1},
    muCC the volume of the (n-1)-dimensional sum region {sum x_i < n - 2},
    which equals 1 - 1/(n-1)! and is strictly below 1.
    """
    n = _integer(n, "n", 4)
    mu_b = irwin_hall_volume(n, Fraction(n, 2) - 1)
    mu_cc = irwin_hall_volume(n - 1, n - 2)
    assert mu_cc == 1 - Fraction(1, factorial(n - 1))
    assert mu_cc < 1
    return mu_b, mu_cc
