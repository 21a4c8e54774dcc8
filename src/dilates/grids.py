"""Discretized torus geometry on the grid (Z/lam Z)^n.

A grid point x indexes the half-open cell prod_i [x_i/lam, (x_i+1)/lam) of
the torus T^n.  Grid sets collect the cells lying inside a target region
(open boxes, the corner simplex), and the projection sumset operation
computes the grid set covering pi_first(B') + pi_last(B') for the cell
union B'.  All measures are exact Fractions; floats never enter a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, floor, isqrt

import numpy as np

from .errors import ScaleCapError
from .residues import cyclic_support_fft, cyclic_support_shift

__all__ = [
    "GridSet",
    "DigitSumSet",
    "project_drop_first",
    "project_drop_last",
    "grid_projection_sumset",
    "box_grid_set",
    "equal_box_sides",
    "optimized_box_sides_3d",
    "simplex_grid_set",
    "digit_sum_count",
    "irwin_hall_volume",
    "simplex_construction",
]

_MASK_CAP = 1 << 26  # largest lam**dim expanded to a dense mask


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("pass Fraction/int/'num/den' strings, not floats")
    return Fraction(value)


def nth_root_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integer x, in integers only.

    Newton's iteration from 2**ceil(bits/k), which is above the root,
    decreases strictly until it reaches the floor root."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class GridSet:
    """A subset of (Z/lam Z)^dim stored as flattened row-major cell indices
    (first coordinate most significant)."""

    dim: int
    lam: int
    cells: frozenset[int]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.lam < 2:
            raise ValueError(f"resolution must be >= 2, got {self.lam}")
        size = self.lam**self.dim
        if self.cells and not (min(self.cells) >= 0 and max(self.cells) < size):
            raise ValueError("cell index out of range")

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
        return cls(dim, lam, frozenset(cells))

    @classmethod
    def empty(cls, dim: int, lam: int) -> "GridSet":
        return cls(dim, lam, frozenset())

    def unflatten(self, flat: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.dim):
            out.append(flat % self.lam)
            flat //= self.lam
        return tuple(reversed(out))

    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.unflatten(c) for c in sorted(self.cells))

    def measure(self) -> Fraction:
        return Fraction(len(self.cells), self.lam**self.dim)

    def __len__(self):
        return len(self.cells)

    def to_mask(self) -> np.ndarray:
        _mask_size(self.dim, self.lam)  # the cap first: then every cell fits in int64
        return _cell_mask(self.dim, self.lam, np.fromiter(self.cells, dtype=np.int64,
                                                          count=len(self.cells)))

    @classmethod
    def from_mask(cls, lam: int, mask: np.ndarray) -> "GridSet":
        flat = np.flatnonzero(mask.reshape(-1))
        return cls(mask.ndim, lam, frozenset(flat.tolist()))

    @classmethod
    def parse(cls, text: str) -> "GridSet":
        """Parse ``n=<n>;lambda=<lam>;cells=[(x1,...,xn),...]``."""
        parts = text.strip().split(";", 2)
        if len(parts) != 3 or not parts[0].startswith("n=") \
                or not parts[1].startswith("lambda=") or not parts[2].startswith("cells="):
            raise ValueError(f"bad grid literal: {text!r}")
        dim = int(parts[0][2:])
        lam = int(parts[1][7:])
        body = parts[2][6:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad grid cell list: {body!r}")
        inner = body[1:-1].replace(" ", "")
        tuples = []
        if inner:
            for chunk in inner.split("),("):
                chunk = chunk.strip("()")
                tuples.append(tuple(int(tok) for tok in chunk.split(",")))
        return cls.from_tuples(dim, lam, tuples)

    def format(self) -> str:
        cells = ",".join("(" + ",".join(map(str, t)) + ")" for t in self.tuples())
        return f"n={self.dim};lambda={self.lam};cells=[{cells}]"


def _mask_size(dim: int, lam: int) -> int:
    """lam^dim, raising ScaleCapError above _MASK_CAP."""
    size = lam**dim
    if size > _MASK_CAP:
        raise ScaleCapError(f"lam^dim = {size} exceeds mask cap {_MASK_CAP}")
    return size


def _cell_mask(dim: int, lam: int, cells: np.ndarray) -> np.ndarray:
    """The (lam,)*dim boolean mask of an array of flat cell indices."""
    mask = np.zeros(_mask_size(dim, lam), dtype=bool)
    mask[cells] = True
    return mask.reshape((lam,) * dim)


def project_drop_first(s: GridSet) -> GridSet:
    """Image under the projection forgetting the first coordinate."""
    if s.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    base = s.lam ** (s.dim - 1)
    return GridSet(s.dim - 1, s.lam, frozenset(c % base for c in s.cells))


def project_drop_last(s: GridSet) -> GridSet:
    """Image under the projection forgetting the last coordinate."""
    if s.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    return GridSet(s.dim - 1, s.lam, frozenset(c // s.lam for c in s.cells))


def _cyclic_minkowski_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coordinatewise-cyclic Minkowski sum of two boolean masks.  Both
    routines are exact; the FFT runs once the sparser mask has more than
    min(64, max(5, isqrt(size) / 5)) members, the crossover of a timed
    sweep of random masks of 2-6 axes and 25-262144 cells.  A 1-D mask is
    transformed padded to at least twice its length and rolls in two
    slices, so there the bound is at least size / 64.  Equal operands take
    one forward transform instead of two, and their crossover measured
    0.65-0.8 of the unequal one on 16-262144 cells, so for them the bound
    is two thirds of that."""
    na, nb = np.count_nonzero(a), np.count_nonzero(b)
    limit = min(64, max(5, isqrt(a.size) // 5, a.size >> 6 if a.ndim == 1 else 0))
    if na == nb and np.array_equal(a, b):
        limit = limit * 2 // 3
    if min(na, nb) > limit:
        return cyclic_support_fft(a, b)
    return cyclic_support_shift(a, b)


def _projection_mask(s: GridSet) -> np.ndarray:
    """Mask of S' = drop_first(S) + drop_last(S) + {0,1}^(n-1), cyclically
    per axis: the cyclic Minkowski sum of the two projections, then the
    {0,1} thickening that absorbs the carry between adjacent cells.  Both
    projection masks are scattered from one array of S's cells, as in
    project_drop_first (c mod lam^(n-1)) and project_drop_last (c // lam),
    after the cap check, so every index fits in int64."""
    base = _mask_size(s.dim - 1, s.lam)
    cells = np.fromiter(s.cells, dtype=np.int64, count=len(s.cells))
    out = _cyclic_minkowski_mask(_cell_mask(s.dim - 1, s.lam, cells % base),
                                 _cell_mask(s.dim - 1, s.lam, cells // s.lam))
    for axis in range(out.ndim):
        out = out | np.roll(out, 1, axis=axis)
    return out


def grid_projection_sumset(s: GridSet) -> GridSet:
    """S' = drop_first(S) + drop_last(S) + {0,1}^(n-1), cyclically per axis.

    The cells of S' cover pi_first(B') + pi_last(B') exactly, where B' is
    the union of the cells of S; the {0,1} thickening absorbs the carry
    between adjacent cells.
    """
    if s.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    if not s.cells:
        return GridSet.empty(s.dim - 1, s.lam)
    return GridSet.from_mask(s.lam, _projection_mask(s))


def box_grid_set(d: int, lam: int, sides) -> GridSet:
    """Cells whose closure fits inside the open box prod_i (0, sides[i]).

    A cell [x/lam, (x+1)/lam) lies in (0, s) iff x >= 1 and x+1 <= lam*s,
    decided by exact rational comparison.
    """
    sides = [_as_fraction(s) for s in sides]
    if len(sides) != d:
        raise ValueError(f"expected {d} sides, got {len(sides)}")
    for s in sides:
        if not 0 < s < 1:
            raise ValueError(f"box side {s} outside (0, 1)")
    axes = []
    for s in sides:
        hi = floor(lam * s) - 1  # largest x with x+1 <= lam*s
        axes.append(range(1, hi + 1))
    if any(len(r) == 0 for r in axes):
        return GridSet.empty(d, lam)
    cells = [0]
    for r in axes:
        cells = [c * lam + x for c in cells for x in r]
    return GridSet(d, lam, frozenset(cells))


def _root_side(value: Fraction, d: int, lam: int | None) -> Fraction:
    """value**(1/d) as an exact Fraction when possible, else the smallest
    multiple of 1/lam at or above it."""
    if lam is not None and lam < 2:
        raise ValueError(f"resolution must be >= 2, got {lam}")
    num, den = value.numerator, value.denominator
    rn, rd = nth_root_floor(num, d), nth_root_floor(den, d)
    if rn**d == num and rd**d == den:
        return Fraction(rn, rd)
    if lam is None:
        raise ValueError(f"{value}^(1/{d}) is irrational; pass lam to snap to the grid")
    k = nth_root_floor(lam**d * num // den, d)
    while k**d * den < lam**d * num:
        k += 1
    return Fraction(k, lam)


def equal_box_sides(d: int, gamma, lam: int | None = None) -> tuple[Fraction, ...]:
    """Side lengths of the volume-gamma cube: gamma**(1/d) on every axis."""
    side = _root_side(_as_fraction(gamma), d, lam)
    return (side,) * d


def optimized_box_sides_3d(gamma, lam: int | None = None) -> tuple[Fraction, ...]:
    """Unequal 3-d box sides (2g)^(1/3), (g/4)^(1/3), (2g)^(1/3): same
    volume as the cube but a smaller projection sumset."""
    g = _as_fraction(gamma)
    long = _root_side(2 * g, 3, lam)
    short = _root_side(g / 4, 3, lam)
    return (long, short, long)


def _digit_sum_cells(dim: int, lam: int, lo: int, t: int) -> list[int]:
    """Row-major flat indices of the cells x in [lo, lam)^dim with
    sum x_i <= t, in ascending order."""
    cells = []

    def rec(flat: int, depth: int, remaining: int):
        # every coordinate after this one takes at least lo
        hi = min(lam - 1, remaining - lo * (dim - 1 - depth))
        if depth == dim - 1:
            cells.extend(range(flat * lam + lo, flat * lam + hi + 1))
            return
        for x in range(lo, hi + 1):
            rec(flat * lam + x, depth + 1, remaining - x)

    rec(0, 0, t)
    return cells


def simplex_grid_set(n: int, lam: int) -> GridSet:
    """Cells inside the open corner region {all x_i > 0, sum x_i < n/2 - 1}.

    Inclusion of cell x requires every x_i >= 1 and sum(x_i + 1) <= lam*(n/2-1),
    that is 2*sum(x_i + 1) <= lam*(n-2): a digit-sum set with every digit
    at least 1 and sum x_i <= floor(lam*(n-2)/2) - n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if lam < 2:
        raise ValueError(f"resolution must be >= 2, got {lam}")
    _mask_size(n, lam)
    return GridSet(n, lam, frozenset(_digit_sum_cells(n, lam, 1, lam * (n - 2) // 2 - n)))


@dataclass(frozen=True)
class DigitSumSet:
    """Symbolic form of {x in [0, lam)^dim : sum x_i <= threshold}."""

    dim: int
    lam: int
    threshold: int

    def __post_init__(self):
        if self.dim < 1 or self.lam < 2:
            raise ValueError("need dim >= 1 and lam >= 2")

    def count(self) -> int:
        return digit_sum_count(self.dim, self.lam, self.threshold)

    def measure(self) -> Fraction:
        return Fraction(self.count(), self.lam**self.dim)

    def expand(self) -> GridSet:
        if self.lam**self.dim > 1 << 20:
            raise ScaleCapError("digit-sum set too large to expand")
        cells = _digit_sum_cells(self.dim, self.lam, 0, self.threshold)
        return GridSet(self.dim, self.lam, frozenset(cells))

    @classmethod
    def parse(cls, text: str) -> "DigitSumSet":
        """Parse ``m=<m>;lambda=<lam>;t=<t>``."""
        parts = text.strip().split(";")
        if len(parts) != 3 or not parts[0].startswith("m=") \
                or not parts[1].startswith("lambda=") or not parts[2].startswith("t="):
            raise ValueError(f"bad digit-sum literal: {text!r}")
        return cls(int(parts[0][2:]), int(parts[1][7:]), int(parts[2][2:]))

    def format(self) -> str:
        return f"m={self.dim};lambda={self.lam};t={self.threshold}"


def digit_sum_count(m: int, lam: int, t: int) -> int:
    """#{x in [0, lam)^m : sum x_i <= t} by inclusion-exclusion."""
    if m < 1 or lam < 2:
        raise ValueError("need m >= 1 and lam >= 2")
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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    mu_b = irwin_hall_volume(n, Fraction(n, 2) - 1)
    mu_cc = irwin_hall_volume(n - 1, n - 2)
    assert mu_cc == 1 - Fraction(1, factorial(n - 1))
    assert mu_cc < 1
    return mu_b, mu_cc
