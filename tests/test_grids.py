"""Grid sets, projection sumsets, digit-sum counts, and exact volumes."""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dilates import grids
from dilates.errors import ScaleCapError
from dilates.grids import (DigitSumSet, GridSet, box_grid_set, digit_sum_count,
                           equal_box_sides, grid_projection_sumset,
                           irwin_hall_volume, nth_root_floor,
                           optimized_box_sides_3d, project_drop_first,
                           project_drop_last, simplex_construction,
                           simplex_grid_set)
from dilates.grids import _cyclic_minkowski_mask
from dilates.residues import ResidueSet, cyclic_support_fft, cyclic_support_shift, sumset
from test_residues import PROPERTY, UNSAFE, make_fft_unsafe

F = Fraction


# ---------------------------------------------------------------- grid sets

def test_gridset_roundtrip_and_measure():
    s = GridSet.from_tuples(2, 3, [(1, 2), (0, 0)])
    assert s.measure() == F(2, 9)
    assert s.tuples() == ((0, 0), (1, 2))
    assert GridSet.parse(s.format()) == s
    assert GridSet.parse("n=2;lambda=3;cells=[]").cells == frozenset()
    with pytest.raises(ValueError):
        GridSet.from_tuples(2, 3, [(1, 3)])
    with pytest.raises(ValueError):
        GridSet.from_tuples(2, 3, [(1,)])


def test_gridset_rejects_out_of_range_cells():
    for cells in ([-1], [0, 9], [3, -2, 8], [100]):
        with pytest.raises(ValueError, match="cell index out of range"):
            GridSet(2, 3, frozenset(cells))
    assert GridSet(2, 3, frozenset([0, 8])).cells == {0, 8}
    assert GridSet(2, 3, frozenset()).cells == frozenset()


def test_from_mask_matches_from_tuples():
    rng = np.random.default_rng(7)
    for dim in range(1, 5):
        for lam in (2, 3, 5):
            for density in (0.0, 0.3, 1.0):
                mask = rng.random((lam,) * dim) < density
                s = GridSet.from_mask(lam, mask)
                expected = GridSet.from_tuples(dim, lam, map(tuple, np.argwhere(mask).tolist()))
                assert s == expected
                assert all(type(c) is int for c in s.cells)
                assert np.array_equal(s.to_mask(), mask)


def test_projections_examples():
    s = GridSet.from_tuples(2, 3, [(1, 2)])
    assert project_drop_first(s).tuples() == ((2,),)
    assert project_drop_last(s).tuples() == ((1,),)
    collide = GridSet.from_tuples(2, 3, [(0, 1), (1, 1)])
    assert project_drop_first(collide).tuples() == ((1,),)
    with pytest.raises(ValueError):
        project_drop_first(GridSet.from_tuples(1, 3, [(1,)]))


def test_projections_of_products_are_products():
    xs, ys, zs = [0, 2], [1, 3], [0, 1, 2]
    s = GridSet.from_tuples(3, 4, product(xs, ys, zs))
    assert project_drop_first(s) == GridSet.from_tuples(2, 4, product(ys, zs))
    assert project_drop_last(s) == GridSet.from_tuples(2, 4, product(xs, ys))


def oracle_projection_sumset(s: GridSet) -> set:
    """Direct definition: pairwise coordinate sums plus {0,1}^(n-1)."""
    lam = s.lam
    p1 = {t[1:] for t in s.tuples()}
    pn = {t[:-1] for t in s.tuples()}
    out = set()
    for a in p1:
        for b in pn:
            for eps in product((0, 1), repeat=s.dim - 1):
                out.add(tuple((x + y + e) % lam for x, y, e in zip(a, b, eps)))
    return out


def test_projection_sumset_examples():
    s = GridSet.from_tuples(2, 3, [(1, 2)])
    sp = grid_projection_sumset(s)
    assert sp.tuples() == ((0,), (1,))
    assert sp.measure() == F(2, 3)
    assert grid_projection_sumset(GridSet.empty(2, 3)) == GridSet.empty(1, 3)
    box = GridSet.from_tuples(2, 9, product([1, 2], [1, 2]))
    spb = grid_projection_sumset(box)
    assert spb.tuples() == ((2,), (3,), (4,), (5,))
    assert spb.measure() == F(4, 9)


def test_projection_sumset_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3, 4])
        count = rng.randint(0, lam**dim)
        flat = rng.sample(range(lam**dim), count)
        s = GridSet(dim, lam, frozenset(flat))
        got = set(grid_projection_sumset(s).tuples())
        assert got == oracle_projection_sumset(s)


def test_projection_sumset_bounds():
    rng = random.Random(12)
    for _ in range(20):
        lam = 5
        s = GridSet(3, lam, frozenset(rng.sample(range(lam**3), rng.randint(1, 40))))
        sp = grid_projection_sumset(s)
        p1 = project_drop_first(s)
        pn = project_drop_last(s)
        plain = {tuple((x + y) % lam for x, y in zip(a, b))
                 for a in p1.tuples() for b in pn.tuples()}
        assert plain <= set(sp.tuples())
        assert len(sp) <= 2 ** (s.dim - 1) * len(plain)


def test_projection_sumset_factorizes_for_boxes():
    # product structure: each output coordinate is a 1-d interval sum
    s = box_grid_set(3, 8, [F(1, 2), F(3, 8), F(1, 2)])
    sp = grid_projection_sumset(s)
    per_axis = []
    for i, j in ((1, 0), (2, 1)):  # (drop-first axis i) + (drop-last axis j)
        ai = sorted({t[i] for t in s.tuples()})
        aj = sorted({t[j] for t in s.tuples()})
        vals = {(x + y + e) % 8 for x in ai for y in aj for e in (0, 1)}
        per_axis.append(vals)
    assert set(sp.tuples()) == set(product(*per_axis))


def test_projection_mask_matches_public_projections():
    # _projection_mask scatters both projections from one array of cells;
    # the oracle builds them with the public projections, sums them by the
    # shift routine and thickens the sum by one roll per axis
    rng = random.Random(41)
    for _ in range(40):
        dim = rng.randint(2, 5)
        lam = rng.randint(2, {2: 16, 3: 8, 4: 5, 5: 4}[dim])
        size = lam**dim
        s = GridSet(dim, lam, frozenset(rng.sample(range(size), rng.randint(0, size))))
        expected = cyclic_support_shift(project_drop_first(s).to_mask(),
                                        project_drop_last(s).to_mask())
        for axis in range(dim - 1):
            expected = expected | np.roll(expected, 1, axis=axis)
        assert np.array_equal(grids._projection_mask(s), expected)
    # the cap is checked before any array is built, even where a cell index
    # would not fit in int64
    for s in (GridSet(9, 11, frozenset([0])), GridSet(2, 2**27, frozenset([5])),
              GridSet(20, 11, frozenset([11**20 - 1]))):
        with pytest.raises(ScaleCapError):
            grids._projection_mask(s)
        with pytest.raises(ScaleCapError):
            grid_projection_sumset(s)


def _random_masks(rng, shape, na, nb):
    a = np.zeros(shape, dtype=bool)
    b = np.zeros(shape, dtype=bool)
    a.reshape(-1)[rng.sample(range(a.size), na)] = True
    b.reshape(-1)[rng.sample(range(b.size), nb)] = True
    return a, b


def test_minkowski_mask_roll_and_fft_agree(monkeypatch):
    rng = random.Random(13)
    cases = []
    for shape in [(16,), (8, 8), (4, 4, 4), (4096,), (64, 64), (16, 16, 16),
                  (67, 64), (4099,)]:  # prime axes; 1-D: padded FFT, folded back
        size = int(np.prod(shape))
        a, b = _random_masks(rng, shape, rng.randint(1, size), rng.randint(1, size))
        na = int(a.sum())
        rolled = cyclic_support_shift(a, b)
        assert np.array_equal(cyclic_support_fft(a, b), rolled)
        assert np.array_equal(_cyclic_minkowski_mask(a, b), rolled)
        assert na <= rolled.sum() <= na * int(b.sum()) or rolled.sum() == a.size
        cases.append((a, b, rolled))
    # FFT counts declared unsafe: the helper still returns the exact support
    for how in UNSAFE:
        with monkeypatch.context() as m:
            make_fft_unsafe(m, how)
            for a, b, rolled in cases:
                assert np.array_equal(cyclic_support_fft(a, b), rolled)
                assert np.array_equal(_cyclic_minkowski_mask(a, b), rolled)


def test_minkowski_mask_gate(monkeypatch):
    # the FFT runs once the sparser mask has more than
    # min(64, max(5, isqrt(size) / 5, size / 64 on one axis)) members, and
    # equal masks (one forward transform) past two thirds of that: the
    # measured crossovers
    ran = []
    for name in ("cyclic_support_fft", "cyclic_support_shift"):
        routine = getattr(grids, name)
        monkeypatch.setattr(grids, name, lambda x, y, name=name, routine=routine:
                            ran.append(name) or routine(x, y))
    rng = random.Random(17)
    for shape, shift_up_to in [((16,), 5), ((300,), 5), ((1021,), 15), ((4099,), 64),
                               ((61, 61), 12), ((10, 10, 10), 6), ((6,) * 4, 7),
                               ((4,) * 5, 6), ((3,) * 6, 5), ((8,) * 4, 12),
                               ((7,) * 5, 25), ((8,) * 6, 64)]:
        for ns, routine in ((shift_up_to, "cyclic_support_shift"),
                            (shift_up_to + 1, "cyclic_support_fft")):
            a, b = _random_masks(rng, shape, ns, rng.randint(ns, int(np.prod(shape))))
            ran.clear()
            assert np.array_equal(_cyclic_minkowski_mask(b, a), cyclic_support_shift(a, b))
            assert ran == [routine], (shape, ns)
    for shape, shift_up_to in [((16,), 3), ((300,), 3), ((1021,), 10), ((4099,), 42),
                               ((61, 61), 8), ((10, 10, 10), 4), ((6,) * 4, 4),
                               ((4,) * 5, 4), ((3,) * 6, 3), ((8,) * 4, 8), ((16,) * 3, 8),
                               ((7,) * 5, 16), ((8,) * 6, 42)]:
        for ns, routine in ((shift_up_to, "cyclic_support_shift"),
                            (shift_up_to + 1, "cyclic_support_fft")):
            a, _ = _random_masks(rng, shape, ns, 0)
            ran.clear()
            assert np.array_equal(_cyclic_minkowski_mask(a, a.copy()), cyclic_support_shift(a, a))
            assert ran == [routine], ("equal", shape, ns)


@PROPERTY
@given(st.integers(2, 200).flatmap(lambda lam: st.tuples(
    st.just(lam), st.sets(st.integers(0, lam - 1)), st.sets(st.integers(0, lam - 1)))))
def test_grid_minkowski_1d_is_residue_sumset(case):
    lam, xs, ys = case
    a, b = (GridSet.from_tuples(1, lam, [(x,) for x in zs]).to_mask() for zs in (xs, ys))
    out = GridSet.from_mask(lam, _cyclic_minkowski_mask(a, b))
    residues = sumset(ResidueSet.from_elements(lam, xs), ResidueSet.from_elements(lam, ys))
    assert sorted(out.cells) == list(residues.elements())


# ---------------------------------------------------------------- boxes

def test_box_grid_set_examples():
    assert box_grid_set(1, 9, [F(1, 3)]).tuples() == ((1,), (2,))
    b = box_grid_set(2, 9, [F(1, 3), F(1, 3)])
    assert len(b) == 4 and b.measure() == F(4, 81)
    assert set(b.tuples()) == set(product([1, 2], [1, 2]))
    assert len(box_grid_set(1, 16, [F(1, 9)])) == 0  # side < 2/lam
    with pytest.raises(ValueError):
        box_grid_set(1, 9, [F(3, 2)])
    with pytest.raises(ValueError):
        box_grid_set(2, 9, [F(1, 3)])


def test_box_cells_match_predicate():
    lam, sides = 7, [F(2, 5), F(5, 7)]
    got = set(box_grid_set(2, lam, sides).tuples())
    want = {(x, y) for x in range(lam) for y in range(lam)
            if x >= 1 and y >= 1
            and F(x + 1, lam) <= sides[0] and F(y + 1, lam) <= sides[1]}
    assert got == want


def test_equal_box_sides():
    assert equal_box_sides(2, F(1, 9)) == (F(1, 3), F(1, 3))
    assert equal_box_sides(3, F(1, 64)) == (F(1, 4),) * 3
    # irrational root snaps up to the next 1/lam multiple
    (side,) = set(equal_box_sides(2, F(1, 2), lam=10))
    assert side == F(8, 10)  # sqrt(1/2)=0.7071 -> ceil to 0.8
    with pytest.raises(ValueError, match="irrational"):
        equal_box_sides(2, F(1, 2))


def test_optimized_box_sides():
    sides = optimized_box_sides_3d(F(1, 64), lam=64)
    assert sides == (F(21, 64), F(11, 64), F(21, 64))
    # gamma = 1/16: both 2g = (1/2)^3 and g/4 = (1/4)^3 are exact cubes
    assert optimized_box_sides_3d(F(1, 16)) == (F(1, 2), F(1, 4), F(1, 2))


def test_nth_root_floor():
    assert nth_root_floor(0, 3) == 0
    assert nth_root_floor(26, 3) == 2
    assert nth_root_floor(27, 3) == 3
    assert nth_root_floor(10**18, 2) == 10**9
    # past 2**1024, where a float root overflows
    assert nth_root_floor(10**400, 2) == 10**200
    assert nth_root_floor(10**400 - 1, 2) == 10**200 - 1
    with pytest.raises(ValueError):
        nth_root_floor(-1, 2)


# ---------------------------------------------------------------- digit sums

def oracle_digit_count(m, lam, t):
    return sum(1 for x in product(range(lam), repeat=m) if sum(x) <= t)


def test_digit_sum_count_examples():
    assert digit_sum_count(1, 3, 1) == 2
    assert digit_sum_count(2, 2, 1) == 3
    assert digit_sum_count(3, 4, 100) == 64  # t >= m(lam-1)
    assert digit_sum_count(2, 5, -1) == 0


def test_digit_sum_count_matches_enumeration():
    rng = random.Random(14)
    for _ in range(60):
        m = rng.randint(1, 4)
        lam = rng.randint(2, 6)
        t = rng.randint(-2, m * (lam - 1) + 2)
        assert digit_sum_count(m, lam, t) == oracle_digit_count(m, lam, t)


def test_digit_sum_set_expand_agrees():
    rng = random.Random(15)
    for _ in range(20):
        d = DigitSumSet(rng.randint(1, 3), rng.randint(2, 5), rng.randint(0, 8))
        grid = d.expand()
        assert len(grid) == d.count()
        assert all(sum(t) <= d.threshold for t in grid.tuples())
    assert DigitSumSet.parse("m=3;lambda=4;t=5").format() == "m=3;lambda=4;t=5"


# ---------------------------------------------------------------- volumes

def test_irwin_hall_examples():
    assert irwin_hall_volume(2, 1) == F(1, 2)
    assert irwin_hall_volume(2, 2) == 1
    assert irwin_hall_volume(3, 1) == F(1, 6)  # standard simplex
    assert irwin_hall_volume(6, 2) == F(29, 360)
    assert irwin_hall_volume(4, 0) == 0
    assert irwin_hall_volume(4, -1) == 0
    with pytest.raises(TypeError):
        irwin_hall_volume(3, 0.5)


def test_irwin_hall_simplex_volume_cross_check():
    # volume below s <= 1 is the corner simplex s^m / m!
    for m in (2, 3, 5):
        for s in (F(1, 3), F(2, 3), 1):
            assert irwin_hall_volume(m, s) == F(s) ** m / factorial(m)


def test_irwin_hall_reflection_identity():
    rng = random.Random(16)
    for _ in range(40):
        m = rng.randint(1, 10)
        s = F(rng.randint(1, 3 * m - 1), 3)  # thirds: never an integer breakpoint
        if s.denominator == 1:
            s += F(1, 3)
        assert irwin_hall_volume(m, s) + irwin_hall_volume(m, m - s) == 1


def test_irwin_hall_digit_count_sandwich():
    # counts at thresholds t and t-m bracket the volume within m/lam
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 4)
        lam = rng.choice([8, 16, 32])
        t = rng.randint(0, m * (lam - 1))
        vol = irwin_hall_volume(m, F(t, lam))
        upper = F(digit_sum_count(m, lam, t), lam**m)
        lower = F(digit_sum_count(m, lam, t - m), lam**m)
        assert lower <= vol <= upper
        assert upper - lower <= F(m, lam)


def test_simplex_construction():
    assert simplex_construction(4) == (F(1, 24), F(5, 6))
    assert simplex_construction(6)[0] == F(29, 360)
    for n in (4, 5, 8):
        mu_b, mu_cc = simplex_construction(n)
        assert mu_cc == 1 - F(1, factorial(n - 1))
        assert mu_cc < 1
    with pytest.raises(ValueError):
        simplex_construction(3)


def test_simplex_grid_set_matches_predicate():
    for n, lam in ((2, 9), (3, 7), (4, 6)):
        got = set(simplex_grid_set(n, lam).tuples())
        bound = F(n, 2) - 1
        want = {t for t in product(range(lam), repeat=n)
                if all(x >= 1 for x in t) and F(sum(x + 1 for x in t), lam) <= bound}
        assert got == want
    assert len(simplex_grid_set(4, 12)) == 70  # sum y_i <= 4 over 4 coords


def test_simplex_grid_is_a_translated_digit_sum_set():
    # y = x - 1 runs over [0, lam - 1)^n with sum y_i <= floor(lam(n-2)/2) - 2n
    for lam in range(3, 13):
        for n in range(2, 8):
            if lam**n <= 1 << 22:
                assert len(simplex_grid_set(n, lam)) == \
                    digit_sum_count(n, lam - 1, lam * (n - 2) // 2 - 2 * n)


def test_mask_cap():
    with pytest.raises(ScaleCapError):
        GridSet(8, 11, frozenset()).to_mask()
    # 21^6 > 2^26 >= 20^6
    with pytest.raises(ScaleCapError, match="exceeds mask cap"):
        simplex_grid_set(6, 21)
