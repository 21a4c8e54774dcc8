"""Grid sets, projection sumsets, digit-sum counts, and exact volumes."""

import pickle
import random
from fractions import Fraction
from itertools import product
from math import factorial, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dilates import grids, residues
from dilates.errors import ScaleCapError
from dilates.grids import (GridSet, _cell_mask, box_grid_set, digit_sum_count,
                           equal_box_sides, grid_projection_sumset, irwin_hall_volume,
                           nth_root_floor, optimized_box_sides_3d,
                           simplex_construction, simplex_grid_set)
from dilates.intervals import discretize_to_zp, encode_grid_to_intervals, pipeline_check
from dilates.residues import (ResidueSet, cyclic_support, cyclic_support_fft,
                              cyclic_support_pairs, cyclic_support_shift, sumset)
from test_residues import PROPERTY, UNSAFE, make_fft_unsafe

F = Fraction


def digit_set(s):
    """The cells of s as a set of digit tuples, read from s._digits()."""
    return set(map(tuple, s._digits().tolist()))


def mask(s):
    """The boolean (lam,) * dim mask of s's cells."""
    return _cell_mask(s.dim, s.lam, s.sorted_cells)


# ---------------------------------------------------------------- grid sets

def test_gridset_roundtrip_and_measure():
    s = GridSet.from_tuples(2, 3, [(1, 2), (0, 0)])
    assert s.measure() == F(2, 9)
    assert s._digits().tolist() == [[0, 0], [1, 2]]
    assert GridSet.parse(s.format()) == s
    assert GridSet.parse("n=2;lambda=3;cells=[]").sorted_cells.tolist() == []
    with pytest.raises(ValueError):
        GridSet.from_tuples(2, 3, [(1, 3)])
    with pytest.raises(ValueError):
        GridSet.from_tuples(2, 3, [(1,)])


def test_gridset_rejects_out_of_range_cells():
    # 2**70 and -2**70 do not fit the int64 array of a 3 x 3 grid
    for cells in ([-1], [0, 9], [3, -2, 8], [100], [2**70], [1, -2**70]):
        with pytest.raises(ValueError, match="cell index out of range"):
            GridSet(2, 3, frozenset(cells))
    # integer arrays are read whole; a uint64 above 2^63 is refused, not wrapped
    for cells in (np.array([-1]), np.array([0, 9]), np.array([3, -2, 8]), np.array([9, 0, 9]),
                  np.array([1, 2**63 + 5], dtype=np.uint64),
                  np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="cell index out of range"):
            GridSet(2, 3, cells)
    assert GridSet(2, 3, frozenset([0, 8])).sorted_cells.tolist() == [0, 8]
    assert GridSet(2, 3, frozenset()).sorted_cells.tolist() == []


def test_gridset_reads_integers_only():
    # cells, dimensions and resolutions must be integers
    for args in ((2, 3, frozenset([1.5, 7])), (2, 3, [7.0]), (2, 3, {F(1)}),
                 (2.0, 3, frozenset([1])), (2, 3.5, frozenset([1]))):
        with pytest.raises(TypeError):
            GridSet(*args)
    with pytest.raises(TypeError):
        GridSet.from_tuples(2, 3, [(0.5, 1)])
    # numpy integers are integers; a set or list of cells is stored as one array
    s = GridSet(np.int64(2), np.int32(3), [np.int64(7), np.uint8(1), 7])
    assert s == GridSet(2, 3, frozenset({1, 7})) == GridSet(2, 3, {1, 7})
    assert type(s.dim) is int and type(s.lam) is int
    assert hash(GridSet(2, 3, {1, 2})) == hash(GridSet(2, 3, frozenset({1, 2})))
    assert s.sorted_cells.tolist() == [1, 7]
    # integer arrays of any width, unsorted or repeated, equal the sorted set;
    # the grid keeps its own copy
    with pytest.raises(TypeError):
        GridSet(2, 3, np.array([1.0, 7.0]))
    for dtype in (np.int64, np.int8, np.uint16, np.uint64):
        for cells in ([1, 7], [7, 1], [7, 1, 7, 1], [1, 1, 7]):
            array = np.array(cells, dtype=dtype)
            g = GridSet(2, 3, array)
            array[0] = 0
            assert g == s and hash(g) == hash(s) and g.sorted_cells.tolist() == [1, 7]
            assert g.sorted_cells.dtype == np.int64
    # past int64 the cells are Python ints, from any integer array
    for cells in (np.array([2**64 - 1, 3, 3], dtype=np.uint64),
                  np.array([2**64 - 1, 3], dtype=object),
                  np.array([3, 2**63 + 1], dtype=np.uint64)):
        g = GridSet(2, 2**40, cells)
        expected = sorted(set(cells.tolist()))
        assert g == GridSet(2, 2**40, expected)
        assert g.sorted_cells.dtype == object and g.sorted_cells.tolist() == expected
    assert GridSet(20, 11, np.array([5, 0])).sorted_cells.tolist() == [0, 5]


def _check_sorted_cells(s):
    """sorted_cells is a strictly ascending, read-only array, in int64
    while lam^dim < 2^62 and Python ints beyond; a pickle round trip
    keeps all of that."""
    for g in (s, pickle.loads(pickle.dumps(s))):
        assert g == s and hash(g) == hash(s)
        cells = g.sorted_cells
        assert cells.tolist() == sorted(set(s.sorted_cells.tolist()))
        assert cells.dtype == (np.int64 if s.lam**s.dim < 1 << 62 else object)
        assert all(type(c) is int for c in cells.tolist())
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[:1] = 0
    assert "sorted_cells" not in repr(s)


def test_sorted_cells_is_one_readonly_ascending_array():
    tuples = [(2, 0), (0, 1), (1, 2)]
    cells = np.zeros((3, 3), dtype=bool)
    cells[tuple(zip(*tuples))] = True
    ways = [GridSet(2, 3, frozenset({6, 1, 5})), GridSet(2, 3, [5, 1, 6]),
            GridSet.from_tuples(2, 3, tuples),
            GridSet.parse("n=2;lambda=3;cells=[(2,0),(0,1),(1,2)]"),
            GridSet(2, 3, np.flatnonzero(cells))]
    for s in ways:
        _check_sorted_cells(s)
        assert s == ways[0] and hash(s) == hash(ways[0])
        assert repr(s) == "GridSet(dim=2, lam=3, cells=[1, 5, 6])"
    # the builders, and grids past int64
    for s in (box_grid_set(3, 8, [F(1, 2), F(3, 8), F(7, 8)]), simplex_grid_set(5, 6),
              predicate_grid(3, 4, lambda x: sum(x) <= 5), GridSet.empty(2, 5),
              box_grid_set(20, 11, [F(2, 11)] * 20),
              GridSet(20, 11, frozenset({0, 11**20 - 1, 5 * 11**17})),
              GridSet(2, 2**40, frozenset({2**79, 3}))):
        _check_sorted_cells(s)
    # one grid built two ways: box builder and tuples, box and mask, predicate and range
    box = box_grid_set(2, 5, [F(3, 5), F(3, 5)])
    assert box == GridSet.from_tuples(2, 5, product([1, 2], repeat=2))
    assert hash(box) == hash(GridSet(2, 5, np.flatnonzero(mask(box))))
    full = predicate_grid(2, 3, lambda x: sum(x) <= 4)
    assert full == GridSet(2, 3, range(9)) and hash(full) == hash(GridSet(2, 3, range(9)))


def test_hash_reads_the_array_not_cells():
    # equal grids hash equal on either cell dtype
    for dim, lam, cells in ((2, 3, [1, 5, 6]), (3, 64, range(0, 64**3, 7)),
                            (2, 2**40, [3, 2**63, 2**80 - 1])):
        one = GridSet(dim, lam, cells)
        two = GridSet(dim, lam, np.array(list(cells)[::-1], dtype=object))
        assert one == two and hash(one) == hash(two)
    grid = simplex_grid_set(4, 12)
    assert hash(grid) == hash(GridSet(4, 12, grid.sorted_cells.tolist()))


def _reference_format(s):
    """The per-cell formatter: one join per row of digits."""
    cells = ",".join("(" + ",".join(map(str, t)) + ")" for t in s._digits().tolist())
    return f"n={s.dim};lambda={s.lam};cells=[{cells}]"


def test_bulk_decoder_round_trips_through_from_tuples():
    rng = random.Random(23)
    grids = [GridSet.empty(1, 2), GridSet.empty(4, 7),
             # lam^dim >= 2^63: the object-dtype path
             GridSet(20, 11, frozenset({11**20 - 1})),
             GridSet(20, 11, frozenset({0, 5, 11**19 + 3, 11**20 - 1})),
             GridSet(2, 2**40, frozenset({2**80 - 1})),
             GridSet(2, 2**40, frozenset({0, 2**40 + 1, 2**79}))]
    for dim in range(1, 7):
        for _ in range(5):
            lam = rng.randint(2, 9)
            size = lam**dim
            cells = rng.sample(range(size), rng.randint(0, min(size, 300)))
            grids.append(GridSet(dim, lam, frozenset(cells)))
    for s in grids:
        # from_tuples encodes each row of digits cell by cell, in Python ints
        rows = s._digits().tolist()
        assert GridSet.from_tuples(s.dim, s.lam, map(tuple, rows)) == s
        assert len(rows) == len(s) and all(type(x) is int for t in rows for x in t)
        text = s.format()
        assert text == _reference_format(s)
        assert GridSet.parse(text) == s
    assert GridSet(2, 2**40, frozenset({2**80 - 1})).format() == \
        f"n=2;lambda={2**40};cells=[({2**40 - 1},{2**40 - 1})]"
    assert GridSet.empty(3, 4).format() == "n=3;lambda=4;cells=[]"


def test_cell_mask_matches_from_tuples():
    # a mask's flat nonzero indices, as grid_projection_sumset reads its
    # sum, are the row-major cells; _cell_mask scatters them back
    rng = np.random.default_rng(7)
    for dim in range(1, 5):
        for lam in (2, 3, 5):
            for density in (0.0, 0.3, 1.0):
                cells = rng.random((lam,) * dim) < density
                s = GridSet(dim, lam, np.flatnonzero(cells))
                expected = GridSet.from_tuples(dim, lam, map(tuple, np.argwhere(cells).tolist()))
                assert s == expected
                assert np.array_equal(mask(s), cells)


def oracle_projection_sumset(s: GridSet) -> set:
    """Direct definition: pairwise coordinate sums plus {0,1}^(n-1)."""
    lam = s.lam
    p1 = {t[1:] for t in digit_set(s)}
    pn = {t[:-1] for t in digit_set(s)}
    out = set()
    for a in p1:
        for b in pn:
            for eps in product((0, 1), repeat=s.dim - 1):
                out.add(tuple((x + y + e) % lam for x, y, e in zip(a, b, eps)))
    return out


def test_projection_sumset_examples():
    s = GridSet.from_tuples(2, 3, [(1, 2)])
    sp = grid_projection_sumset(s)
    assert sp._digits().tolist() == [[0], [1]]
    assert sp.measure() == F(2, 3)
    assert grid_projection_sumset(GridSet.empty(2, 3)) == GridSet.empty(1, 3)
    box = GridSet.from_tuples(2, 9, product([1, 2], [1, 2]))
    spb = grid_projection_sumset(box)
    assert spb._digits().tolist() == [[2], [3], [4], [5]]
    assert spb.measure() == F(4, 9)


def test_projection_sumset_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3, 4])
        count = rng.randint(0, lam**dim)
        flat = rng.sample(range(lam**dim), count)
        s = GridSet(dim, lam, frozenset(flat))
        got = digit_set(grid_projection_sumset(s))
        assert got == oracle_projection_sumset(s)


def test_projection_sumset_bounds():
    rng = random.Random(12)
    for _ in range(20):
        lam = 5
        s = GridSet(3, lam, frozenset(rng.sample(range(lam**3), rng.randint(1, 40))))
        sp = grid_projection_sumset(s)
        plain = {tuple((x + y) % lam for x, y in zip(a[1:], b[:-1]))
                 for a in digit_set(s) for b in digit_set(s)}
        assert plain <= digit_set(sp)
        assert len(sp) <= 2 ** (s.dim - 1) * len(plain)


def test_projection_sumset_factorizes_for_boxes():
    # product structure: each output coordinate is a 1-d interval sum
    s = box_grid_set(3, 8, [F(1, 2), F(3, 8), F(1, 2)])
    sp = grid_projection_sumset(s)
    per_axis = []
    for i, j in ((1, 0), (2, 1)):  # (drop-first axis i) + (drop-last axis j)
        ai = sorted({t[i] for t in digit_set(s)})
        aj = sorted({t[j] for t in digit_set(s)})
        vals = {(x + y + e) % 8 for x in ai for y in aj for e in (0, 1)}
        per_axis.append(vals)
    assert digit_set(sp) == set(product(*per_axis))


def test_projection_mask_matches_public_projections():
    # grid_projection_sumset scatters both projections from one array of
    # cells; the oracle builds them from the cells' digit tuples, sums them
    # by the shift routine and thickens the sum by one roll per axis
    rng = random.Random(41)
    for _ in range(40):
        dim = rng.randint(2, 5)
        lam = rng.randint(2, {2: 16, 3: 8, 4: 5, 5: 4}[dim])
        size = lam**dim
        s = GridSet(dim, lam, frozenset(rng.sample(range(size), rng.randint(0, size))))
        expected = cyclic_support_shift(
            mask(GridSet.from_tuples(dim - 1, lam, {t[1:] for t in digit_set(s)})),
            mask(GridSet.from_tuples(dim - 1, lam, {t[:-1] for t in digit_set(s)})))
        for axis in range(dim - 1):
            expected = expected | np.roll(expected, 1, axis=axis)
        assert np.array_equal(mask(grid_projection_sumset(s)), expected)
    # the cap is checked before any array is built, even where a cell index
    # would not fit in int64
    for s in (GridSet(9, 11, frozenset([0])), GridSet(2, 2**27, frozenset([5])),
              GridSet(20, 11, frozenset([11**20 - 1]))):
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
                  (67, 64), (4099,), (8191,)]:  # prime axes; 1-D: padded FFT, folded back
        size = int(np.prod(shape))
        a, b = _random_masks(rng, shape, rng.randint(1, size), rng.randint(1, size))
        na = int(a.sum())
        # unequal operands, then equal ones (distinct arrays, one transform)
        for x, y in ((a, b), (a, a.copy())):
            rolled = cyclic_support_shift(x, y)
            assert np.array_equal(cyclic_support_fft(x, y), rolled)
            assert np.array_equal(cyclic_support(x, y), rolled)
            assert np.array_equal(cyclic_support(y, x), rolled)
            assert na <= rolled.sum() <= na * int(y.sum()) or rolled.sum() == a.size
            cases.append((x, y, rolled))
    # FFT counts declared unsafe: the helper still returns the exact support
    for how in UNSAFE:
        with monkeypatch.context() as m:
            make_fft_unsafe(m, how)
            for a, b, rolled in cases:
                assert np.array_equal(cyclic_support_fft(a, b), rolled)
                assert np.array_equal(cyclic_support(a, b), rolled)
    # the pair routine on 2-6 axes, non-cubic and prime lengths; empty,
    # 1-member, sparse and full masks; equal operands as one object and as a
    # copy; and a transposed view, whose cells are read in row-major order of
    # its own shape, not in the order of its memory
    pair_cases = []
    for shape in [(8, 8), (67, 64), (61, 61), (3, 5, 7), (31, 31, 31), (7, 7, 7, 7),
                  (2, 3, 4, 5, 2), (4,) * 6]:
        size = prod(shape)
        counts = [(0, 5), (1, 1), (1, 40), (rng.randint(2, 40), rng.randint(2, 40))]
        if size <= 256:
            counts.append((size, size))
        for na, nb in counts:
            a, b = _random_masks(rng, shape, na, nb)
            rolled, doubled = cyclic_support_shift(a, b), cyclic_support_shift(a, a)
            pair_cases += [(a, b, rolled), (a.T, b.T, rolled.T),
                           (a, a, doubled), (a, a.copy(), doubled)]
    # small blocks run many blocks per mask, and the i <= j boundary of
    # equal operands both within a block and between blocks
    for block in (5, 64, residues._PAIR_BLOCK):
        with monkeypatch.context() as m:
            m.setattr(residues, "_PAIR_BLOCK", block)
            for a, b, rolled in pair_cases:
                assert np.array_equal(cyclic_support_pairs(a, b), rolled), (a.shape, block)
    # masks of different shapes are refused by every routine
    a = np.zeros((4, 4), dtype=bool)
    a[0, 1] = a[2, 3] = True
    for x, y in ((a, np.ones((4, 5), dtype=bool)), (a[0], np.ones(5, dtype=bool))):
        for routine in (cyclic_support, cyclic_support_fft, cyclic_support_shift,
                        cyclic_support_pairs):
            for u, v in ((x, y), (y, x)):
                with pytest.raises(ValueError, match="mask shapes differ"):
                    routine(u, v)


def _dense_1d_masks(rng):
    """Two pairs of 1-D masks of 8191 cells: every other cell (4096 runs)
    with 4096 random cells, and those random cells with a copy."""
    a = np.zeros(8191, bool)
    a[::2] = True
    b, _ = _random_masks(rng, a.shape, 4096, 0)
    return (a, b), (b, b.copy())


def test_minkowski_mask_gate(monkeypatch):
    # masks of two or more axes are summed pair by pair while
    # |A| * |B| <= _PAIR_RATIO * size, and by FFT above, equal operands
    # too; the shift-OR runs only as the FFT's fallback.  A 1-D mask is a
    # pair of residue sets summed by sumset's BITSHIFT, off every mask
    # routine
    ran = []
    for name in ("sumset", "cyclic_support_fft", "cyclic_support_shift",
                 "cyclic_support_pairs"):
        routine = getattr(residues, name)
        monkeypatch.setattr(residues, name, lambda x, y, name=name, routine=routine:
                            ran.append(name) or routine(x, y))
    rng = random.Random(17)
    k = residues._PAIR_RATIO

    def check(x, y, routine):
        ran.clear()
        out = cyclic_support(x, y)
        assert ran == (["sumset"] if x.ndim == 1 else [routine]), (x.shape, routine)
        # the routine not taken is the oracle (this module's names are unpatched)
        if x.ndim > 1:
            oracle = cyclic_support_pairs if routine.endswith("fft") else cyclic_support_fft
            assert np.array_equal(out, oracle(x, y))

    # 61^2 with 33 members and 31^3 with 90, where the FFT is slow on prime
    # axes, stay on the pairs for every partner count up to k * size / na
    for shape, na in [((16,), 3), ((300,), 5), ((4099,), 64), ((8, 8), 9), ((61, 61), 33),
                      ((64, 64), 200), ((10, 10, 10), 10), ((31, 31, 31), 90),
                      ((6,) * 4, 9), ((7,) * 5, 21), ((8,) * 6, 65), ((3, 5, 7), 9)]:
        size = prod(shape)
        nb = k * size // na
        for n in (na, nb, nb + 1):
            if n <= size:
                a, b = _random_masks(rng, shape, na, n)
                check(b, a, "cyclic_support_pairs" if na * n <= k * size
                      else "cyclic_support_fft")
        # equal operands, as one object and as a copy (8^6 is left to the
        # simplex chain below, whose projections are equal)
        ne = isqrt(k * size)
        for n, routine in ((1, "cyclic_support_pairs"), (ne, "cyclic_support_pairs"),
                           (ne + 1, "cyclic_support_fft")):
            if n <= size < 8**6:
                a, _ = _random_masks(rng, shape, n, 0)
                check(a, a, routine)
                check(a, a.copy(), routine)
    # 1-member masks, against a full one, take the pairs
    for shape in ((8, 8, 8), (7,) * 4, (6,) * 5):
        a, _ = _random_masks(rng, shape, 1, 0)
        check(a, np.ones(shape, dtype=bool), "cyclic_support_pairs")
    # dense 1-D masks of 8191 cells, 4096 runs and more, stay on sumset
    for x, y in _dense_1d_masks(rng):
        ran.clear()
        assert np.array_equal(cyclic_support(x, y), cyclic_support_shift(x, y))
        assert ran == ["sumset"]
    # the simplex n = 7, lambda = 8 chain, whose 8^6 projections have 924
    # members each (|A|^2 = 3.3 size), passes without the FFT's float path
    monkeypatch.setattr(residues, "cyclic_support_fft", lambda x, y: pytest.fail("FFT ran"))
    assert pipeline_check(simplex_grid_set(7, 8), 10007).continuous_within_grid


def test_no_automatic_residue_sum_reaches_the_fft(monkeypatch):
    # a residue sum that names no kernel runs BITSHIFT at every size, so no
    # 1-D mask reaches the FFT: the dense 1-D masks above, the d = 2
    # pipeline sum at p = 36871, and the simplex n = 4, lam = 32 chain at
    # p = 1000003, whose A' has 2571 runs (14880 in lam*A'); its 32^3
    # projections still take the FFT, by the mask gate
    a = discretize_to_zp(encode_grid_to_intervals(
        box_grid_set(2, 192, equal_box_sides(2, F(1, 9), 192))), 36871)
    d = residues.dilate(a, 192)
    expected = sumset(a, d, residues.Kernel.CONVOLUTION)
    fft = residues.cyclic_support_fft
    monkeypatch.setattr(residues, "cyclic_support_fft", lambda x, y: pytest.fail(
        "a residue sum ran the FFT") if x.ndim == 1 else fft(x, y))
    for x, y in _dense_1d_masks(random.Random(17)):
        assert np.array_equal(cyclic_support(x, y), cyclic_support_shift(x, y))
    assert sumset(a, d) == expected
    assert pipeline_check(simplex_grid_set(4, 32), 1000003).continuous_within_grid


@PROPERTY
@given(st.integers(2, 200).flatmap(lambda lam: st.tuples(
    st.just(lam), st.sets(st.integers(0, lam - 1)), st.sets(st.integers(0, lam - 1)))))
def test_grid_minkowski_1d_is_residue_sumset(case):
    lam, xs, ys = case
    a, b = (mask(GridSet.from_tuples(1, lam, [(x,) for x in zs])) for zs in (xs, ys))
    ra, rb = ResidueSet.from_elements(lam, xs), ResidueSet.from_elements(lam, ys)
    # unequal operands, then equal ones
    for x, y, expected in ((a, b, sumset(ra, rb)), (a, a.copy(), sumset(ra, ra))):
        out = GridSet(1, lam, np.flatnonzero(cyclic_support(x, y)))
        assert out.sorted_cells.tolist() == list(expected.elements())


# ---------------------------------------------------------------- boxes

def predicate_grid(dim, lam, keep):
    """The grid of every cell x of (Z/lam Z)^dim with keep(x), cell by cell."""
    return GridSet.from_tuples(dim, lam, (x for x in product(range(lam), repeat=dim) if keep(x)))


def box_predicate(lam, sides):
    """Cell x lies in the open box prod (0, s_i) iff x_i >= 1 and (x_i + 1)/lam <= s_i."""
    return lambda x: all(xi >= 1 and F(xi + 1, lam) <= si for xi, si in zip(x, sides))


def test_box_grid_set_examples():
    assert box_grid_set(1, 9, [F(1, 3)])._digits().tolist() == [[1], [2]]
    b = box_grid_set(2, 9, [F(1, 3), F(1, 3)])
    assert len(b) == 4 and b.measure() == F(4, 81)
    assert digit_set(b) == set(product([1, 2], [1, 2]))
    assert len(box_grid_set(1, 16, [F(1, 9)])) == 0  # side < 2/lam
    for d, lam, sides in ((1, 16, [F(1, 9)]),
                          (3, 7, [F(5, 7), F(1, 7), F(6, 7)]),  # empty middle axis
                          (3, 6, [F(1, 2), F(1, 5), F(5, 6)]),
                          (2, 9, [F(8, 9), F(8, 9)]),
                          (4, 5, [F(3, 5), F(4, 5), F(2, 5), F(1, 2)])):
        assert box_grid_set(d, lam, sides) == predicate_grid(d, lam, box_predicate(lam, sides))
    assert box_grid_set(3, 7, [F(5, 7), F(1, 7), F(6, 7)]) == GridSet.empty(3, 7)
    # lam^d >= 2^63: the object-dtype path
    assert box_grid_set(20, 11, [F(2, 11)] * 20) == GridSet.from_tuples(20, 11, [(1,) * 20])
    with pytest.raises(ValueError):
        box_grid_set(1, 9, [F(3, 2)])
    with pytest.raises(ValueError):
        box_grid_set(2, 9, [F(1, 3)])


def test_box_cells_match_predicate():
    rng = random.Random(18)
    cases = [(2, 7, [F(2, 5), F(5, 7)])]
    for _ in range(30):
        d, lam = rng.randint(1, 4), rng.randint(2, 9)
        cases.append((d, lam, [F(rng.randint(1, 19), 20) for _ in range(d)]))
    for d, lam, sides in cases:
        assert box_grid_set(d, lam, sides) == predicate_grid(d, lam, box_predicate(lam, sides))


def test_equal_box_sides():
    # an exact rational root comes back exact, on the 1/lam grid or not
    assert equal_box_sides(2, F(1, 9), lam=10) == (F(1, 3), F(1, 3))
    assert equal_box_sides(3, F(1, 64), lam=10) == (F(1, 4),) * 3
    # irrational root snaps up to the next 1/lam multiple
    (side,) = set(equal_box_sides(2, F(1, 2), lam=10))
    assert side == F(8, 10)  # sqrt(1/2)=0.7071 -> ceil to 0.8


def test_optimized_box_sides():
    sides = optimized_box_sides_3d(F(1, 64), lam=64)
    assert sides == (F(21, 64), F(11, 64), F(21, 64))
    # gamma = 1/16: both 2g = (1/2)^3 and g/4 = (1/4)^3 are exact cubes
    assert optimized_box_sides_3d(F(1, 16), lam=3) == (F(1, 2), F(1, 4), F(1, 2))


def test_zero_denominator_is_a_value_error():
    # every fraction argument is read by one reader, which refuses a zero
    # denominator as a bad argument
    for call in (lambda: box_grid_set(2, 9, ["1/0", "1/3"]),
                 lambda: equal_box_sides(2, "1/0", 9),
                 lambda: optimized_box_sides_3d("1/0", 9),
                 lambda: irwin_hall_volume(3, "1/0")):
        with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
            call()


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
    # n = 2 has an empty region (threshold < 0)
    for n, lam in ((2, 9), (3, 7), (4, 6), (5, 4), (6, 3), (7, 3), (3, 2), (4, 9)):
        bound = F(n, 2) - 1
        want = predicate_grid(n, lam, lambda t: all(x >= 1 for x in t)
                              and F(sum(x + 1 for x in t), lam) <= bound)
        assert simplex_grid_set(n, lam) == want
    assert simplex_grid_set(2, 9) == GridSet.empty(2, 9)
    assert len(simplex_grid_set(4, 12)) == 70  # sum y_i <= 4 over 4 coords


def test_simplex_grid_is_a_translated_digit_sum_set():
    # y = x - 1 runs over [0, lam - 1)^n with sum y_i <= floor(lam(n-2)/2) - 2n
    for lam in range(3, 13):
        for n in range(2, 8):
            if lam**n <= 1 << 22:
                assert len(simplex_grid_set(n, lam)) == \
                    digit_sum_count(n, lam - 1, lam * (n - 2) // 2 - 2 * n)


def _largest_builder_array(his, t):
    """The builder's arrays by brute force: at each axis, the prefixes kept
    so far times that axis's digits 1..hi; a prefix stays while its digit
    sum leaves 1 for each axis to come.  Returns (largest, kept tuples)."""
    kept, largest = [()], 0
    for i, hi in enumerate(his):
        digits = range(1, hi + 1)
        largest = max(largest, len(kept) * len(digits))
        left = len(his) - 1 - i
        kept = [k + (x,) for k in kept for x in digits if t is None or sum(k) + x + left <= t]
    return largest, kept


def test_mask_cap(monkeypatch):
    with pytest.raises(ScaleCapError):
        mask(GridSet(8, 11, frozenset()))
    # the builder cap counts the largest array formed, before forming any:
    # simplex n = 6, lambda = 32 would form 1.2e8 cells, the d = 3 box of
    # sides 1/2 at lambda = 2000 about 1e9, a box with an empty last axis
    # 1e8 before that axis, and a digit-sum bound t = 5 at lambda = 2^22 + 2
    # 4 kept prefixes times 2^22 + 1 digits
    for build in (lambda: simplex_grid_set(6, 32),
                  lambda: box_grid_set(3, 2000, [F(1, 2)] * 3),
                  lambda: box_grid_set(3, 20000, [F(1, 2), F(1, 2), F(1, 40000)]),
                  lambda: grids._cells(2, (1 << 22) + 2, [(1 << 22) + 1] * 2, 5)):
        with pytest.raises(ScaleCapError, match="exceeds builder cap"):
            build()
    # the count is exact: a cap of the largest array builds, one less refuses
    rng = random.Random(29)
    for _ in range(200):
        dim, lam = rng.randint(1, 4), rng.randint(2, 6)
        if rng.random() < 0.5:
            his, t = [rng.randint(-1, lam - 1) for _ in range(dim)], None
        else:
            his, t = [lam - 1] * dim, rng.randint(-3, dim * (lam - 1) + 2)
        largest, kept = _largest_builder_array(his, t)
        monkeypatch.setattr(grids, "_BUILD_CAP", largest)
        flat = sorted(sum(x * lam ** (dim - 1 - j) for j, x in enumerate(k)) for k in kept)
        assert grids._cells(dim, lam, his, t).tolist() == flat
        if largest:
            monkeypatch.setattr(grids, "_BUILD_CAP", largest - 1)
            with pytest.raises(ScaleCapError):
                grids._cells(dim, lam, his, t)
