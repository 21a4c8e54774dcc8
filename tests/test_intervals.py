"""Circle interval sets, base-lam encoding, and the full claim chain."""

import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from hashlib import sha256
from itertools import product
from math import lcm

import numpy as np
import pytest

from dilates import intervals
from dilates.cache import canonical_json
from dilates.errors import MathAssertionError, ScaleCapError
from dilates.grids import (GridSet, box_grid_set, grid_projection_sumset,
                           optimized_box_sides_3d, simplex_grid_set)
from dilates.intervals import (TorusIntervalSet, discretize_to_zp,
                               encode_grid_to_intervals, interval_dilate_sum,
                               pipeline_check, scale_intervals)
from dilates.residues import ResidueSet, dilate_sum, sumset

F = Fraction


def tis(d, pairs):
    """The union of the arcs [a, b) mod d, pairs with b <= a dropped: the
    endpoints in the exact dtype of the largest, normalized by
    intervals._normalize as scale_intervals and _minkowski normalize theirs."""
    values = [v for pair in pairs for v in pair]
    dtype = intervals._exact_dtype(max([d, *map(abs, values)]))
    arcs = np.array(values, dtype=dtype).reshape(-1, 2)
    return TorusIntervalSet._trusted(d, *intervals._normalize(d, arcs[:, 0], arcs[:, 1]))


# ---------------------------------------------------------------- normalization

def test_normalization_merges_and_sorts():
    s = tis(10, [(7, 9), (1, 3), (3, 5)])
    assert s.intervals == ((1, 5), (7, 9))
    assert s.measure() == F(6, 10)
    assert tis(10, [(0, 10)]).intervals == ((0, 10),)
    assert tis(10, [(0, 25)]).intervals == ((0, 10),)  # over-long arc = full circle
    assert tis(10, []).is_empty()


def test_wraparound_splits_at_zero():
    s = tis(10, [(8, 13)])  # [8,10) + [0,3)
    assert s.intervals == ((0, 3), (8, 10))
    assert s.measure() == F(1, 2)
    # negative starts reduce mod D
    assert tis(10, [(-2, 1)]).intervals == ((0, 1), (8, 10))


def test_validation_rejects_bad_lists():
    # the first bad pair decides the message; adjacent arcs must be merged
    cases = [((0, ()), "denominator must be >= 1, got 0"),
             ((-3, ((0, 1),)), "denominator must be >= 1, got -3"),
             ((10, ((3, 3),)), "bad interval [3, 3) over denominator 10"),
             ((10, ((-1, 2),)), "bad interval [-1, 2) over denominator 10"),
             ((10, ((0, 1), (5, 11))), "bad interval [5, 11) over denominator 10"),
             ((10, ((0, 4), (4, 6))), "intervals must be sorted, disjoint, non-adjacent"),
             ((10, ((5, 6), (0, 1), (7, 7))), "intervals must be sorted, disjoint, non-adjacent"),
             ((10, ((0, 1), (3, 2), (1, 2))), "bad interval [3, 2) over denominator 10"),
             ((2**70, ((0, 2**71),)), f"bad interval [0, {2**71}) over denominator {2**70}")]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            TorusIntervalSet(*args)
        assert str(err.value) == message, args


def test_non_integer_endpoints_rejected():
    endpoint, denominator = "every interval endpoint", "denominator"
    for d, pairs, name in [(10, ((0.5, 2),), endpoint), (10, ((0, F(3, 2)),), endpoint),
                           (10.0, (), denominator), (F(10), (), denominator),
                           (10, (("0", "2"),), endpoint)]:
        message = f"^{name} must be an integer, got "
        with pytest.raises(TypeError, match=message):
            TorusIntervalSet(d, pairs)
    s = TorusIntervalSet(np.int64(10), ((np.int64(1), np.int32(3)),))
    assert s == tis(10, [(1, 3)]) and type(s.denominator) is int
    assert all(type(v) is int for pair in s.intervals for v in pair)


def test_tuple_form_identity_and_immutability():
    for d, pairs in [(9, ((0, 2), (5, 6))), (9, ()), (2**70, ((3, 2**69), (2**69 + 1, 2**70)))]:
        s = TorusIntervalSet(d, pairs)
        assert s.intervals == pairs
        assert repr(s) == f"TorusIntervalSet(denominator={d!r}, intervals={pairs!r})"
        for same in (TorusIntervalSet(d, list(pairs)), TorusIntervalSet.parse(s.format()),
                     tis(d, reversed(pairs)), pickle.loads(pickle.dumps(s))):
            assert same == s and hash(same) == hash(s)
        assert s != TorusIntervalSet(2 * d, pairs) and s != (d, pairs)
        for arr in (s._starts, s._ends):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        with pytest.raises(FrozenInstanceError):
            s.denominator = 3
        with pytest.raises(FrozenInstanceError):
            del s._starts
    assert tis(9, [(1, 2)]) != tis(9, [(1, 3)])
    assert len({tis(9, [(1, 2)]), tis(9, [(1, 2)])}) == 1


def test_hash_reads_the_endpoint_arrays():
    # equal sets hash equal however they were built, on int64 and on
    # Python-int endpoints, and hashing builds no tuple of pairs
    for lam in (9, 2**35):
        d = lam**2
        cells = [3, 4, lam + 1, d - 1]
        built = [encode_grid_to_intervals(GridSet(2, lam, cells)),
                 TorusIntervalSet(d, ((3, 5), (lam + 1, lam + 2), (d - 1, d))),
                 tis(d, [(lam + 1, lam + 2), (d - 1, d), (4, 5), (d + 3, d + 4)])]
        assert built[0]._starts.dtype == (object if d >= 2**62 else np.int64)
        hashes = {hash(s) for s in built}
        assert len(hashes) == 1 and all("intervals" not in s.__dict__ for s in built)
        assert len(set(built)) == 1 and all(s == built[0] for s in built)
        assert hash(tis(d, [(3, 5)])) != hash(tis(2 * d, [(3, 5)]))


def test_pickle_carries_the_endpoint_arrays():
    # a round trip neither builds nor needs the tuple view, on int64 and on
    # Python-int endpoints
    lam = 2**35
    sets = (encode_grid_to_intervals(simplex_grid_set(4, 90)),
            encode_grid_to_intervals(GridSet(2, lam, [3, 4, lam + 1, lam**2 - 1])))
    assert [len(s._starts) for s in sets] == [98770, 3]
    assert [s._starts.dtype for s in sets] == [np.int64, object]
    for s in sets:
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s) and back._starts.dtype == s._starts.dtype
        assert not (back._starts.flags.writeable or back._ends.flags.writeable)
        assert "intervals" not in s.__dict__ and "intervals" not in back.__dict__
        assert back.intervals == s.intervals


def test_parse_format_roundtrip():
    s = tis(9, [(5, 6), (0, 2)])
    assert TorusIntervalSet.parse(s.format()) == s
    assert TorusIntervalSet.parse("D=9;").is_empty()
    with pytest.raises(ValueError):
        TorusIntervalSet.parse("9;[1,2)")


def test_encode_beyond_former_cap():
    # lam^n past 2^30 encodes: one cell is one arc over 200^4 = 1.6e9
    one = encode_grid_to_intervals(GridSet.from_tuples(4, 200, [(1, 1, 1, 1)]))
    assert one.denominator == 200**4 and one.intervals == ((8_040_201, 8_040_202),)
    # lam^n >= 2^62: exact on Python-int endpoints, runs merged across 2^63
    d = 2**80
    s = GridSet(2, 2**40, [3, 4, 2**63 - 1, 2**63, d - 1])
    a = encode_grid_to_intervals(s)
    assert a._starts.dtype == object
    assert a.intervals == ((3, 5), (2**63 - 1, 2**63 + 1), (d - 1, d))
    assert all(type(v) is int for pair in a.intervals for v in pair)
    assert a.measure() == F(5, d) == s.measure()


def test_cells_and_endpoints_share_one_dtype_in_the_band():
    # lam^n in [2^62, 2^63): the cells, like the endpoints of their encoding,
    # are exact Python ints, so encoding converts no array
    d = 2**62
    band = [GridSet(2, 2**31, [0, 5, d - 1]),
            GridSet(2, 2**31, np.array([d - 1, 0, 5, 0])),
            box_grid_set(2, 2**31, [F(3, 2**31)] * 2),
            GridSet(3, 2**21 - 1, [7, (2**21 - 1) ** 3 - 1])]
    for g in band:
        a = encode_grid_to_intervals(g)
        assert g.sorted_cells.dtype == a._starts.dtype == a._ends.dtype == object
        assert all(type(c) is int for c in g.sorted_cells.tolist())
        assert a.measure() == g.measure()
        assert GridSet.parse(g.format()) == g
        assert hash(g) == hash(GridSet(g.dim, g.lam, g.sorted_cells.tolist()))
    assert band[0] == band[1]
    assert band[0].sorted_cells.tolist() == [0, 5, d - 1]
    assert encode_grid_to_intervals(band[0]).intervals == ((0, 1), (5, 6), (d - 1, d))
    assert band[2].sorted_cells.tolist() == [2**31 + 1, 2**31 + 2, 2**32 + 1, 2**32 + 2]


def test_contains_set_across_denominators():
    big = tis(3, [(0, 2)])
    small = tis(9, [(1, 5)])
    assert big.contains_set(small)
    assert not small.contains_set(big)
    assert big.contains_set(TorusIntervalSet.empty(7))


def test_contains_set_matches_cell_membership():
    # over D, a normalized set is exactly a set of unit cells [k, k+1): its
    # maximal runs, with a run through 0 split there.  Every such set for
    # D <= 6 against every other, at the lcm resolution.
    def runs(d, cells):
        out, k = [], 0
        while k < d:
            if cells[k]:
                j = k
                while j < d and cells[j]:
                    j += 1
                out.append((k, j))
                k = j
            else:
                k += 1
        return TorusIntervalSet(d, tuple(out))

    sets = [(d, cells, runs(d, cells))
            for d in range(1, 7) for cells in product((False, True), repeat=d)]
    for (d1, c1, s1), (d2, c2, s2) in product(sets, repeat=2):
        q = lcm(d1, d2)
        inside = all(c1[j * d1 // q] for j in range(q) if c2[j * d2 // q])
        assert s1.contains_set(s2) == inside, (s1, s2)


def test_contains_set_matches_brute_force_across_denominators():
    # the breakpoints of both sets cut the circle into pieces; other is
    # inside self iff the midpoint of every piece of other lies in self,
    # decided with exact fractions
    def member(s, t):
        return any(F(a, s.denominator) <= t < F(b, s.denominator) for a, b in s.intervals)

    def brute(s, o):
        cuts = sorted({F(v, t.denominator) for t in (s, o) for pair in t.intervals
                       for v in pair} | {F(0), F(1)})
        return all(member(s, (x + y) / 2) for x, y in zip(cuts, cuts[1:])
                   if member(o, (x + y) / 2))

    def arcs(rng, d, k):
        return tis(d, [(x, x + rng.randint(1, max(1, d // (2 * k))))
                       for x in (rng.randrange(d) for _ in range(k))])

    rng = random.Random(30)
    pairs = [(6, 4), (12, 18), (7, 1000), (2**40, 3**25), (2**32 - 5, 2**31 - 1),
             (2**70, 3**50)]
    assert intervals._exact_dtype(lcm(2**32 - 5, 2**31 - 1)) is object
    for d1, d2 in pairs:
        seen = set()
        for _ in range(60):
            big = arcs(rng, d1, rng.randint(1, 5))
            # arcs of the other denominator inside big's arcs, then perturbed
            inner = [(-(-x * d2 // d1), y * d2 // d1) for x, y in big.intervals]
            inner = [(a + rng.randint(0, 1), b + rng.choice((-1, 0, 0, 1))) for a, b in inner]
            for other in (tis(d2, inner), arcs(rng, d2, rng.randint(0, 3)),
                          TorusIntervalSet.empty(d2)):
                want = brute(big, other)
                assert big.contains_set(other) == want, (big, other)
                seen.add(want)
        assert seen == {True, False}, (d1, d2)


def test_encode_matches_normalize():
    # lam^n in {2, 9, 64, 1000, 4096}, over several shapes each
    shapes = [(1, 2), (2, 3), (3, 4), (6, 2), (3, 10), (2, 64), (3, 16), (12, 2)]
    rng = random.Random(31)
    for _ in range(200):
        dim, lam = rng.choice(shapes)
        d = lam**dim
        cells = np.array(sorted(rng.sample(range(d), rng.randint(0, d))), dtype=np.int64)
        got = encode_grid_to_intervals(GridSet(dim, lam, cells))
        assert got == TorusIntervalSet._trusted(d, *intervals._normalize(d, cells, cells + 1))
        assert got.measure() == F(len(cells), d)


# ---------------------------------------------------------------- encode

def test_encode_examples():
    one = encode_grid_to_intervals(GridSet.from_tuples(1, 5, [(3,)]))
    assert one.intervals == ((3, 4),) and one.denominator == 5
    two = encode_grid_to_intervals(GridSet.from_tuples(2, 3, [(1, 2)]))
    assert two.denominator == 9 and two.intervals == ((5, 6),)  # y = 1/3 + 2/9


def test_encode_measure_preserved_random():
    rng = random.Random(21)
    for _ in range(30):
        dim = rng.choice([1, 2, 3])
        lam = rng.choice([2, 3, 4])
        cells = frozenset(rng.sample(range(lam**dim), rng.randint(0, lam**dim)))
        s = GridSet(dim, lam, cells)
        assert encode_grid_to_intervals(s).measure() == s.measure()


# ---------------------------------------------------------------- dilate sums

def test_scale_intervals():
    a = tis(9, [(5, 6)])
    assert scale_intervals(a, 3).intervals == ((6, 9),)  # [15,18) mod 9
    assert scale_intervals(tis(4, [(0, 1)]), 4) == TorusIntervalSet(4, ((0, 4),))
    rng = random.Random(22)
    for _ in range(30):
        d = rng.choice([12, 30])
        raw = [(rng.randrange(d), 0)]
        raw = [(a, a + rng.randint(1, d)) for a, _ in raw]
        a = tis(d, raw)
        lam = rng.randint(2, 5)
        assert scale_intervals(a, lam).measure() == min(lam * a.measure(), 1)


def test_interval_dilate_sum_examples():
    assert interval_dilate_sum(tis(9, [(0, 3)]), 3) == TorusIntervalSet(9, ((0, 9),))
    a = tis(9, [(5, 6)])
    out = interval_dilate_sum(a, 3)
    assert out.intervals == ((2, 6),) and out.measure() == F(4, 9)
    assert interval_dilate_sum(TorusIntervalSet.empty(9), 3).is_empty()
    with pytest.raises(ValueError):
        interval_dilate_sum(a, 1)
    # the pair cap counts formed arcs: unit arcs 3 apart stay apart when
    # closed at length 1, so 1001 * 1000 formed arcs > 10^6 are refused
    # and exactly 10^6 run
    thousand = tis(10**4, [(3 * i, 3 * i + 1) for i in range(1000)])
    with pytest.raises(ScaleCapError, match="pair cap"):
        intervals._minkowski(tis(10**4, [(3 * i, 3 * i + 1) for i in range(1001)]),
                             thousand)
    assert intervals._minkowski(thousand, thousand) == tis(
        10**4, [(3 * k, 3 * k + 2) for k in range(1999)])
    # unit arcs 2 apart close into one arc, so 1001 * 1000 pairs form 1000
    two_apart = tis(10**4, [(2 * i, 2 * i + 1) for i in range(1001)])
    assert intervals._minkowski(two_apart, thousand) == tis(10**4, [(0, 4999)])


def reference_normalize(d, raw):
    """The scalar reduce/split/sort/merge the library used before it
    normalized with arrays; kept as the oracle for the array path."""
    reduced = []
    for a, b in raw:
        length = b - a
        if length <= 0:
            continue
        if length >= d:
            return ((0, d),)
        a %= d
        end = a + length
        if end <= d:
            reduced.append((a, end))
        else:
            reduced.append((a, d))
            reduced.append((0, end - d))
    merged = []
    for a, b in sorted(reduced):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def reference_minkowski(a, b):
    d = a.denominator
    if a.is_empty() or b.is_empty():
        return ()
    return reference_normalize(d, [(x1 + x2, y1 + y2)
                                  for x1, y1 in a.intervals for x2, y2 in b.intervals])


def test_minkowski_and_normalize_match_reference():
    rng = random.Random(27)
    cases = [(9, [], []), (9, [(0, 9)], [(3, 4)]), (12, [(11, 12), (0, 1)], [(0, 12)])]
    for d in (1, 2, 7, 64, 1000, 3**40, 2**61 - 1, 2**62, 2**63 + 9, 2**70):
        for _ in range(12):
            k = rng.randint(0, 6)
            width = rng.choice([d // 50 + 1, d // 5 + 1, d])  # sparse .. covering
            cases.append((d, *[[(x, x + rng.randint(1, width)) for x in
                                (rng.randrange(-d, 2 * d) for _ in range(k))]
                               for _ in range(2)]))
    for d, raw_a, raw_b in cases:
        for raw in (raw_a, raw_b, raw_a + [(y, x) for x, y in raw_b]):  # reversed: dropped
            got = tis(d, raw).intervals
            assert got == reference_normalize(d, raw)
            assert all(type(v) is int for pair in got for v in pair)
        a, b = tis(d, raw_a), tis(d, raw_b)
        got = intervals._minkowski(a, b)
        assert got.intervals == reference_minkowski(a, b), (d, raw_a, raw_b)
        assert all(type(v) is int for pair in got.intervals for v in pair)
        if not a.is_empty():
            lam = rng.randint(2, 9)
            ref_scaled = TorusIntervalSet(d, reference_normalize(
                d, [(lam * x, lam * y) for x, y in a.intervals]))
            assert scale_intervals(a, lam) == ref_scaled
            assert interval_dilate_sum(a, lam).intervals == reference_minkowski(a, ref_scaled)
    # full-circle shortcut, wrap split, touching arcs merged
    assert intervals._minkowski(tis(10, [(0, 6)]), tis(10, [(0, 5)])).intervals == ((0, 10),)
    assert intervals._minkowski(tis(10, [(7, 9)]), tis(10, [(2, 4)])).intervals == \
        ((0, 3), (9, 10))
    assert intervals._minkowski(tis(10, [(1, 2), (4, 5)]), tis(10, [(0, 2)])).intervals == \
        ((1, 7),)


def test_minkowski_closes_once_per_length():
    # B with several distinct lengths against A whose gaps equal some of
    # them, so closed arcs touch (gap == length) and must merge
    a = tis(40, [(0, 2), (5, 7), (9, 10), (14, 15)])      # gaps 3, 2, 4
    b = tis(40, [(0, 2), (6, 9), (12, 14), (20, 24)])     # lengths 2, 3, 2, 4
    assert intervals._minkowski(a, b).intervals == reference_minkowski(a, b)
    assert intervals._minkowski(tis(20, [(0, 2), (5, 7)]), tis(20, [(0, 3)])).intervals == \
        ((0, 10),)                                        # [0, 5) and [5, 10) touch
    rng = random.Random(28)
    for _ in range(300):
        d = rng.choice([30, 97, 1000, 2**40 + 15])
        operands = []
        for _ in range(2):
            x, raw = rng.randrange(d), []
            for _ in range(rng.randint(1, 8)):
                length = rng.randint(1, 4)
                raw.append((x, x + length))
                x += length + rng.randint(1, 5)
            operands.append(tis(d, raw))
        a, b = operands
        got = intervals._minkowski(a, b)
        assert got.intervals == reference_minkowski(a, b), (d, a, b)
        assert all(type(v) is int for pair in got.intervals for v in pair)


@pytest.mark.parametrize("d", [2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1, 2**31, 2**31 + 1])
def test_packed_keys_across_the_dtype_switch(d):
    # _normalize sorts (start << k) | end with k = d.bit_length(), and
    # _minkowski the formed arcs on the line with k = (2d).bit_length():
    # int64 keys up to d < 2^31 and d < 2^30, exact Python ints from there
    assert (intervals._exact_dtype(d << d.bit_length()) is object) == (d >= 2**31)
    assert (intervals._exact_dtype(d << (2 * d).bit_length()) is object) == (d >= 2**30)
    rng = random.Random(d)
    edges = [(d - 1, d), (0, 1), (d - 2, d + 3), (d // 2, d // 2 + 1), (d // 2, d)]
    for _ in range(30):
        raw_a, raw_b = ([(x, x + rng.randint(1, rng.choice([3, d // 7, d // 2])))
                         for x in (rng.randrange(-d, 2 * d) for _ in range(rng.randint(0, 6)))]
                        for _ in range(2))
        raw_a += rng.sample(edges, 2)
        raw_b += rng.sample(edges, 1)
        for raw in (raw_a, raw_b):
            got = tis(d, raw).intervals
            assert got == reference_normalize(d, raw)
            assert all(type(v) is int for pair in got for v in pair)
        a, b = tis(d, raw_a), tis(d, raw_b)
        assert intervals._minkowski(a, b).intervals == reference_minkowski(a, b)


def test_minkowski_folds_only_the_merged_arcs(monkeypatch):
    folded = []

    def spy(d, starts, ends):
        folded.append(len(starts))
        return normalize(d, starts, ends)

    normalize = intervals._normalize
    monkeypatch.setattr(intervals, "_normalize", spy)
    # the last column counts the merged line arcs handed to the fold
    for d, raw_a, raw_b, want, fold in [
        # the line union ends exactly at d: already canonical, no fold
        (10, [(1, 3)], [(5, 7)], ((6, 10),), 0),
        (2**70, [(1, 3)], [(2**70 - 5, 2**70 - 3)], ((2**70 - 4, 2**70),), 0),
        # it runs past d: the merged arc splits at 0
        (10, [(7, 9)], [(2, 4)], ((0, 3), (9, 10)), 1),
        (10, [(1, 2), (6, 7)], [(5, 7)], ((1, 4), (6, 9)), 2),
        # formed arcs [0, 8) and [5, 13), each shorter than d, merge on the
        # line into [0, 13): the full circle
        (10, [(0, 4)], [(0, 4), (5, 9)], ((0, 10),), 1),
    ]:
        a, b = tis(d, raw_a), tis(d, raw_b)
        folded.clear()
        assert reference_minkowski(a, b) == want
        assert intervals._minkowski(a, b).intervals == want
        assert folded == ([fold] if fold else [])


def test_interval_dilate_sum_memory_per_formed_arc():
    # the simplex n = 4, lam = 32 sum forms 99 640 arcs that merge to 748;
    # only packed keys and their running maximum are held per formed arc
    a = encode_grid_to_intervals(simplex_grid_set(4, 32))
    tracemalloc.start()
    try:
        out = interval_dilate_sum(a, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.intervals) == 748
    assert peak < 40 * 99_640


def test_interval_dilate_sum_against_residue_model():
    # model the circle at a fine resolution Q: members of A become residues,
    # and A + lam*A on intervals must contain the residue sumset and be
    # contained in its 1-cell thickening
    from dilates.residues import dilate, sumset
    rng = random.Random(23)
    for _ in range(25):
        d = rng.choice([8, 12, 27])
        a = tis(d, [(rng.randrange(d), rng.randrange(d) + 1) for _ in range(2)])
        lam = rng.randint(2, 4)
        out = interval_dilate_sum(a, lam)
        # residues r with [r/d,(r+1)/d) inside A
        a_res = discretize_to_zp(a, d)
        model = sumset(a_res, dilate(a_res, lam))
        # every modelled cell [r/d, (r+1)/d) must lie inside the interval sum
        for r in model.elements():
            assert out.contains_set(TorusIntervalSet(d, ((r, r + 1),)))


# ---------------------------------------------------------------- discretize

def test_discretize_examples():
    assert discretize_to_zp(TorusIntervalSet(9, ((0, 9),)), 7).bits == (1 << 7) - 1
    third = tis(3, [(1, 2)])
    assert discretize_to_zp(third, 9).elements() == (3, 4, 5)
    cell = tis(9, [(5, 6)])
    assert discretize_to_zp(cell, 101).elements() == tuple(range(57, 67))


def test_discretize_matches_per_residue_definition():
    def oracle(a, p):
        d = a.denominator
        return {r for r in range(p) for x, y in a.intervals
                if r * d >= x * p and (r + 1) * d <= y * p}

    rng = random.Random(25)
    cases = [
        tis(9, [(0, 1)]), tis(9, [(8, 9)]), tis(9, [(8, 10)]),  # touch 0 / p-1 / wrap
        tis(1000, [(0, 10), (990, 1000)]),
        tis(1000, [(5, 6), (500, 503), (700, 800)]),            # shorter than 1/p
        TorusIntervalSet(7, ((0, 7),)), TorusIntervalSet.empty(7),
    ]
    for _ in range(20):
        d = rng.choice([9, 64, 1000])
        cases.append(tis(d, [(x, x + rng.randint(1, d // 3))
                             for x in rng.sample(range(d), 4)]))
    for a in cases:
        for p in (2, 7, 101, 1009):
            assert set(discretize_to_zp(a, p).elements()) == oracle(a, p)
    # D*p >= 2^62 (at p = 1009 for both, and every p for 10^30): the runs
    # are found on Python-int endpoints
    for d in (2**53, 10**30):
        assert intervals._exact_dtype(d * 1009) is object
        big = [tis(d, [(0, d // 3), (d // 2, d // 2 + 1), (d - d // 5, d)]),
               tis(d, [(x, x + rng.randint(1, d // 3)) for x in
                       (rng.randrange(d) for _ in range(4))]),
               TorusIntervalSet(d, ((0, d),)), TorusIntervalSet.empty(d)]
        for a in big:
            for p in (2, 7, 1009):
                assert set(discretize_to_zp(a, p).elements()) == oracle(a, p)
    # p far above D: runs of tens of thousands of residues each
    a = tis(9, [(0, 2), (4, 5), (8, 9)])
    got = discretize_to_zp(a, 100_003)
    assert set(got.elements()) == oracle(a, 100_003)
    assert len(got) == 22_222 + 11_111 + 11_111


def test_discretize_refuses_p_past_int64():
    # residues past 2^62 leave int64 by the one rule: a scale cap, raised
    # before any p-sized array is asked for
    a = TorusIntervalSet(4, [(3, 4)])
    for p in (2**62 + 135, 2**63 + 29):
        with pytest.raises(ScaleCapError, match="not below 2\\^62"):
            discretize_to_zp(a, p)


def test_discretize_refuses_p_below_one():
    # refused before any run array is formed, with a message naming p
    a = TorusIntervalSet(4, [(3, 4)])
    for p in (0, -5):
        with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
            discretize_to_zp(a, p)


def test_discretize_density_below_measure_and_converges():
    rng = random.Random(24)
    for _ in range(20):
        d = rng.choice([27, 81])
        a = tis(d, [(rng.randrange(d), rng.randrange(d) + rng.randint(1, 5))
                    for _ in range(3)])
        for p in (101, 1009, 10007):
            ap = discretize_to_zp(a, p)
            density = F(len(ap), p)
            assert density <= a.measure()
            assert a.measure() - density <= F(2 * len(a.intervals), p)


def test_discretize_single_cell_at_matching_denominator():
    s = GridSet.from_tuples(2, 3, [(2, 1)])
    a = encode_grid_to_intervals(s)
    # p = lam^n is composite
    assert len(discretize_to_zp(a, 9)) == 1


def test_interval_model_matches_residue_model():
    # [r, r+1) + lam*[s, s+1) = [r + lam*s, r + lam*s + lam + 1), so over
    # D = lam^n the interval sum is the union of unit cells
    # E + lam*E + {0, ..., lam} mod D
    rng = random.Random(27)
    for _ in range(150):
        lam, dim = rng.randint(2, 6), rng.randint(1, 3)
        d = lam**dim
        cells = frozenset(rng.sample(range(d), rng.randint(0, min(d, 30))))
        got = interval_dilate_sum(encode_grid_to_intervals(GridSet(dim, lam, cells)), lam)
        residue_sum = sumset(dilate_sum(ResidueSet.from_elements(d, cells), lam),
                             ResidueSet.from_elements(d, range(lam + 1)))
        want = tis(d, [(t, t + 1) for t in residue_sum.elements()])
        assert got == want, (lam, dim, sorted(cells))
    # simplex grids with lam^n <= 5*10^4, where the sum forms up to ~10^5 arcs
    for dim, lam in [(4, 5), (4, 14), (5, 3), (5, 8)]:
        d = lam**dim
        s = simplex_grid_set(dim, lam)
        got = interval_dilate_sum(encode_grid_to_intervals(s), lam)
        residue_sum = sumset(dilate_sum(ResidueSet.from_elements(d, s.sorted_cells), lam),
                             ResidueSet.from_elements(d, range(lam + 1)))
        assert got == tis(d, [(t, t + 1) for t in residue_sum.elements()]), (dim, lam)


# ---------------------------------------------------------------- pipeline

def test_pipeline_worked_example():
    s = GridSet.from_tuples(2, 3, [(1, 2)])
    rep = pipeline_check(s, 101)
    assert rep.interval_dilate_sum_measure == F(4, 9)
    assert rep.grid_projection_measure == F(2, 3)
    assert rep.residue_density == F(10, 101)
    assert rep.residue_dilate_sum_density <= F(4, 9) + F(3, 101)
    assert rep.all_hold
    d = rep.to_json_dict()
    assert d["interval_dilate_sum_measure"] == "4/9"
    assert d["grid_projection_measure_decimal"].startswith("0.6666")


def test_pipeline_empty_grid():
    # lam^(n-1) = 2^27 is above the mask cap: an empty grid builds no mask
    for s in (GridSet.empty(2, 3), GridSet.empty(28, 2)):
        rep = pipeline_check(s, 11)
        assert rep.residue_density == 0
        assert rep.interval_measure == 0
        assert rep.grid_projection_measure == 0
        assert rep.all_hold


def test_pipeline_box_end_to_end():
    s = box_grid_set(2, 9, [F(1, 3), F(1, 3)])
    rep = pipeline_check(s, 10007)
    assert rep.grid_projection_measure == F(4, 9)
    assert rep.residue_dilate_sum_density <= F(4, 9)
    assert rep.all_hold


def test_pipeline_requires_prime_and_dim2():
    s = GridSet.from_tuples(2, 3, [(1, 2)])
    with pytest.raises(ValueError, match="prime"):
        pipeline_check(s, 100)
    with pytest.raises(ValueError):
        pipeline_check(GridSet.from_tuples(1, 3, [(1,)]), 101)
    with pytest.raises(ValueError):
        pipeline_check(GridSet.empty(1, 3), 101)


def test_pipeline_reads_s_prime_like_grid_projection_sumset():
    # pipeline_check counts and encodes S' from its mask; the measure and
    # the containment verdict must be those of grid_projection_sumset
    rng = random.Random(29)
    for dim in (2, 3, 4):
        for lam in (2, 3, 5):
            size = lam**dim
            for count in (0, size, rng.randint(1, min(6, size)), rng.randint(1, size)):
                grid = GridSet(dim, lam, frozenset(rng.sample(range(size), count)))
                rep = pipeline_check(grid, 101, strict=False)
                s_prime = grid_projection_sumset(grid)
                a_sum = interval_dilate_sum(encode_grid_to_intervals(grid), lam)
                assert rep.grid_projection_measure == s_prime.measure()
                assert rep.continuous_within_grid == (a_sum.measure() <= s_prime.measure())
                assert rep.interval_inside_grid_prediction == \
                    encode_grid_to_intervals(s_prime).contains_set(a_sum)


def test_pipeline_simplex_chain_pinned():
    # the heaviest simplex chain of the pipeline benchmark, byte for byte
    rep = pipeline_check(simplex_grid_set(7, 8), 10007)
    assert rep.interval_measure == F(429, 524288)
    assert rep.interval_dilate_sum_measure == F(71869, 1048576)
    assert rep.grid_projection_measure == F(35809, 131072)
    assert rep.all_hold
    assert sha256(canonical_json(rep.to_json_dict())).hexdigest() == \
        "ac305cbc66cc5c63f64e1d7a186bb09671777be3de26f63a4df7d199559fbce6"


def test_pipeline_anchor_chain_pinned():
    # the ROADMAP anchor chain of the pipeline benchmark (d = 3, lam = 64,
    # optimized box, p = 10^6 + 3), byte for byte
    grid = box_grid_set(3, 64, optimized_box_sides_3d(F(1, 64), 64))
    rep = pipeline_check(grid, 1000003)
    assert rep.residue_density == F(15062, 1000003)
    assert rep.residue_dilate_sum_density == F(205613, 1000003)
    assert rep.grid_projection_measure == F(225, 1024)
    assert rep.all_hold
    assert sha256(canonical_json(rep.to_json_dict())).hexdigest() == \
        "461504539c2a6efe4936eaea08fe68147f2ff5a5a99b0d4be52aee6294a24240"


def test_pipeline_builds_no_interval_tuples(monkeypatch):
    # every stage reads the endpoint arrays; the tuple view is for callers
    def refuse(self):
        raise AssertionError("pipeline stage built an interval tuple")

    monkeypatch.setattr(TorusIntervalSet, "intervals", property(refuse))
    grids = [simplex_grid_set(7, 8), simplex_grid_set(4, 9),
             box_grid_set(2, 9, [F(1, 3), F(1, 3)]),
             box_grid_set(3, 64, optimized_box_sides_3d(F(1, 64), 64)), GridSet.empty(2, 3)]
    for grid, p in zip(grids, (10007, 6563, 10007, 1000003, 11)):
        assert pipeline_check(grid, p).all_hold
    with pytest.raises(AssertionError, match="tuple"):
        _ = tis(9, [(1, 2)]).intervals


def test_pipeline_check_strict_raises_on_a_broken_kernel(monkeypatch):
    # a residue sum that fills Z/pZ passes mu(A + lam*A): strict raises,
    # non-strict reports the one false link
    monkeypatch.setattr(intervals, "dilate_sum",
                        lambda a, lam: ResidueSet(a.modulus, (1 << a.modulus) - 1))
    grid = simplex_grid_set(4, 9)
    with pytest.raises(MathAssertionError, match="pipeline chain violated"):
        pipeline_check(grid, 6563)
    rep = pipeline_check(grid, 6563, strict=False)
    assert rep.residue_dilate_sum_density == 1 and not rep.discrete_within_continuous
    assert rep.continuous_within_grid and rep.interval_inside_grid_prediction


def test_overflow_containment_random_grids():
    # carry soundness: A + lam*A stays inside the cells the projection
    # sumset predicts
    rng = random.Random(25)
    for _ in range(40):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3, 4])
        cells = frozenset(rng.sample(range(lam**dim), rng.randint(0, min(20, lam**dim))))
        grid = GridSet(dim, lam, cells)
        assert pipeline_check(grid, 101).interval_inside_grid_prediction


def test_chain_holds_on_random_grids():
    rng = random.Random(26)
    for _ in range(25):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3])
        cells = frozenset(rng.sample(range(lam**dim), rng.randint(1, lam**dim)))
        rep = pipeline_check(GridSet(dim, lam, cells), 1009)
        assert rep.all_hold
