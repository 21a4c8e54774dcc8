"""Circle interval sets, base-lam encoding, and the full claim chain."""

import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from hashlib import sha256
from itertools import product
from math import lcm

import numpy as np
import pytest

from dilates import intervals
from dilates.cache import canonical_json
from dilates.errors import ScaleCapError
from dilates.grids import (GridSet, box_grid_set, grid_projection_sumset,
                           optimized_box_sides_3d, simplex_grid_set)
from dilates.intervals import (TorusIntervalSet, discretize_to_zp,
                               encode_grid_to_intervals, interval_dilate_sum,
                               pipeline_check, scale_intervals)
from dilates.residues import ResidueSet, dilate_sum, sumset

F = Fraction


def tis(d, pairs):
    return TorusIntervalSet.from_raw(d, pairs)


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
    cases = [((0, ()), "denominator must be positive, got 0"),
             ((-3, ((0, 1),)), "denominator must be positive, got -3"),
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
    with pytest.raises(ValueError, match="denominator must be positive"):
        TorusIntervalSet.from_raw(0, [(0, 1)])


def test_non_integer_endpoints_rejected():
    for d, pairs in [(10, ((0.5, 2),)), (10, ((0, F(3, 2)),)), (10.0, ()), (F(10), ()),
                     (10, (("0", "2"),))]:
        with pytest.raises(TypeError, match="must be integers"):
            TorusIntervalSet(d, pairs)
        with pytest.raises(TypeError, match="must be integers"):
            TorusIntervalSet.from_raw(d, pairs)
    s = TorusIntervalSet(np.int64(10), ((np.int64(1), np.int32(3)),))
    assert s == tis(10, [(1, 3)]) and type(s.denominator) is int
    assert all(type(v) is int for pair in s.intervals for v in pair)


def test_tuple_form_identity_and_immutability():
    for d, pairs in [(9, ((0, 2), (5, 6))), (9, ()), (2**70, ((3, 2**69), (2**69 + 1, 2**70)))]:
        s = TorusIntervalSet(d, pairs)
        assert s.intervals == pairs
        assert hash(s) == hash((d, pairs))
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


def test_parse_format_roundtrip():
    s = tis(9, [(5, 6), (0, 2)])
    assert TorusIntervalSet.parse(s.format()) == s
    assert TorusIntervalSet.parse("D=9;").is_empty()
    with pytest.raises(ValueError):
        TorusIntervalSet.parse("9;[1,2)")


def test_encode_cap():
    # 200^4 > 2^30: refused before the one cell is encoded
    with pytest.raises(ScaleCapError, match="encode cap"):
        encode_grid_to_intervals(GridSet.from_tuples(4, 200, [(1, 1, 1, 1)]))


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
    assert intervals._endpoint_dtype(lcm(2**32 - 5, 2**31 - 1)) is object
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


def test_encode_cells_matches_normalize():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.choice([1, 2, 9, 64, 1000, 4096])
        cells = np.array(sorted(rng.sample(range(d), rng.randint(0, d))), dtype=np.int64)
        got = intervals._encode_cells(d, cells)
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
    assert scale_intervals(tis(4, [(0, 1)]), 4) == TorusIntervalSet.full(4)
    rng = random.Random(22)
    for _ in range(30):
        d = rng.choice([12, 30])
        raw = [(rng.randrange(d), 0)]
        raw = [(a, a + rng.randint(1, d)) for a, _ in raw]
        a = tis(d, raw)
        lam = rng.randint(2, 5)
        assert scale_intervals(a, lam).measure() == min(lam * a.measure(), 1)


def test_interval_dilate_sum_examples():
    assert interval_dilate_sum(tis(9, [(0, 3)]), 3) == TorusIntervalSet.full(9)
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


def reference_from_raw(d, raw):
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
    return reference_from_raw(d, [(x1 + x2, y1 + y2)
                                  for x1, y1 in a.intervals for x2, y2 in b.intervals])


def test_minkowski_and_from_raw_match_reference():
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
            got = TorusIntervalSet.from_raw(d, raw).intervals
            assert got == reference_from_raw(d, raw)
            assert all(type(v) is int for pair in got for v in pair)
        a, b = tis(d, raw_a), tis(d, raw_b)
        got = intervals._minkowski(a, b)
        assert got.intervals == reference_minkowski(a, b), (d, raw_a, raw_b)
        assert all(type(v) is int for pair in got.intervals for v in pair)
        if not a.is_empty():
            lam = rng.randint(2, 9)
            ref_scaled = TorusIntervalSet(d, reference_from_raw(
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


@pytest.mark.parametrize("d", [2**31 - 1, 2**31, 2**31 + 1])
def test_packed_keys_across_the_dtype_switch(d):
    # _normalize sorts (start << k) | end with k = d.bit_length(): int64 keys
    # up to d < 2^31, exact Python ints from there
    packed = intervals._endpoint_dtype(d << d.bit_length())
    assert (packed is object) == (d >= 2**31)
    rng = random.Random(d)
    edges = [(d - 1, d), (0, 1), (d - 2, d + 3), (d // 2, d // 2 + 1), (d // 2, d)]
    for _ in range(30):
        raw_a, raw_b = ([(x, x + rng.randint(1, rng.choice([3, d // 7, d // 2])))
                         for x in (rng.randrange(-d, 2 * d) for _ in range(rng.randint(0, 6)))]
                        for _ in range(2))
        raw_a += rng.sample(edges, 2)
        for raw in (raw_a, raw_b):
            got = TorusIntervalSet.from_raw(d, raw).intervals
            assert got == reference_from_raw(d, raw)
            assert all(type(v) is int for pair in got for v in pair)
        a, b = tis(d, raw_a), tis(d, raw_b)
        assert intervals._minkowski(a, b).intervals == reference_minkowski(a, b)


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
            assert out.contains_set(TorusIntervalSet.from_raw(d, [(r, r + 1)]))


# ---------------------------------------------------------------- discretize

def test_discretize_examples():
    assert discretize_to_zp(TorusIntervalSet.full(9), 7).bits == (1 << 7) - 1
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
        TorusIntervalSet.full(7), TorusIntervalSet.empty(7),
    ]
    for _ in range(20):
        d = rng.choice([9, 64, 1000])
        cases.append(tis(d, [(x, x + rng.randint(1, d // 3))
                             for x in rng.sample(range(d), 4)]))
    for a in cases:
        for p in (2, 7, 101, 1009):
            assert set(discretize_to_zp(a, p).elements()) == oracle(a, p)


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
    rep = pipeline_check(GridSet.empty(2, 3), 11)
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
    def refuse(starts, ends):
        raise AssertionError("pipeline stage built an interval tuple")

    monkeypatch.setattr(intervals, "_as_pairs", refuse)
    grids = [simplex_grid_set(7, 8), simplex_grid_set(4, 9),
             box_grid_set(2, 9, [F(1, 3), F(1, 3)]),
             box_grid_set(3, 64, optimized_box_sides_3d(F(1, 64), 64)), GridSet.empty(2, 3)]
    for grid, p in zip(grids, (10007, 6563, 10007, 1000003, 11)):
        assert pipeline_check(grid, p).all_hold
    with pytest.raises(AssertionError, match="tuple"):
        _ = tis(9, [(1, 2)]).intervals


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
