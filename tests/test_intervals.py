"""Circle interval sets, base-lam encoding, and the full claim chain."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from dilates import intervals
from dilates.errors import ScaleCapError
from dilates.grids import GridSet, box_grid_set
from dilates.intervals import (TorusIntervalSet, check_overflow_containment,
                               discretize_to_zp, encode_grid_to_intervals,
                               interval_dilate_sum, pipeline_check,
                               scale_intervals)

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
    with pytest.raises(ValueError):
        TorusIntervalSet(10, ((3, 3),))
    with pytest.raises(ValueError):
        TorusIntervalSet(10, ((0, 4), (4, 6)))  # adjacent must be merged
    with pytest.raises(ValueError):
        TorusIntervalSet(10, ((5, 11),))


def test_parse_format_roundtrip():
    s = tis(9, [(5, 6), (0, 2)])
    assert TorusIntervalSet.parse(s.format()) == s
    assert TorusIntervalSet.parse("D=9;").is_empty()
    with pytest.raises(ValueError):
        TorusIntervalSet.parse("9;[1,2)")


def test_rescale_and_caps():
    s = tis(3, [(1, 2)])
    assert s.rescale(9).intervals == ((3, 6),)
    with pytest.raises(ValueError):
        s.rescale(7)
    with pytest.raises(ScaleCapError):
        encode_grid_to_intervals(GridSet.from_tuples(2, 9, [(1, 1)]), size_cap=10)


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
    # the pair cap: 1001 * 1000 pairs > _PAIR_CAP, and a caller's own cap
    with pytest.raises(ScaleCapError, match="pair cap"):
        intervals._minkowski(tis(10**4, [(2 * i, 2 * i + 1) for i in range(1001)]),
                             tis(10**4, [(2 * i, 2 * i + 1) for i in range(1000)]))
    with pytest.raises(ScaleCapError, match="pair cap"):
        interval_dilate_sum(tis(9, [(0, 1), (3, 4)]), 2, pair_cap=3)
    assert interval_dilate_sum(tis(9, [(0, 1), (3, 4)]), 2, pair_cap=4).measure() > 0


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
        a_res = discretize_to_zp(a, d, check_prime=False)
        model = sumset(a_res, dilate(a_res, lam))
        # every modelled cell [r/d, (r+1)/d) must lie inside the interval sum
        for r in model.elements():
            assert out.contains_set(TorusIntervalSet.from_raw(d, [(r, r + 1)]))


# ---------------------------------------------------------------- discretize

def test_discretize_examples():
    assert discretize_to_zp(TorusIntervalSet.full(9), 7).bits == (1 << 7) - 1
    third = tis(3, [(1, 2)])
    assert discretize_to_zp(third, 9, check_prime=False).elements() == (3, 4, 5)
    cell = tis(9, [(5, 6)])
    assert discretize_to_zp(cell, 101).elements() == tuple(range(57, 67))
    with pytest.raises(ValueError, match="prime"):
        discretize_to_zp(third, 9)


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
    # p = lam^n is composite; oracle mode
    assert len(discretize_to_zp(a, 9, check_prime=False)) == 1


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


def test_overflow_containment_random_grids():
    rng = random.Random(25)
    for _ in range(40):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3, 4])
        cells = frozenset(rng.sample(range(lam**dim), rng.randint(0, min(20, lam**dim))))
        assert check_overflow_containment(GridSet(dim, lam, cells))


def test_chain_holds_on_random_grids():
    rng = random.Random(26)
    for _ in range(25):
        dim = rng.choice([2, 3])
        lam = rng.choice([2, 3])
        cells = frozenset(rng.sample(range(lam**dim), rng.randint(1, lam**dim)))
        rep = pipeline_check(GridSet(dim, lam, cells), 1009)
        assert rep.all_hold
