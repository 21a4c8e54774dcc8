"""Circle interval sets, base-lam encoding, and the full claim chain."""

import random
from fractions import Fraction

import pytest

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
    from dilates.errors import ScaleCapError
    with pytest.raises(ScaleCapError):
        encode_grid_to_intervals(GridSet.from_tuples(2, 9, [(1, 1)]), size_cap=10)


def test_contains_set_across_denominators():
    big = tis(3, [(0, 2)])
    small = tis(9, [(1, 5)])
    assert big.contains_set(small)
    assert not small.contains_set(big)
    assert big.contains_set(TorusIntervalSet.empty(7))


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
