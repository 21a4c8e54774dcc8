"""Generalized arithmetic progressions: expansion, properness, truncation,
span containment, and the exhaustive finder."""

import random
from itertools import permutations, product

import numpy as np
import pytest

from dilates.errors import ScaleCapError
from dilates.gaps import (Gap, expand, find_max_proper_gap, is_proper,
                          lambda_span_check, truncate_to_large_steps)
from dilates.gaps import _level_tables, _ratio_table, _run_tables
from dilates.residues import ResidueSet, iterated_sumset


def rs(p, elems):
    return ResidueSet.from_elements(p, elems)


def oracle_expand(gap):
    """Direct product enumeration, independent of the library recursion."""
    p = gap.modulus
    out = set()
    for combo in product(*(range(k) for k in gap.lengths)):
        out.add((gap.base + sum(j * v for j, v in zip(combo, gap.generators))) % p)
    return out


# ---------------------------------------------------------------- expansion

def test_expand_examples():
    assert expand(Gap(11, 0, (2,), (3,))) == rs(11, [0, 2, 4])
    assert expand(Gap(7, 0, (1, 2), (2, 2))) == rs(7, [0, 1, 2, 3])
    collide = Gap(5, 0, (1, 2), (3, 2))
    assert expand(collide) == rs(5, range(5))
    assert len(expand(collide)) == 5 < collide.nominal_size


def test_expand_matches_oracle():
    rng = random.Random(40)
    for _ in range(100):
        p = rng.choice([11, 13, 31])
        d = rng.randint(1, 3)
        gens, lens = [], []
        for _ in range(d):
            k = rng.randint(1, 4)
            v = rng.randint(1, p - 1) if k >= 2 else rng.randrange(p)
            gens.append(v)
            lens.append(k)
        gap = Gap(p, rng.randrange(p), tuple(gens), tuple(lens))
        assert set(expand(gap).elements()) == oracle_expand(gap)
        assert len(expand(gap)) <= gap.nominal_size


def test_expand_translation():
    rng = random.Random(41)
    for _ in range(30):
        p = 13
        gap0 = Gap(p, 0, (rng.randint(1, 12), rng.randint(1, 12)), (2, 3))
        a = rng.randrange(p)
        shifted = Gap(p, a, gap0.generators, gap0.lengths)
        assert set(expand(shifted).elements()) == {(x + a) % p
                                                   for x in expand(gap0).elements()}


def test_is_proper_examples():
    assert is_proper(Gap(11, 0, (2,), (3,)))
    assert not is_proper(Gap(5, 0, (1, 2), (3, 2)))
    assert is_proper(Gap(7, 3, (0, 5), (1, 1)))  # singleton
    # any 1-dim progression with v != 0 and k <= p is proper
    rng = random.Random(42)
    for _ in range(30):
        p = rng.choice([7, 31])
        assert is_proper(Gap(p, rng.randrange(p), (rng.randint(1, p - 1),),
                             (rng.randint(1, p),)))


def test_is_proper_invariances():
    rng = random.Random(43)
    for _ in range(30):
        p = 31
        gens = (rng.randint(1, p - 1), rng.randint(1, p - 1), rng.randint(1, p - 1))
        lens = (rng.randint(2, 3), rng.randint(2, 3), 2)
        gap = Gap(p, 5, gens, lens)
        base_proper = is_proper(gap)
        for perm in permutations(range(3)):
            permuted = Gap(p, 5, tuple(gens[i] for i in perm),
                           tuple(lens[i] for i in perm))
            assert is_proper(permuted) == base_proper
        u = rng.randint(1, p - 1)
        dilated = Gap(p, 5, tuple(v * u % p for v in gens), lens)
        assert is_proper(dilated) == base_proper


def test_gap_validation_and_literals():
    with pytest.raises(ValueError):
        Gap(10, 0, (1,), (2,))  # composite modulus
    with pytest.raises(ValueError):
        Gap(11, 0, (0,), (2,))  # zero generator with length 2
    with pytest.raises(ValueError):
        Gap(11, 0, (1, 2), (2,))
    g = Gap(11, 3, (2, 5), (4, 1))
    assert Gap.parse(g.format()) == g
    assert g.is_degenerate  # a k=1 term
    assert not Gap(11, 0, (2,), (3,)).is_degenerate
    # 101^4 > 2^26: refused before any residue is enumerated
    with pytest.raises(ScaleCapError, match="exceeds cap"):
        expand(Gap(101, 0, (1, 2, 3, 4), (101,) * 4))


# ---------------------------------------------------------------- truncation

def test_truncate_examples():
    g = Gap(11, 1, (3, 7), (5, 2))
    t = truncate_to_large_steps(g, 3)
    assert t == Gap(11, 0, (3,), (5,))
    both = truncate_to_large_steps(Gap(11, 1, (3, 7), (5, 5)), 3)
    assert both.lengths == (5, 5) and both.base == 0
    with pytest.raises(ValueError, match="length >= 4"):
        truncate_to_large_steps(Gap(11, 0, (3,), (3,)), 4)


def test_truncate_sorts_by_length():
    g = Gap(31, 2, (4, 9, 11), (2, 6, 4))
    t = truncate_to_large_steps(g, 3)
    assert t.generators == (9, 11) and t.lengths == (6, 4)


def test_truncate_size_guarantee_on_proper_input():
    # |P'| >= |P| / lam^(d-m) for proper P
    g = Gap(11, 0, (1, 5), (4, 2))
    assert is_proper(g)
    t = truncate_to_large_steps(g, 3)
    assert expand(t) == rs(11, [0, 1, 2, 3])
    lam_pow = 3 ** (g.dimension - t.dimension)
    assert len(expand(t)) * lam_pow >= len(expand(g))
    rng = random.Random(44)
    for _ in range(40):
        p = 101
        g = Gap(p, rng.randrange(p),
                (rng.randint(1, p - 1), rng.randint(1, p - 1)),
                (rng.randint(2, 6), rng.randint(2, 6)))
        if not is_proper(g) or max(g.lengths) < 3:
            continue
        t = truncate_to_large_steps(g, 3)
        assert len(expand(t)) * 3 ** (g.dimension - t.dimension) >= len(expand(g))


# ---------------------------------------------------------------- span check

def test_lambda_span_worked_example():
    report = lambda_span_check(Gap(13, 0, (1,), (4,)), 3, 1)
    assert report.holds
    assert report.lhs == 13  # {0..3} + {0,3,6,9} covers Z/13Z
    assert report.rhs == 10  # 3-fold sumset of {0,1,2,3}
    assert dict(report.details)["cd_floor"] == "10"


def test_lambda_span_exponent_zero_is_equality():
    report = lambda_span_check(Gap(13, 0, (2,), (5,)), 4, 0)
    assert report.holds and report.lhs == report.rhs == 5


def test_lambda_span_random_proper_d1():
    rng = random.Random(45)
    for _ in range(60):
        p = rng.choice([31, 61, 101])
        lam = rng.randint(2, 4)
        k = rng.randint(lam, 8)
        gap = Gap(p, 0, (rng.randint(1, p - 1),), (k,))
        exponent = rng.randint(1, 2)
        report = lambda_span_check(gap, lam, exponent)
        assert report.holds
        # the right side matches the library's iterated sumset directly
        assert report.rhs == len(iterated_sumset(expand(gap), lam**exponent))


def test_lambda_span_validation():
    with pytest.raises(ValueError, match="length >= lam|every length"):
        lambda_span_check(Gap(13, 0, (1,), (2,)), 3, 1)


# ---------------------------------------------------------------- finder

def test_finder_examples():
    assert find_max_proper_gap(ResidueSet.full(11), 2) == Gap(11, 0, (1,), (11,))
    found = find_max_proper_gap(rs(11, [0, 2, 4, 6]), 2)
    assert found == Gap(11, 0, (2,), (4,))
    single = find_max_proper_gap(rs(11, [5]), 1)
    assert single.nominal_size == 1 and single.base == 5


def test_finder_validation():
    with pytest.raises(ValueError):
        find_max_proper_gap(rs(11, []), 2)
    with pytest.raises(ScaleCapError):
        find_max_proper_gap(rs(103, [0, 1]), 2)
    with pytest.raises(ScaleCapError):
        find_max_proper_gap(rs(11, [0, 1]), 3)


def test_finder_result_is_proper_and_inside():
    rng = random.Random(46)
    for _ in range(15):
        p = rng.choice([11, 31])
        s = rs(p, rng.sample(range(p), rng.randint(1, p)))
        g = find_max_proper_gap(s, 2)
        assert is_proper(g)
        assert expand(g).is_subset(s)


def test_finder_recovers_planted_progressions():
    rng = random.Random(47)
    recovered = 0
    for _ in range(8):
        p = rng.choice([41, 53, 61])
        while True:
            g = Gap(p, rng.randrange(p),
                    (rng.randint(1, p - 1), rng.randint(1, p - 1)),
                    (rng.randint(2, 5), rng.randint(2, 4)))
            if g.nominal_size <= 20 and is_proper(g):
                break
        noise = rng.sample([x for x in range(p) if x not in expand(g)], 2)
        s = ResidueSet.from_elements(p, list(expand(g).elements()) + noise)
        found = find_max_proper_gap(s, 2)
        assert found.nominal_size >= g.nominal_size
        recovered += 1
    assert recovered == 8


def test_small_scale_doubling_narrative():
    # recorded empirically, not asserted as a theorem: for structured sets
    # with small doubling, the largest proper progression inside
    # 2A - 2A = A+A-A-A already reaches |A| at this scale
    from dilates.residues import difference_set, sumset

    rng = random.Random(49)
    cases = []
    for _ in range(10):
        p = rng.choice([53, 71, 101])
        kind = rng.random()
        if kind < 0.5:  # plain progression
            v = rng.randint(1, p - 1)
            k = rng.randint(3, 8)
            a0 = rng.randrange(p)
            a = rs(p, [(a0 + j * v) % p for j in range(k)])
        else:  # proper 2-dim progression
            while True:
                g = Gap(p, rng.randrange(p),
                        (rng.randint(1, p - 1), rng.randint(1, p - 1)),
                        (rng.randint(2, 4), rng.randint(2, 3)))
                if is_proper(g):
                    break
            a = expand(g)
        twice = sumset(a, a)
        spread = difference_set(twice, twice)  # 2A - 2A
        found = find_max_proper_gap(spread, 2)
        cases.append(found.nominal_size >= len(a))
    assert all(cases)


def test_finder_beats_or_ties_exhaustive_reference():
    # tiny p: compare against a fully naive reference over all (a, v, k) pairs
    def reference_best_nominal(s, d_max):
        p = s.modulus
        best = 1
        members = set(s.elements())
        for a in members:
            for v in range(1, p):
                k = 1
                while k < p and (a + k * v) % p in members:
                    k += 1
                best = max(best, k)
                if d_max < 2:
                    continue
                for v2 in range(1, p):
                    for k1 in range(2, k + 1):
                        k2 = 1
                        while True:
                            base2 = (a + k2 * v2) % p
                            if all((base2 + j * v) % p in members for j in range(k1)):
                                k2 += 1
                            else:
                                break
                            if k1 * k2 > p:
                                break
                        for kk in range(2, k2 + 1):
                            cand = Gap(p, a, (v, v2), (k1, kk))
                            if is_proper(cand):
                                best = max(best, k1 * kk)
        return best

    rng = random.Random(48)
    for _ in range(6):
        p = 13
        s = rs(p, rng.sample(range(p), rng.randint(2, p)))
        assert find_max_proper_gap(s, 2).nominal_size == reference_best_nominal(s, 2)


def reference_find_max_proper_gap(s, d_max):
    """The direct finder: run tables rebuilt per dimension, every (k1, kk)
    below the row-extension bound tested by expanding it with is_proper."""
    def run_table(members, p, v):
        run = [0] * p
        order = [0] * p
        x = 0
        for i in range(p):
            order[i] = x
            x = (x + v) % p
        nxt = 0
        for i in range(2 * p - 1, -1, -1):
            x = order[i % p]
            if members >> x & 1:
                nxt = min(nxt + 1, p)
            else:
                nxt = 0
            if i < p:
                run[x] = nxt
        return run

    p = s.modulus
    members = s.bits
    elements = s.elements()
    size = len(elements)
    best_key = None
    best = None

    def offer(nominal, a, vs, ks):
        nonlocal best_key, best
        key = (-nominal, len(vs), a, vs, ks)
        if best_key is None or key < best_key:
            best_key = key
            best = Gap(p, a, vs, ks)

    if size == 1:
        offer(1, elements[0], (0,), (1,))
        return best
    half = 1 if p == 2 else (p - 1) // 2
    for v in range(1, half + 1):
        run = run_table(members, p, v)
        for a in elements:
            offer(run[a], a, (v,), (run[a],))
    if -best_key[0] >= size:
        return best
    if d_max >= 2:
        for v1 in range(1, half + 1):
            run1 = run_table(members, p, v1)
            for a in elements:
                for k1 in range(2, run1[a] + 1):
                    cap2 = min(k1, size // k1, p // k1)
                    if cap2 < 2:
                        continue
                    for v2 in range(1, half + 1):
                        k2 = 1
                        while k2 < cap2 and run1[(a + k2 * v2) % p] >= k1:
                            k2 += 1
                        for kk in range(2, k2 + 1):
                            cand_key = (-k1 * kk, 2, a, (v1, v2), (k1, kk))
                            if cand_key >= best_key:
                                continue
                            if is_proper(Gap(p, a, (v1, v2), (k1, kk))):
                                offer(k1 * kk, a, (v1, v2), (k1, kk))
    return best


def assert_finder_matches_reference(s):
    for d_max in (1, 2):
        got = find_max_proper_gap(s, d_max).format()
        assert got == reference_find_max_proper_gap(s, d_max).format(), (s.format(), d_max)


def test_finder_matches_reference_on_random_sets():
    rng = random.Random(50)
    for p in (2, 3, 5, 7, 11, 13, 31):
        for _ in range(8):
            assert_finder_matches_reference(rs(p, rng.sample(range(p), rng.randint(1, p))))
    for p in (61, 101):  # densities 1/4 .. 2/3, as in the oracles benchmark
        for size in (p // 4, p // 2, 2 * p // 3):
            assert_finder_matches_reference(rs(p, rng.sample(range(p), size)))


def test_finder_matches_reference_on_edge_sets():
    rng = random.Random(51)
    for p in (2, 3, 5, 7, 11, 13, 31, 61, 101):
        assert_finder_matches_reference(ResidueSet.full(p))
        assert_finder_matches_reference(rs(p, [rng.randrange(p)]))
        assert_finder_matches_reference(rs(p, rng.sample(range(p), min(2, p))))


def test_finder_matches_reference_on_planted_progressions():
    rng = random.Random(52)
    for _ in range(12):
        p = rng.choice([31, 61, 101])
        planted = Gap(p, rng.randrange(p), (rng.randint(1, p - 1), rng.randint(1, p - 1)),
                      (rng.randint(2, 6), rng.randint(2, 5)))
        noise = rng.sample(range(p), rng.randint(0, 4))
        assert_finder_matches_reference(rs(p, list(expand(planted).elements()) + noise))


def test_finder_ties_across_k1_levels():
    # areas tie at 12 between the k1 = 6 and k1 = 4 levels; the least key
    # (-area, dimension, a, v, k) wins whichever level is searched first
    p = 61
    cases = [
        # equal a: the least (v1, v2) wins
        ([Gap(p, 0, (1, 20), (6, 2)), Gap(p, 0, (3, 25), (4, 3))], [], Gap(p, 0, (1, 20), (6, 2))),
        ([Gap(p, 0, (3, 20), (6, 2)), Gap(p, 0, (1, 25), (4, 3))], [], Gap(p, 0, (1, 25), (4, 3))),
        # equal a and (v1, v2): the least (k1, k2); with the noise, |S| = 20
        # and the k1 = 6 level (area up to 18) runs before k1 = 4 (up to 16)
        ([Gap(p, 5, (2, 17), (6, 2)), Gap(p, 5, (2, 17), (4, 3))], [], Gap(p, 5, (2, 17), (4, 3))),
        ([Gap(p, 5, (2, 17), (6, 2)), Gap(p, 5, (2, 17), (4, 3))], [4, 12, 23, 52],
         Gap(p, 5, (2, 17), (4, 3))),
        # a 1-dim run as large as the best 2-dim area: the smaller dimension
        ([Gap(p, 30, (1,), (12,)), Gap(p, 0, (3, 25), (4, 3))], [], Gap(p, 30, (1,), (12,))),
        ([Gap(p, 30, (5,), (12,)), Gap(p, 0, (2, 9), (6, 2))], [], Gap(p, 30, (5,), (12,))),
    ]
    for planted, noise, winner in cases:
        assert all(is_proper(g) for g in planted)
        s = rs(p, [x for g in planted for x in expand(g).elements()] + noise)
        assert find_max_proper_gap(s, 2) == winner
        assert_finder_matches_reference(s)


def test_finder_searches_levels_that_can_only_tie():
    # a level whose largest area k1*cap2 equals the incumbent's area still
    # holds the winner when it has a smaller base: here k1 = 8 and k1 = 4
    # (or 9 and 6) both reach area 16 (18), and the k1 = 4 (6) level runs
    # first
    cases = [
        ("p=23;{0,1,2,3,4,5,7,8,9,11,12,13,14,15,17,18,19,20,21}", Gap(23, 2, (3, 7), (8, 2))),
        ("p=23;{0,1,2,3,4,5,6,7,9,10,12,13,14,15,16,18,19,20,21}", Gap(23, 14, (6, 9), (9, 2))),
        ("p=29;{0,1,2,3,4,5,6,7,9,10,11,12,13,16,17,18,21,22,24,25,26,27,28}",
         Gap(29, 0, (6, 4), (8, 2))),
    ]
    for literal, winner in cases:
        s = ResidueSet.parse(literal)
        assert find_max_proper_gap(s, 2) == winner
        assert_finder_matches_reference(s)


def test_finder_matches_reference_on_dense_sets():
    # most k1 levels survive the prune here; at p = 61 the reference takes
    # over a second at density 0.95, so that density runs at p = 31 only
    rng = random.Random(54)
    for p, densities in ((31, (0.8, 0.85, 0.9, 0.95)), (61, (0.8, 0.85, 0.9))):
        for density in densities:
            assert_finder_matches_reference(rs(p, rng.sample(range(p), round(density * p))))
        for size in (p - 1, p - 2):
            assert_finder_matches_reference(rs(p, rng.sample(range(p), size)))


def reference_ratio_table(p):
    """The per-ratio loop the finder used before its table was one binary
    search: row r, entry k1 = the least j >= 1 with ||j*r|| < k1."""
    table = [bytes(p + 1)]
    for r in range(1, p):
        row = bytearray(p + 1)
        low = p  # min ||i*r|| over 1 <= i < j; rows k1 <= low are unresolved
        for j in range(1, p + 1):
            x = j * r % p
            norm = min(x, p - x)
            if norm < low:
                row[norm + 1:low + 1] = bytes([j]) * (low - norm)
                low = norm
        table.append(bytes(row))
    return table


def test_ratio_table_matches_reference_loop():
    for p in (q for q in range(2, 102) if all(q % d for d in range(2, q))):
        table = _ratio_table(p)
        assert table.shape == (p, p + 1) and not table.flags.writeable
        assert [bytes(row) for row in table] == reference_ratio_table(p), p


def test_ratio_table_decides_properness():
    for p in (2, 3, 5, 7, 11, 13, 17):
        table = _ratio_table(p)
        gathered = _level_tables(p)[1]  # the finder's [k1, v1, v2] limits
        for v1, v2 in product(range(1, (p - 1) // 2 + 1), repeat=2):
            limit = table[v2 * pow(v1, -1, p) % p]
            for k1 in range(2, p // 2 + 1):
                for k2 in range(2, min(k1, p // k1) + 1):
                    gap = Gap(p, 0, (v1, v2), (k1, k2))
                    assert (k2 <= limit[k1]) == is_proper(gap), gap.format()
                    assert (k2 <= gathered[k1, v1, v2]) == is_proper(gap)


def test_run_tables_count_runs():
    rng = random.Random(53)
    for p in (2, 3, 7, 13, 31):
        for s in (rs(p, rng.sample(range(p), rng.randint(1, p))), ResidueSet.full(p)):
            half = 1 if p == 2 else (p - 1) // 2
            runs = _run_tables(s, half)
            for v, x in product(range(1, half + 1), range(p)):
                k = 0
                while k < p and (x + k * v) % p in s:
                    k += 1
                assert runs[v][x] == k


def test_expand_reads_numpy_integers():
    # numpy members must not wrap in int64 inside from_elements: 1 << 70
    # would read as 1 << 6, and this proper progression look improper
    gap = Gap(101, np.int64(3), (np.int64(70),), (2,))
    assert expand(gap) == ResidueSet.from_elements(101, [3, 73])
    assert is_proper(gap)
