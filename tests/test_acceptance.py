"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.  Criterion 5 carries one sub-claim (volume of
the n=64 corner region exceeding 0.45) whose exact value is 0.3328...;
that sub-check is kept faithful and marked as an expected failure, with
the exact number printed next to it.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from dilates.gaps import Gap, expand, find_max_proper_gap, is_proper, lambda_span_check
from dilates.grids import (box_grid_set, grid_projection_sumset,
                           optimized_box_sides_3d, simplex_construction)
from dilates.intervals import pipeline_check
from dilates.residues import Kernel, ResidueSet, dilate_sum, sumset
from dilates.search import (SearchTask, exact_min_dilate_sumset,
                            exact_min_reference, sweep, sweep_csv)
from dilates.verify import (run_affine_suite, run_cd_suite,
                            run_dilate_chain_suite, run_kfold_suite,
                            run_plunnecke_suite, run_ruzsa_suite)
from dilates import cache as cache_mod

F = Fraction


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_01_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(101)
    pairs = 0
    for n in (64, 1009, 10007):
        for _ in range(1000):
            a = ResidueSet.from_elements(n, rng.sample(range(n), rng.randint(0, min(n, 128))))
            b = ResidueSet.from_elements(n, rng.sample(range(n), rng.randint(0, min(n, 128))))
            r_naive = sumset(a, b, Kernel.NAIVE)
            r_shift = sumset(a, b, Kernel.BITSHIFT)
            r_conv = sumset(a, b, Kernel.CONVOLUTION)
            assert r_naive.bits == r_shift.bits == r_conv.bits
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"kernel equivalence took {elapsed:.1f}s (budget 30s)"
    announce(1, f"{pairs} random pairs, 3 kernels bit-identical, {elapsed:.1f}s")


def test_criterion_02_cauchy_davenport_suite():
    for p in (101, 1009):
        summary = run_cd_suite(p, 10_000, seed=2)
        assert summary.violations == 0
        assert summary.stats["ap_equality_slack_zero"] == summary.stats["ap_equality_cases"]
    announce(2, "2 x 10000 cases at p=101,1009; zero violations; progression pairs slack 0")


def test_criterion_03_exact_minimum_table():
    t0 = time.perf_counter()
    table = {}
    for p in (5, 7, 11, 13):
        for lam in (2, 3):
            for m in range(1, (p - 1) // 2 + 1):
                result = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m))
                reference = exact_min_reference(p, lam, m)
                assert result.min_size == reference, (p, lam, m)
                table[(p, lam, m)] = result.min_size
    # frozen oracle value: direct enumeration of all 21 two-element subsets
    oracle = min(len(dilate_sum(ResidueSet.from_elements(7, pair), 2))
                 for pair in combinations(range(7), 2))
    assert oracle == 4 and table[(7, 2, 2)] == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"exact table took {elapsed:.1f}s (budget 120s)"
    announce(3, f"{len(table)} cells pruned == unpruned; (7,2,2) -> 4; {elapsed:.1f}s")


def test_criterion_04_box_constructions():
    # d=2 pipeline at gamma = 1/9
    s = box_grid_set(2, 9, [F(1, 3), F(1, 3)])
    rep = pipeline_check(s, 10007)
    assert rep.grid_projection_measure == F(4, 9)
    assert rep.interval_dilate_sum_measure <= F(4, 9)
    assert rep.residue_dilate_sum_density <= F(4, 9) + F(10, 10007)
    assert rep.all_hold

    # d=3 box with optimized side lengths at lam = 64, gamma = 1/64
    gamma = F(1, 64)
    sides = optimized_box_sides_3d(gamma, lam=64)
    grid = box_grid_set(3, 64, sides)
    measure = grid_projection_sumset(grid).measure()
    # target t = (9/2^(4/3)) * gamma^(2/3); t^3 = (729/16) * gamma^2 is rational,
    # so |measure - t| <= 5% is checked via exact cubes
    t_cubed = F(729, 16) * gamma**2
    assert measure**3 <= (F(21, 20)) ** 3 * t_cubed
    assert measure**3 >= (F(19, 20)) ** 3 * t_cubed
    # strictly below the equal-sides constant 2^2 * gamma^(2/3) = 1/4
    assert measure < 4 * F(1, 16)
    announce(4, f"d=2 chain at p=10007 (S' measure 4/9); "
                f"d=3 optimized box measure {measure} within 5% of target, < 1/4")


def test_criterion_05_simplex_construction():
    t0 = time.perf_counter()
    values = []
    for n in (4, 8, 16, 32, 64):
        mu_b, mu_cc = simplex_construction(n)
        assert mu_cc == 1 - F(1, factorial(n - 1))
        assert mu_cc < 1
        values.append(mu_b)
    assert all(a < b for a, b in zip(values, values[1:])), "strictly increasing"
    assert all(v < F(1, 2) for v in values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"simplex volumes took {elapsed:.1f}s (budget 10s)"
    announce(5, f"exact volumes increasing and < 1/2 for n=4..64; "
                f"muB(64) = {float(values[-1]):.6f}; {elapsed:.2f}s "
                f"(see the xfail companion for the 0.45 sub-claim)")


@pytest.mark.xfail(strict=True,
                   reason="stated threshold 0.45 is unattainable: the exact "
                          "n=64 volume is ~0.332849 (the volume only crosses "
                          "0.45 near n ~ 800)")
def test_criterion_05_simplex_density_above_045():
    mu_b, _ = simplex_construction(64)
    print(f"exact muB(64) = {float(mu_b):.12f}")
    assert mu_b > F(45, 100)


def test_criterion_06_dilate_chain_suite():
    t0 = time.perf_counter()
    summary = run_dilate_chain_suite(200, seed=6, max_element=100,
                                     lambdas=(2, 3, 5), chain_lengths=(2, 3))
    assert summary.violations == 0
    assert summary.cases == 200 * 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"dilate chain suite took {elapsed:.1f}s (budget 60s)"
    announce(6, f"200 sets x 6 (lam,l) combos incl. intermediate bounds, "
                f"zero violations, {elapsed:.1f}s")


def test_criterion_07_ruzsa_and_plunnecke_suites():
    ruzsa = run_ruzsa_suite(1009, 10_000, seed=7)
    assert ruzsa.violations == 0
    plun = run_plunnecke_suite(1_000, seed=7)
    assert plun.violations == 0
    announce(7, "10000 triangle + 1000 Plunnecke-Ruzsa cases, zero violations")


def test_criterion_08_affine_invariance():
    summary = run_affine_suite(1009, 10_000, seed=8, orbit_samples=25)
    assert summary.violations == 0
    assert summary.stats["orbit_canonical_constant"] == 25
    announce(8, "10000 size invariances at p=1009 + 25 orbits with constant "
                "canonical form")


def test_criterion_09_gap_suite():
    rng = random.Random(9)
    # 1000 random progressions of dimension <= 3
    for _ in range(1000):
        p = rng.choice([31, 61, 101])
        d = rng.randint(1, 3)
        gens, lens = [], []
        for _ in range(d):
            k = rng.randint(1, 5)
            gens.append(rng.randint(1, p - 1) if k >= 2 else rng.randrange(p))
            lens.append(k)
        gap = Gap(p, rng.randrange(p), tuple(gens), tuple(lens))
        size = len(expand(gap))
        assert size <= gap.nominal_size
        assert is_proper(gap) == (size == gap.nominal_size)

    # 50/50 planted-progression recoveries
    recovered = 0
    for _ in range(50):
        p = rng.choice([41, 53, 61, 71, 83, 97, 101])
        while True:
            cand = Gap(p, rng.randrange(p),
                       (rng.randint(1, p - 1), rng.randint(1, p - 1)),
                       (rng.randint(2, 6), rng.randint(2, 4)))
            if cand.nominal_size <= 24 and is_proper(cand):
                break
        noise = rng.sample([x for x in range(p) if x not in expand(cand)], 2)
        s = ResidueSet.from_elements(p, list(expand(cand).elements()) + noise)
        found = find_max_proper_gap(s, 2)
        assert found.nominal_size >= cand.nominal_size
        recovered += 1
    assert recovered == 50

    # 500 span containments on proper 1-dim progressions with k >= lam
    for _ in range(500):
        p = rng.choice([31, 61, 101])
        lam = rng.randint(2, 4)
        gap = Gap(p, 0, (rng.randint(1, p - 1),), (rng.randint(lam, 9),))
        assert lambda_span_check(gap, lam, 1).holds
    announce(9, "1000 expansions consistent; 50/50 planted recoveries; "
                "500/500 span containments")


def test_criterion_10_kfold_cd_chain():
    for p in (101, 1009):
        summary = run_kfold_suite(p, 2_000, seed=10)
        assert summary.violations == 0
    announce(10, "2 x 2000 k-fold chain cases at p=101,1009, zero violations")


def test_criterion_11_sweep_determinism(tmp_path):
    outputs = []
    for i in range(3):
        cache_dir = tmp_path / f"cache{i}"
        report = sweep([5, 7, 11, 13], [2, 3], [1, 2, 3, 4], cache_dir=cache_dir)
        assert not report.errors
        csv_bytes = sweep_csv(report).encode()
        json_bytes = cache_mod.canonical_json(
            [r.to_json_dict(t) for t, r in zip(report.tasks, report.results)])
        outputs.append((csv_bytes, json_bytes))
    assert outputs[0] == outputs[1] == outputs[2]
    # rerun against a warm cache: identical bytes, zero recomputation
    warm = sweep([5, 7, 11, 13], [2, 3], [1, 2, 3, 4], cache_dir=tmp_path / "cache0")
    assert warm.computed == 0
    assert sweep_csv(warm).encode() == outputs[0][0]
    announce(11, "byte-identical CSV/JSON across 3 fresh caches, "
                 "warm rerun recomputed nothing")
