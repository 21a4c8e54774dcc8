"""Exact and heuristic minimization of |A + lam*A|."""

import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from dilates import search
from dilates.errors import ScaleCapError
from dilates.residues import (Kernel, ResidueSet, canonical_form, dilate_sum,
                              is_canonical, is_prime)
from dilates.search import (SearchTask, SweepReport, decode_entry,
                            exact_min_dilate_sumset, exact_min_reference,
                            heuristic_min_dilate_sumset, sweep, sweep_csv)
from test_residues import PROPERTY


def test_task_validation():
    with pytest.raises(ValueError, match="prime"):
        SearchTask(p=10, lam=2, m=2)
    with pytest.raises(ValueError):
        SearchTask(p=7, lam=2, m=0)
    with pytest.raises(ValueError):
        SearchTask(p=7, lam=2, m=8)
    with pytest.raises(ValueError):
        SearchTask(p=7, lam=2, m=2, mode="magic")
    t = SearchTask(p=7, lam=2, m=2)
    assert t.digest() == SearchTask(p=7, lam=2, m=2).digest()
    assert t.digest() != SearchTask(p=7, lam=3, m=2).digest()


def test_task_and_result_json_forms():
    t = SearchTask(p=7, lam=-3, m=7, mode="heuristic", seed=5, budget=9)
    # the search key of every cache entry written so far; moving it is a
    # versioned change of the cache
    assert t.digest() == "7c7b595b9b3e75ed6a0707d25f83c0d90a2cc9db7d26b30f57ef3c6b596e0e8e"
    assert SearchTask.from_json_dict(t.to_json_dict()) == t
    row = heuristic_min_dilate_sumset(t).to_json_dict(t)
    # alpha is m/p as written, min_over_p the reduced fraction
    assert (row["alpha"], row["min_over_p"]) == ("7/7", "1/1")
    key = t.digest()
    assert decode_entry(row, key) == (t, heuristic_min_dilate_sumset(t))
    assert sweep_csv(SweepReport([t], [decode_entry(row, key)[1]], [])).splitlines()[1] == \
        '7,-3,7,7/7,7,1/1,false,"p=7;{0,1,2,3,4,5,6}"'
    with pytest.raises(ValueError, match="prime"):
        decode_entry({**row, "task": {**row["task"], "p": 8}}, key)
    # an entry must carry its own task's key and be filed under it
    other = SearchTask(p=7, lam=-3, m=7, mode="heuristic", seed=6, budget=9)
    for edited, filed_under in (({**row, "task_digest": "0" * 64}, key),
                                ({**row, "task": other.to_json_dict()}, key),
                                (row, other.digest()), (row, "0" * 64)):
        with pytest.raises(ValueError, match="task_digest"):
            decode_entry(edited, filed_under)


def test_exact_examples():
    assert exact_min_dilate_sumset(SearchTask(p=7, lam=2, m=1)).min_size == 1
    r = exact_min_dilate_sumset(SearchTask(p=7, lam=2, m=2))
    assert r.min_size == 4
    assert r.witness == ResidueSet.from_elements(7, [0, 1])
    assert r.exact
    r = exact_min_dilate_sumset(SearchTask(p=7, lam=1, m=3))
    assert r.min_size == 5  # 2m-1, witness a progression
    assert r.witness == ResidueSet.from_elements(7, [0, 1, 2])


def test_exact_m2_oracle_all_21_subsets():
    # independent oracle: enumerate all C(7,2)=21 subsets directly
    best = min(len(dilate_sum(ResidueSet.from_elements(7, pair), 2))
               for pair in combinations(range(7), 2))
    assert best == 4
    assert exact_min_dilate_sumset(SearchTask(p=7, lam=2, m=2)).min_size == 4


def test_exact_result_matches_brute_force():
    # every field of the result against all C(p, m) subsets: the minimum,
    # the lexicographically least canonical minimizer and the orbit count
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, p + 1):
            subsets = list(combinations(range(p), m))
            canon = [canonical_form(ResidueSet.from_elements(p, c)) for c in subsets]
            classes = len(set(canon))
            for lam in (-1, 0, 1, 2, 3):
                sizes = [len({(x + lam * y) % p for x in c for y in c})
                         for c in subsets]
                best = min(sizes)
                witness = min(c.elements() for c, size in zip(canon, sizes)
                              if size == best)
                r = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m))
                assert (r.min_size, r.witness.elements(), r.classes_enumerated) \
                    == (best, witness, classes), (p, lam, m)


def test_exact_agrees_with_reference():
    for p in (5, 7, 11):
        for lam in (2, 3):
            for m in range(1, (p - 1) // 2 + 1):
                task = SearchTask(p=p, lam=lam, m=m)
                assert exact_min_dilate_sumset(task).min_size == \
                    exact_min_reference(p, lam, m)


def test_exact_results_meet_cd_floor():
    for p, lam, m in ((11, 2, 3), (13, 3, 4), (7, 2, 3)):
        r = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m))
        assert r.min_size >= min(2 * m - 1, p)
        assert is_valid_result(r, p, lam)


def is_valid_result(result, p, lam):
    return (len(dilate_sum(result.witness, lam)) == result.min_size
            and result.witness == canonical_form(result.witness))


def anchored_sets(p, m):
    """The sets through the anchor {0, 1}[:m], in lexicographic order."""
    k = min(m, 2)
    return [(0, 1)[:k] + c for c in combinations(range(k, p), m - k)]


def test_exact_matches_anchored_reference_scan():
    # the reference scores every anchored set and keeps the least (size,
    # set) pair; the orbit count is checked against the canonical anchored
    # sets of these cells in test_orbit_count_matches_canonical_anchored_sets.
    # Every cell with at most 3000 anchored sets at p = 17, 19, 23; lam = 0
    # has floor m, and 1 and p + 1 are the same unit
    cells = 0
    for p in (17, 19, 23):
        for m in range(1, p + 1):
            sets = anchored_sets(p, m)
            if len(sets) > 3000:
                continue
            classes = search._orbit_count(p, m)
            for lam in (-1, 0, 1, 2, 3, p + 1):
                reference = min((len(dilate_sum(ResidueSet.from_elements(p, s), lam)), s)
                                for s in sets)
                r = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m))
                assert (r.min_size, r.witness.elements(), r.classes_enumerated) \
                    == reference + (classes,), (p, lam, m)
                cells += 1
    assert cells == 186


def test_exact_one_orbit_and_large_m_cells():
    # m in {1, 2, p-1, p}: the affine group acts transitively, one orbit
    for m in (1, 2, 18, 19):
        r = exact_min_dilate_sumset(SearchTask(p=19, lam=3, m=m))
        assert r.classes_enumerated == 1
        assert r.witness == ResidueSet.from_elements(19, range(m))
        assert r.min_size == exact_min_reference(19, 3, m)
    # 2m - 1 >= p: every set scores p, so the walk stops at its first set;
    # m levels deep, past the default recursion limit
    for m in (1007, 1008):
        r = exact_min_dilate_sumset(SearchTask(p=1009, lam=2, m=m))
        assert (r.min_size, r.witness.elements()) == (1009, tuple(range(m)))


def test_orbit_count_matches_canonical_anchored_sets():
    # 42 cells: every m >= 2 with at most 3000 anchored sets
    cells = 0
    for p in (17, 19, 23, 29, 31):
        for m in range(2, p + 1):
            if comb(p - 2, m - 2) > 3000:
                continue
            cells += 1
            canonical = sum(is_canonical(ResidueSet.from_elements(p, s))
                            for s in anchored_sets(p, m))
            assert search._orbit_count(p, m) == canonical, (p, m)
    assert cells == 42


def test_orbit_count_pinned_values():
    # counts the enumerating search reported before the closed form
    pinned = {(101, 4): 417, (101, 5): 7856, (61, 5): 1634, (31, 7): 2846,
              (43, 6): 3412, (1009, 3): 169, (10007, 3): 1668,
              (1000003, 1): 1, (1000003, 2): 1}
    for (p, m), count in pinned.items():
        assert search._orbit_count(p, m) == count, (p, m)


def test_exact_class_cap():
    with pytest.raises(ScaleCapError, match="heuristic"):
        exact_min_dilate_sumset(SearchTask(p=101, lam=2, m=40))


def test_exact_scan_cap_boundary(monkeypatch):
    task = SearchTask(p=13, lam=2, m=5)
    sets = comb(11, 3)
    monkeypatch.setattr(search, "_SCAN_CAP", sets - 1)
    with pytest.raises(ScaleCapError, match="heuristic"):
        exact_min_dilate_sumset(task)
    monkeypatch.setattr(search, "_SCAN_CAP", sets)
    assert exact_min_dilate_sumset(task).min_size == exact_min_reference(13, 2, 5)


def test_forced_cells_past_the_cap_are_answered_by_the_first_leaf(monkeypatch):
    # with no cap every cell is past it: a cell is answered exactly when
    # the walk's first leaf {0, ..., m-1} attains the walk's floor, and then
    # with the walk's own result; the walk is only run to compare
    monkeypatch.setattr(search, "_SCAN_CAP", 0)
    forced = refused = 0
    for p in (q for q in range(2, 24) if is_prime(q)):
        for lam in range(p):
            for m in range(2, p + 1):
                first = ResidueSet.from_elements(p, range(m))
                task = SearchTask(p=p, lam=lam, m=m)
                if len(dilate_sum(first, lam)) != search._floor(p, lam, m):
                    with pytest.raises(ScaleCapError, match="anchored sets exceed cap"):
                        exact_min_dilate_sumset(task)
                    refused += 1
                    continue
                size, witness = search._branch_and_bound(p, lam, m)
                result = exact_min_dilate_sumset(task)
                assert (result.min_size, result.witness) == (size, first), (p, lam, m)
                assert witness == tuple(range(m)) and is_canonical(first)
                assert result.classes_enumerated == search._orbit_count(p, m)
                assert result.exact
                forced += 1
    assert (forced, refused) == (938, 518)


def test_forced_cells_keep_their_limits(monkeypatch):
    # past _FORCED_CAP, and where the orbit count has more digits than
    # str(int) writes, a forced cell is refused too
    task = SearchTask(p=131101, lam=1, m=4)
    with pytest.raises(ScaleCapError, match="anchored sets exceed cap"):
        exact_min_dilate_sumset(task)
    monkeypatch.setattr(search, "_FORCED_CAP", task.p)
    assert exact_min_dilate_sumset(task).min_size == 7
    with pytest.raises(ScaleCapError, match="97058-bit orbit count unwritable"):
        exact_min_dilate_sumset(SearchTask(p=100003, lam=0, m=60000))


def test_cells_near_p_are_answered_within_the_walk_budget():
    # m near p passes _SCAN_CAP, as C(p - 2, m - 2) = p - 2 at m = p - 1,
    # but the walk would hold P, L and S at m depths, 3*m*p bits (about 143
    # MiB here); past _WALK_BITS the cell, whose floor is p, takes the
    # forced answer, its first leaf, without the walk
    p, m = 20011, 20010
    assert comb(p - 2, m - 2) == p - 2 <= search._SCAN_CAP
    assert 3 * m * p > search._WALK_BITS
    tracemalloc.start()
    try:
        result = exact_min_dilate_sumset(SearchTask(p=p, lam=3, m=m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.min_size, result.exact, result.classes_enumerated) == (p, True, 1)
    assert result.witness == ResidueSet(p, (1 << m) - 1)
    assert peak < 1 << 20


def test_walk_budget_boundary(monkeypatch):
    # at the budget the walk runs; one bit below it a forced cell takes the
    # first leaf without it, and any other cell is refused by its memory
    forced, other = SearchTask(p=13, lam=2, m=12), SearchTask(p=13, lam=2, m=5)
    walked = [exact_min_dilate_sumset(task) for task in (forced, other)]
    walk = search._branch_and_bound
    for task, result in zip((forced, other), walked):
        monkeypatch.setattr(search, "_WALK_BITS", 3 * task.m * task.p)
        assert exact_min_dilate_sumset(task) == result
        monkeypatch.setattr(search, "_WALK_BITS", 3 * task.m * task.p - 1)
        monkeypatch.setattr(search, "_branch_and_bound", None)  # not reached
        if task is forced:
            assert exact_min_dilate_sumset(task) == result
        else:
            with pytest.raises(ScaleCapError, match="^the walk's 195 bits of prefixes "
                                                    "exceed cap 194; use heuristic mode$"):
                exact_min_dilate_sumset(task)
        monkeypatch.setattr(search, "_branch_and_bound", walk)
    assert walked[0].min_size == 13
    assert walked[1].min_size == exact_min_reference(13, 2, 5)


def test_heuristic_budget_zero_returns_interval():
    t = SearchTask(p=11, lam=2, m=3, mode="heuristic", seed=9, budget=0)
    r = heuristic_min_dilate_sumset(t)
    assert r.witness == ResidueSet.from_elements(11, [0, 1, 2])
    assert r.min_size == len(dilate_sum(r.witness, 2))
    assert not r.exact


def test_heuristic_matches_exact_on_small_case():
    for seed in (1, 2, 3):
        t = SearchTask(p=7, lam=2, m=2, mode="heuristic", seed=seed, budget=1000)
        assert heuristic_min_dilate_sumset(t).min_size == 4


def test_heuristic_monotone_in_budget_and_deterministic():
    values = []
    for budget in (0, 10, 100, 400):
        t = SearchTask(p=13, lam=3, m=4, mode="heuristic", seed=7, budget=budget)
        r1 = heuristic_min_dilate_sumset(t)
        r2 = heuristic_min_dilate_sumset(t)
        assert r1 == r2
        values.append(r1.min_size)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_heuristic_never_beats_exact():
    rng = random.Random(50)
    for _ in range(10):
        p = rng.choice([7, 11, 13])
        m = rng.randint(1, (p - 1) // 2)
        lam = rng.randint(2, 4)
        exact = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m)).min_size
        heur = heuristic_min_dilate_sumset(
            SearchTask(p=p, lam=lam, m=m, mode="heuristic",
                       seed=rng.randrange(2**32), budget=200)).min_size
        assert heur >= exact


PRIMES_TO_1100 = [q for q in range(2, 1100) if is_prime(q)]


@PROPERTY
@given(st.data())
def test_annealing_objective_matches_library(data):
    # the bitvector objective against the library route it replaced:
    # from_elements, dilate and the sumset kernels
    p = data.draw(st.sampled_from(PRIMES_TO_1100))
    lam = data.draw(st.one_of(st.integers(-3000, -1),                       # negative
                              st.integers(-2, 2).map(lambda k: k * p),     # 0 mod p
                              st.sampled_from([1, -1, p + 1, 1 - p]),      # +-1 mod p
                              st.integers(2, 3000)))
    members = data.draw(st.lists(st.integers(0, p - 1), max_size=min(p, 40)))
    a = ResidueSet.from_elements(p, members)
    got = search._dilate_sum_size(p, lam, members)
    assert got == len(dilate_sum(a, lam, Kernel.NAIVE))
    assert got == len(dilate_sum(a, lam, Kernel.BITSHIFT))


# (p, lam, m, seed, budget) -> (min_size, witness, classes_enumerated),
# recorded with each move scored by the library route,
# len(dilate_sum(ResidueSet.from_elements(p, members), lam))
ANNEALING_PINS = [
    ((2, 1, 1, 0, 50), (1, 'p=2;{0}', 51)),
    ((2, 3, 2, 1, 20), (2, 'p=2;{0,1}', 1)),
    ((7, -3, 7, 5, 9), (7, 'p=7;{0,1,2,3,4,5,6}', 1)),
    ((11, 2, 3, 9, 0), (7, 'p=11;{0,1,2}', 1)),
    ((13, 13, 4, 7, 100), (4, 'p=13;{0,1,2,3}', 101)),
    ((13, -2, 5, 3, 200), (12, 'p=13;{0,1,2,4,7}', 201)),
    ((31, -1, 10, 8, 400), (19, 'p=31;{0,1,2,3,4,5,6,7,8,9}', 401)),
    ((101, 1, 20, 6, 300), (39, 'p=101;{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19}', 301)),
    ((101, 5, 13, 2, 300), (70, 'p=101;{0,1,2,3,4,5,6,7,8,9,10,11,23}', 301)),
    ((101, 6, 6, 4, 300), (26, 'p=101;{0,1,2,28,62,74}', 301)),
    ((1009, 6, 7, 11, 300), (43, 'p=1009;{0,1,2,3,4,5,6}', 301)),
    ((1009, 6, 13, 0, 300), (85, 'p=1009;{0,1,2,3,4,5,6,7,8,9,10,11,12}', 301)),
    ((10007, 5, 12, 1, 60), (67, 'p=10007;{0,1,2,3,4,5,6,7,8,9,10,11}', 61)),
    ((1009, -1010, 9, 3, 150), (17, 'p=1009;{0,1,2,3,4,5,6,7,8}', 151)),
]


@pytest.mark.parametrize("cell, expected", ANNEALING_PINS,
                         ids=["-".join(map(str, c)) for c, _ in ANNEALING_PINS])
def test_annealing_outputs_pinned(cell, expected):
    p, lam, m, seed, budget = cell
    r = heuristic_min_dilate_sumset(
        SearchTask(p=p, lam=lam, m=m, mode="heuristic", seed=seed, budget=budget))
    assert (r.min_size, r.witness.format(), r.classes_enumerated) == expected
    assert r.min_size == len(dilate_sum(r.witness, lam, Kernel.NAIVE))


# ---------------------------------------------------------------- sweep

def test_heuristic_full_set_edge():
    t = SearchTask(p=5, lam=2, m=5, mode="heuristic", seed=1, budget=50)
    r = heuristic_min_dilate_sumset(t)
    assert r.min_size == 5 and r.witness == ResidueSet.full(5)


def test_sweep_heuristic_mode():
    report = sweep([11], [2], [3], mode="heuristic", seed=4, budget=100)
    (result,) = report.results
    assert not result.exact
    assert result.min_size >= exact_min_dilate_sumset(
        SearchTask(p=11, lam=2, m=3)).min_size
    assert sweep_csv(report).splitlines()[1].split(",")[6] == "false"


def test_sweep_refuses_a_bad_mode_once(tmp_path):
    # the mode is shared by every cell, so it is refused before any cell runs
    with pytest.raises(ValueError, match="^mode must be exact\\|heuristic, got 'bogus'$"):
        sweep([7], [2], [2, 3], mode="bogus", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_sweep_empty_inputs():
    report = sweep([], [2], [1])
    assert report.results == [] and report.errors == []
    assert sweep_csv(report) == "p,lambda,m,alpha,min_size,min_over_p,exact,witness\n"


def test_sweep_table_and_errors():
    report = sweep([5, 7], [2], [2, 3, 6])
    # m=6 > p=5 is recorded as an error, sweep continues
    assert any(e["p"] == 5 and e["m"] == 6 for e in report.errors)
    assert len(report.results) == 5
    csv_text = sweep_csv(report)
    assert csv_text.splitlines()[1] == '5,2,2,2/5,4,4/5,true,"p=5;{0,1}"'
    assert csv_text.endswith("\n")


def test_sweep_cache_roundtrip(tmp_path):
    args = ([5, 7], [2, 3], [1, 2])
    first = sweep(*args, cache_dir=tmp_path)
    assert first.computed == 8 and first.cached == 0
    second = sweep(*args, cache_dir=tmp_path)
    assert second.computed == 0 and second.cached == 8
    assert sweep_csv(first) == sweep_csv(second)
    assert [r for r in first.results] == [r for r in second.results]
