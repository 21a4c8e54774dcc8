#!/usr/bin/env python3
"""Minimizing |A + lam*A| over m-subsets of Z/pZ.

Exact search considers only the sets containing 0 and 1: the objective
is invariant under A -> u*A + v, and an affine map sends any two members
to 0 and 1, which shrinks the space by a factor p(p-1)/(m(m-1)).  A
branch and bound walks those sets in lexicographic order, drops every
prefix whose partial sum is already as large as the best set found, and
stops at the Cauchy-Davenport floor.  The classes column counts the
affine orbits.  For larger p the seeded annealer gives an upper-bound
witness.  The table's min/p column is the finite-p density the torus
constructions try to beat.
"""

import time
from math import comb

from dilates import SearchTask, exact_min_dilate_sumset, heuristic_min_dilate_sumset
from dilates.search import exact_min_reference

print("=" * 70)
print("  EXACT TABLE  min |A + lam*A|, |A| = m")
print("=" * 70)
print(f"{'p':>4} {'lam':>4} {'m':>3} {'min':>5} {'min/p':>8} "
      f"{'CD floor':>9} {'witness':>22} {'classes':>8}")
for p in (5, 7, 11, 13):
    for lam in (2, 3):
        for m in range(2, (p - 1) // 2 + 1):
            r = exact_min_dilate_sumset(SearchTask(p=p, lam=lam, m=m))
            floor = min(2 * m - 1, p)
            print(f"{p:>4} {lam:>4} {m:>3} {r.min_size:>5} "
                  f"{r.min_size / p:>8.4f} {floor:>9} "
                  f"{r.witness.format():>22} {r.classes_enumerated:>8}")

print("\nBranch and bound vs scanning every subset (p=13, lam=2, m=5):")
t0 = time.perf_counter()
anchored = exact_min_dilate_sumset(SearchTask(p=13, lam=2, m=5))
t1 = time.perf_counter()
every = exact_min_reference(13, 2, 5)
t2 = time.perf_counter()
print(f"  {comb(11, 3)} anchored sets of 1287 subsets "
      f"({anchored.classes_enumerated} affine orbits); "
      f"minima {anchored.min_size} == {every}; "
      f"{(t1 - t0) * 1000:.1f} ms vs {(t2 - t1) * 1000:.1f} ms")

print("\nAnnealing upper bounds at p = 101 (exact search refuses the")
print("C(99, m-2) > 10^8 anchored sets; the annealer just descends with a seed):")
for m, budget in ((10, 4000), (20, 4000)):
    best = None
    for seed in range(3):
        r = heuristic_min_dilate_sumset(
            SearchTask(p=101, lam=3, m=m, mode="heuristic",
                       seed=seed, budget=budget))
        best = r if best is None or r.min_size < best.min_size else best
    print(f"  m={m:<3} best of 3 seeds: |A + 3A| <= {best.min_size} "
          f" (CD floor {min(2 * m - 1, 101)}), witness {best.witness.format()}")
