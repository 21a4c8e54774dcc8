"""Seeded property suites over the inequality oracles.

Each suite draws reproducible random instances, runs the corresponding
check and reports a violation count.  The inequalities are theorems, so a
single violation indicates a kernel bug; the CLI turns it into a nonzero
exit and the acceptance tests assert zero across large case counts.

One sampler, _random_subset, draws every suite's random sets.  It draws
the smaller of a set and its complement, k members of range(n): about
k - sqrt(k) of them as a mask of independent bits formed from at most
seven getrandbits(n) words (no mask while k - sqrt(k) < n/128), the
rest by rejection with O(1) membership tests in a bytearray, so a dense
draw costs a few n-bit words and about sqrt(k) + n/256 Python steps
instead of k.  Its docstring proves the draw uniform.  A seed fixes the
instances for this sampler, not for CPython's random.sample; a passing
suite's summary carries no per-instance data, so summaries do not depend
on the sampler.

The dilate-chain suite hands each base set, with all its lambdas and chain
lengths, to one call of checks._dilate_chain_reports, which forms B + B
once per set and each lam's chain once; the k-fold suite's check forms
lam*A once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import isqrt

from .checks import (_dilate_chain_reports, check_cauchy_davenport,
                     check_kfold_cd_chain, check_plunnecke,
                     check_ruzsa_triangle)
from .errors import ScaleCapError
from .residues import (ResidueSet, _integer, affine_image, canonical_form, dilate_sum,
                       require_prime)

__all__ = [
    "SuiteSummary",
    "run_cd_suite",
    "run_ruzsa_suite",
    "run_plunnecke_suite",
    "run_dilate_chain_suite",
    "run_kfold_suite",
    "run_affine_suite",
]

_CHAIN_MODULUS_CAP = 1 << 26  # largest emulation modulus of the dilate-chain suite


@dataclass
class SuiteSummary:
    name: str
    cases: int
    violations: int
    first_failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def record(self, report) -> None:
        self.cases += 1
        if not report.holds:
            self.fail(report.to_json_dict())

    def fail(self, failure: dict) -> None:
        """Count one violation; the first five are kept to reproduce."""
        self.violations += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(failure)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "violations": self.violations,
            "ok": self.ok,
            "first_failures": self.first_failures,
            "stats": self.stats,
        }


def _random_subset(rng: random.Random, n: int, size: int) -> ResidueSet:
    """A uniform random size-member subset of range(n); a size outside
    0..n raises ValueError.

    The smaller side, k = min(size, n - size) members, is drawn, and when
    k < size its complement in range(n) is returned.  With
    num = floor(128 * (k - isqrt(k)) / n), most of it comes from a head
    start: an n-bit mask whose bits are independent with probability
    num/128, formed from at most seven getrandbits(n) words combined by OR
    or AND, one per binary digit of num from the lowest set one up (x | w
    takes a bit's probability q to (q + 1)/2, x & w to q/2).  The mask is
    drawn again while it has more than k members; it then has about
    k - sqrt(k).  The rest are added by rejection:
    getrandbits(n.bit_length()) is drawn again while it is at least n or
    already a member, tested in a bytearray of the mask at O(1) per test,
    so each accepted member is uniform over the non-members and takes at
    most four tries on average (n - k >= n/2 and 2^bit_length(n) <= 2n).
    A draw costs a few words of n bits and about sqrt(k) + n/256 Python
    steps, the n/256 from rounding num down.  When num = 0 there is no head
    start: the top-up starts from the empty mask and draws all k members.

    The draw is uniform.  The mask's distribution, also when conditioned on
    having at most k members, is unchanged by any permutation of range(n),
    and each top-up step adds a uniformly chosen non-member, so the final
    k-set's distribution is unchanged too; the permutations act
    transitively on k-subsets, so every k-subset is equally likely."""
    if not 0 <= size <= n:
        raise ValueError(f"need 0 <= size <= n, got size {size} and n {n}")
    k = min(size, n - size)
    getrandbits, width = rng.getrandbits, n.bit_length()
    num = (k - isqrt(k)) * 128 // n
    bits, short = 0, k
    if num:
        low = (num & -num).bit_length() - 1
        while True:
            bits = getrandbits(n)
            for digit in range(low + 1, 7):
                bits = bits | getrandbits(n) if num >> digit & 1 else bits & getrandbits(n)
            short = k - bits.bit_count()
            if short >= 0:
                break
    mask = bytearray(bits.to_bytes((n + 7) // 8, "little"))
    for _ in range(short):
        j = getrandbits(width)
        while j >= n or mask[j >> 3] >> (j & 7) & 1:
            j = getrandbits(width)
        mask[j >> 3] |= 1 << (j & 7)
    bits = int.from_bytes(mask, "little")
    return ResidueSet(n, bits if k == size else bits ^ ((1 << n) - 1))


def _random_size(rng: random.Random, n: int, dense_cap: int = 128) -> int:
    # mostly small sets (cheap), with a dense tail so the min(..., p) branch
    # of Cauchy-Davenport gets exercised
    if rng.random() < 0.2:
        return rng.randint(1, n)
    return rng.randint(1, min(dense_cap, n))


def run_cd_suite(p: int, cases: int, seed: int = 0) -> SuiteSummary:
    """Random Cauchy-Davenport instances plus constructed same-difference
    progression pairs, which must achieve slack exactly 0."""
    require_prime(p)
    cases = _integer(cases, "cases", 1)
    rng = random.Random(seed)
    summary = SuiteSummary("cd", 0, 0)
    zero_slack = 0
    ap_cases = 0
    for i in range(cases):
        if i % 10 == 9:
            # progression pair with one common difference: equality case
            d = rng.randint(1, p - 1)
            la = rng.randint(1, max(1, (p - 1) // 2))
            lb = rng.randint(1, p - la)  # |A|+|B|-1 <= p
            a0, b0 = rng.randrange(p), rng.randrange(p)
            a = ResidueSet.from_elements(p, [(a0 + j * d) % p for j in range(la)])
            b = ResidueSet.from_elements(p, [(b0 + j * d) % p for j in range(lb)])
            report = check_cauchy_davenport(a, b)
            ap_cases += 1
            if report.slack == 0:
                zero_slack += 1
        else:
            a = _random_subset(rng, p, _random_size(rng, p))
            b = _random_subset(rng, p, _random_size(rng, p))
            report = check_cauchy_davenport(a, b)
        summary.record(report)
    summary.stats["ap_equality_slack_zero"] = zero_slack
    summary.stats["ap_equality_cases"] = ap_cases
    return summary


def run_ruzsa_suite(modulus: int, cases: int, seed: int = 0) -> SuiteSummary:
    modulus = _integer(modulus, "modulus", 1)
    cases = _integer(cases, "cases", 1)
    rng = random.Random(seed)
    summary = SuiteSummary("ruzsa", 0, 0)
    for _ in range(cases):
        x = _random_subset(rng, modulus, _random_size(rng, modulus, 64))
        y = _random_subset(rng, modulus, _random_size(rng, modulus, 64))
        z = _random_subset(rng, modulus, _random_size(rng, modulus, 64))
        summary.record(check_ruzsa_triangle(x, y, z))
    return summary


def run_plunnecke_suite(cases: int, seed: int = 0, max_element: int = 50) -> SuiteSummary:
    """Random integer sets A, B in [0, max_element], emulated with verified
    headroom; m, n <= 3."""
    max_element = _integer(max_element, "max_element", 0)
    cases = _integer(cases, "cases", 1)
    rng = random.Random(seed)
    summary = SuiteSummary("plunnecke", 0, 0)
    modulus = 6 * max_element + 2
    for _ in range(cases):
        while True:
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            if m + n >= 1:
                break
        a = _random_subset(rng, max_element + 1, rng.randint(1, max_element + 1))
        b = _random_subset(rng, max_element + 1, rng.randint(1, max_element + 1))
        a, b = ResidueSet(modulus, a.bits), ResidueSet(modulus, b.bits)
        summary.record(check_plunnecke(a, b, m, n))
    return summary


def run_dilate_chain_suite(cases: int, seed: int = 0, max_element: int = 100,
                           lambdas=(2, 3, 5), chain_lengths=(2, 3)) -> SuiteSummary:
    """Random integer sets B in [0, max_element]; every (lam, l) combination
    is checked for each set, including the intermediate bounds, in one
    _dilate_chain_reports call per set.

    The emulation modulus grows as lam**(l + 1) / (lam - 1); one above
    _CHAIN_MODULUS_CAP is refused before any set is built."""
    max_element = _integer(max_element, "max_element", 0)
    cases = _integer(cases, "cases", 1)
    lambdas = tuple(_integer(lam, "every entry of lambdas", 2) for lam in lambdas)
    chain_lengths = tuple(_integer(l, "every entry of chain_lengths", 1) for l in chain_lengths)
    lam_max, l_max = max(lambdas), max(chain_lengths)
    # lam_max**l_max >= 2**l_max: from l_max = 27 on the modulus exceeds
    # the cap (for max_element >= 1), so refuse before taking the power
    if l_max >= _CHAIN_MODULUS_CAP.bit_length():
        raise ScaleCapError(f"chain length {l_max} exceeds the emulation cap")
    modulus = (lam_max ** (l_max + 1) // (lam_max - 1) + 1) * max_element + lam_max + 3
    if modulus > _CHAIN_MODULUS_CAP:
        raise ScaleCapError(f"emulation modulus {modulus} exceeds cap {_CHAIN_MODULUS_CAP}")
    rng = random.Random(seed)
    summary = SuiteSummary("dilate-chain", 0, 0)
    for _ in range(cases):
        base = _random_subset(rng, max_element + 1,
                              rng.randint(1, min(40, max_element + 1)))
        for report in _dilate_chain_reports(ResidueSet(modulus, base.bits), lambdas,
                                            chain_lengths):
            summary.record(report)
    return summary


def run_kfold_suite(p: int, cases: int, seed: int = 0) -> SuiteSummary:
    require_prime(p)
    cases = _integer(cases, "cases", 1)
    rng = random.Random(seed)
    summary = SuiteSummary("kfold-cd", 0, 0)
    for _ in range(cases):
        a = _random_subset(rng, p, _random_size(rng, p))
        k = rng.randint(2, 5)
        lam = rng.randint(2, max(3, p - 1))
        summary.record(check_kfold_cd_chain(a, k, lam))
    return summary


def run_affine_suite(p: int, cases: int, seed: int = 0,
                     orbit_samples: int = 25) -> SuiteSummary:
    """|dilate_sum(u*A + v, lam)| must equal |dilate_sum(A, lam)| for every
    unit u and shift v; canonical forms must agree across sampled orbits."""
    require_prime(p)
    cases = _integer(cases, "cases", 1)
    orbit_samples = _integer(orbit_samples, "orbit_samples", 0)
    rng = random.Random(seed)
    summary = SuiteSummary("affine", 0, 0)
    for _ in range(cases):
        a = _random_subset(rng, p, rng.randint(1, 128 if p > 128 else p))
        u = rng.randint(1, p - 1)
        v = rng.randrange(p)
        lam = rng.randint(-p, p)
        lhs = len(dilate_sum(affine_image(a, u, v), lam))
        rhs = len(dilate_sum(a, lam))
        summary.cases += 1
        if lhs != rhs:
            summary.fail({"set": a.format(), "u": u, "v": v, "lambda": lam,
                          "lhs": lhs, "rhs": rhs})
    constant = 0
    for _ in range(orbit_samples):
        a = _random_subset(rng, p, rng.randint(1, min(10, p)))
        u = rng.randint(1, p - 1)
        v = rng.randrange(p)
        summary.cases += 1
        form, image_form = canonical_form(a), canonical_form(affine_image(a, u, v))
        if form == image_form:
            constant += 1
        else:
            summary.fail({"set": a.format(), "u": u, "v": v,
                          "canonical_form": form.format(),
                          "image_canonical_form": image_form.format()})
    summary.stats["orbit_samples"] = orbit_samples
    summary.stats["orbit_canonical_constant"] = constant
    return summary
