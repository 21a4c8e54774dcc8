"""The suites' one sampler, `verify._random_subset`: its contract (size,
range, reproducibility, the size checks), its uniformity, and the
instances each suite draws through it."""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from dilates import cache as cache_mod
from dilates import verify
from dilates.residues import ResidueSet, affine_image


def _sample_set(rng, n, size):
    """The suites' former draw, through CPython's `random.sample`."""
    return ResidueSet.from_elements(n, rng.sample(range(n), size))


# the sizes take both branches of the sampler: the drawn side and its
# complement
@pytest.mark.parametrize("n", [1, 2, 3, 21, 22, 85, 101, 1009, 10**6 + 3])
def test_random_subset_is_fixed_by_the_generator_state(n):
    """A draw has exactly size members, all in range(n), and is fixed by
    the generator's state: generators seeded alike give equal sets and
    are left in equal states.  A size outside 0..n raises ValueError."""
    for size in sorted({0, 1, n // 2, (n + 1) // 2, n - 1, n}):
        # drawing 5 * 10^5 members takes about 0.4 s: one seed there
        for seed in (0,) if min(size, n - size) > 10**5 else (0, 1, 7):
            ours, again = random.Random(seed), random.Random(seed)
            drawn = verify._random_subset(ours, n, size)
            assert drawn.modulus == n and len(drawn) == size, (n, size, seed)
            assert all(0 <= x < n for x in drawn.elements()), (n, size, seed)
            assert drawn == verify._random_subset(again, n, size), (n, size, seed)
            assert ours.random() == again.random(), (n, size, seed)
    for size in (-1, n + 1):
        with pytest.raises(ValueError):
            verify._random_subset(random.Random(0), n, size)


# the 0.999 quantile of chi-square on C(n, k) - 1 degrees of freedom
_CHI2_999 = {9: 27.877, 14: 36.123, 19: 43.820, 20: 45.315, 251: 325.970}


# with k = min(size, n - size), the head start's num = 128 (k - isqrt(k)) // n
# is 21, 42, 21, 18 and 38 in the first five cells, so every draw forms a
# mask and tops it up; (10, 5) spreads its draws over 252 subsets.  In
# (10, 1) and (10, 9) num is 0: no mask is drawn and the top-up draws the
# one member from the empty mask
@pytest.mark.parametrize("n, size", [(6, 2), (6, 3), (6, 4), (7, 5), (10, 5), (10, 1), (10, 9)])
def test_random_subset_is_uniform(n, size):
    """Every size-subset of range(n) is drawn about equally often; (7, 5)
    draws two members and returns their complement."""
    rng = random.Random(n * 10 + size)
    draws = max(20_000, 100 * comb(n, size))
    counts = Counter(verify._random_subset(rng, n, size).elements() for _ in range(draws))
    subsets = list(combinations(range(n), size))
    assert set(counts) == set(subsets)
    expected = draws / len(subsets)
    chi2 = sum((counts[s] - expected) ** 2 / expected for s in subsets)
    assert chi2 < _CHI2_999[len(subsets) - 1], chi2


class _CountingRandom(random.Random):
    """A generator that counts its getrandbits calls by bit width."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = Counter()

    def getrandbits(self, k):
        self.widths[k] += 1
        return super().getrandbits(k)


def test_random_subset_draws_a_dense_set_from_few_words():
    """A dense draw takes most of its members from a handful of n-bit
    words: far fewer than k draws of n's bit width, where a member-by-member
    rejection sampler needs at least k."""
    n, size = 10**6 + 3, 500_001
    k = min(size, n - size)
    rng = _CountingRandom(0)
    drawn = verify._random_subset(rng, n, size)
    assert len(drawn) == size
    assert rng.widths[n.bit_length()] < k / 8, rng.widths
    # num = 63 has seven binary digits, and a mask about 7800 members short
    # of k is kept at once: one mask of seven words
    assert rng.widths[n] == 7, rng.widths


# ------------------------------------------------------------ suite instances
#
# Each suite runs with its checks patched to record their inputs; the
# expected inputs are drawn below through verify._random_subset, in each
# suite's order and with its sizes, k, lam, u and v.  The dilate-chain
# suite hands each base, with its lambdas and lengths, to one routine,
# checks._dilate_chain_reports, which is what it records.

def _record(monkeypatch, *names):
    seen = []
    for name in names:
        real = getattr(verify, name)

        def spy(*args, _real=real, _name=name):
            seen.append((_name, *args))
            return _real(*args)

        monkeypatch.setattr(verify, name, spy)
    return seen


def _cd_expected(p, cases, seed):
    rng = random.Random(seed)
    out = []
    for i in range(cases):
        if i % 10 == 9:
            d = rng.randint(1, p - 1)
            la = rng.randint(1, max(1, (p - 1) // 2))
            lb = rng.randint(1, p - la)
            a0, b0 = rng.randrange(p), rng.randrange(p)
            a = ResidueSet.from_elements(p, [(a0 + j * d) % p for j in range(la)])
            b = ResidueSet.from_elements(p, [(b0 + j * d) % p for j in range(lb)])
        else:
            a = verify._random_subset(rng, p, verify._random_size(rng, p))
            b = verify._random_subset(rng, p, verify._random_size(rng, p))
        out.append(("check_cauchy_davenport", a, b))
    return out


def _ruzsa_expected(modulus, cases, seed):
    rng = random.Random(seed)
    return [("check_ruzsa_triangle",
             *(verify._random_subset(rng, modulus, verify._random_size(rng, modulus, 64))
               for _ in range(3)))
            for _ in range(cases)]


def _plunnecke_expected(cases, seed, max_element):
    rng = random.Random(seed)
    modulus = 6 * max_element + 2
    out = []
    for _ in range(cases):
        while True:
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            if m + n >= 1:
                break
        a = verify._random_subset(rng, max_element + 1, rng.randint(1, max_element + 1))
        b = verify._random_subset(rng, max_element + 1, rng.randint(1, max_element + 1))
        out.append(("check_plunnecke", ResidueSet(modulus, a.bits),
                    ResidueSet(modulus, b.bits), m, n))
    return out


# the emulation modulus of each max_element, for lambdas (2, 3, 5) and
# lengths (2, 3): (5^4 // 4 + 1) * max_element + 8
_CHAIN_MODULI = {40: 6288, 100: 15708}


def _dilate_chain_expected(cases, seed, max_element):
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        base = verify._random_subset(rng, max_element + 1,
                                     rng.randint(1, min(40, max_element + 1)))
        b = ResidueSet(_CHAIN_MODULI[max_element], base.bits)
        out.append(("_dilate_chain_reports", b, (2, 3, 5), (2, 3)))
    return out


def _kfold_expected(p, cases, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        a = verify._random_subset(rng, p, verify._random_size(rng, p))
        k = rng.randint(2, 5)
        lam = rng.randint(2, max(3, p - 1))
        out.append(("check_kfold_cd_chain", a, k, lam))
    return out


def _affine_expected(p, cases, seed, orbit_samples):
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        a = verify._random_subset(rng, p, rng.randint(1, 128 if p > 128 else p))
        u, v, lam = rng.randint(1, p - 1), rng.randrange(p), rng.randint(-p, p)
        out += [("dilate_sum", affine_image(a, u, v), lam), ("dilate_sum", a, lam)]
    for _ in range(orbit_samples):
        a = verify._random_subset(rng, p, rng.randint(1, min(10, p)))
        u, v = rng.randint(1, p - 1), rng.randrange(p)
        out += [("canonical_form", a), ("canonical_form", affine_image(a, u, v))]
    return out


_SUITE_CASES = [
    (verify.run_cd_suite, {"p": p}, ["check_cauchy_davenport"], _cd_expected)
    for p in (2, 101, 1009)
] + [
    (verify.run_ruzsa_suite, {"modulus": m}, ["check_ruzsa_triangle"], _ruzsa_expected)
    for m in (1, 100, 1000)
] + [
    (verify.run_plunnecke_suite, {"max_element": e}, ["check_plunnecke"],
     _plunnecke_expected)
    for e in (3, 50)
] + [
    (verify.run_dilate_chain_suite, {"max_element": e}, ["_dilate_chain_reports"],
     _dilate_chain_expected)
    for e in _CHAIN_MODULI
] + [
    (verify.run_kfold_suite, {"p": p}, ["check_kfold_cd_chain"], _kfold_expected)
    for p in (2, 101, 1009)
] + [
    (verify.run_affine_suite, {"p": p, "orbit_samples": 5},
     ["dilate_sum", "canonical_form"], _affine_expected)
    for p in (2, 101, 1009)
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("run, kwargs, checks, expected", _SUITE_CASES,
                         ids=[r.__name__[4:-6] + "".join(f"-{k}={v}" for k, v in kw.items())
                              for r, kw, _, _ in _SUITE_CASES])
def test_suites_draw_the_instances_of_the_former_draw(monkeypatch, seed, run, kwargs,
                                                      checks, expected):
    """The spy pins every instance a suite checks.  The summary is then
    compared, byte for byte, with the one the former draw (`rng.sample`
    and `from_elements`) gives; a passing suite's summary holds no
    per-instance data, so that half cannot tell instances apart; it shows
    that the summary does not depend on the sampler."""
    cases = 3 if run is verify.run_dilate_chain_suite else 20
    with monkeypatch.context() as patch:
        seen = _record(patch, *checks)
        summary = cache_mod.canonical_json(run(cases=cases, seed=seed, **kwargs).to_json_dict())
    assert seen == expected(cases=cases, seed=seed, **kwargs)
    monkeypatch.setattr(verify, "_random_subset", _sample_set)
    former = cache_mod.canonical_json(run(cases=cases, seed=seed, **kwargs).to_json_dict())
    assert summary == former


@pytest.mark.parametrize("max_element", [0, 1, 10, 38])
def test_dilate_chain_suite_runs_below_forty_members(max_element):
    """A base draws at most max_element + 1 members, so a range smaller
    than the 40-member cap runs."""
    summary = verify.run_dilate_chain_suite(20, seed=0, max_element=max_element)
    assert summary.cases == 20 * 6 and summary.violations == 0


@pytest.mark.parametrize("run", [verify.run_dilate_chain_suite, verify.run_plunnecke_suite])
def test_suites_refuse_a_negative_max_element(run):
    with pytest.raises(ValueError, match="max_element"):
        run(5, seed=0, max_element=-1)


@pytest.mark.parametrize("kwargs, name", [({"lambdas": (2.5,)}, "lambdas"),
                                          ({"lambdas": (2, 3.0)}, "lambdas"),
                                          ({"chain_lengths": (2.0,)}, "chain_lengths")])
def test_dilate_chain_suite_names_a_non_integer_entry(kwargs, name):
    """The TypeError names the tuple the entry came from, not the emulation
    modulus it would have reached."""
    with pytest.raises(TypeError, match=f"every entry of {name} must be an integer, got float"):
        verify.run_dilate_chain_suite(2, **kwargs)
