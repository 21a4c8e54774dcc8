"""The suites' one sampler, `verify._random_subset`, draws each set with
the getrandbits calls of CPython's `random.sample(range(n), size)`.  So a
seed gives every suite the instances the former `rng.sample` +
`ResidueSet.from_elements` draw gave.  These tests pin that identity: they
fail if a later CPython changes `sample`."""

import random
from math import ceil, log

import pytest

from dilates import cache as cache_mod
from dilates import verify
from dilates.residues import ResidueSet, affine_image


def _sample_set(rng, n, size):
    """The suites' former draw."""
    return ResidueSet.from_elements(n, rng.sample(range(n), size))


def _pool_sizes(n):
    """The sizes on either side of sample's switch from a set of draws to
    a pool of all n candidates: the largest that still draws into a set
    and the least that draws from the pool, or only 0 when every size
    draws from the pool."""
    k = 0
    while n > 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0):
        k += 1
    return {k - 1, k} if k else {0}


# 21, 22 and 85 sit on edges of the pool rule, for sizes 0-5, 5-6 and 6-21
@pytest.mark.parametrize("n", [1, 2, 3, 21, 22, 85, 101, 1009, 10**6 + 3])
def test_random_subset_draws_the_stream_of_sample(n):
    sizes = {0, 1, 5, 6} | _pool_sizes(n)
    if n < 10**6:  # drawing 10^6 members takes about a second
        sizes |= {n // 2, n}
    for size in sorted(k for k in sizes if k <= n):
        for seed in (0, 1, 7):
            ours, theirs = random.Random(seed), random.Random(seed)
            drawn = verify._random_subset(ours, n, size)
            assert drawn == _sample_set(theirs, n, size), (n, size, seed)
            assert ours.random() == theirs.random(), (n, size, seed)
    with pytest.raises(ValueError):
        verify._random_subset(random.Random(0), n, n + 1)


# ------------------------------------------------------------ suite instances
#
# Each suite runs with its checks patched to record their inputs; the
# expected inputs are drawn below as each suite drew them before one
# sampler did, with rng.sample and from_elements.  The dilate-chain suite
# hands each base, with its lambdas and lengths, to one routine,
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
            a = _sample_set(rng, p, verify._random_size(rng, p))
            b = _sample_set(rng, p, verify._random_size(rng, p))
        out.append(("check_cauchy_davenport", a, b))
    return out


def _ruzsa_expected(modulus, cases, seed):
    rng = random.Random(seed)
    return [("check_ruzsa_triangle",
             *(_sample_set(rng, modulus, verify._random_size(rng, modulus, 64))
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
        a = _sample_set(rng, max_element + 1, rng.randint(1, max_element + 1))
        b = _sample_set(rng, max_element + 1, rng.randint(1, max_element + 1))
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
        base = rng.sample(range(max_element + 1), rng.randint(1, 40))
        b = ResidueSet.from_elements(_CHAIN_MODULI[max_element], base)
        out.append(("_dilate_chain_reports", b, (2, 3, 5), (2, 3)))
    return out


def _kfold_expected(p, cases, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        a = _sample_set(rng, p, verify._random_size(rng, p))
        k = rng.randint(2, 5)
        lam = rng.randint(2, max(3, p - 1))
        out.append(("check_kfold_cd_chain", a, k, lam))
    return out


def _affine_expected(p, cases, seed, orbit_samples):
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        a = _sample_set(rng, p, rng.randint(1, 128 if p > 128 else p))
        u, v, lam = rng.randint(1, p - 1), rng.randrange(p), rng.randint(-p, p)
        out += [("dilate_sum", affine_image(a, u, v), lam), ("dilate_sum", a, lam)]
    for _ in range(orbit_samples):
        a = _sample_set(rng, p, rng.randint(1, min(10, p)))
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
    cases = 3 if run is verify.run_dilate_chain_suite else 20
    with monkeypatch.context() as patch:
        seen = _record(patch, *checks)
        summary = cache_mod.canonical_json(run(cases=cases, seed=seed, **kwargs).to_json_dict())
    assert seen == expected(cases=cases, seed=seed, **kwargs)
    # the summary the former draw gives, byte for byte; dilate-chain's
    # re-wrap is then the one step both runs share, pinned by `seen` above
    monkeypatch.setattr(verify, "_random_subset", _sample_set)
    former = cache_mod.canonical_json(run(cases=cases, seed=seed, **kwargs).to_json_dict())
    assert summary == former
