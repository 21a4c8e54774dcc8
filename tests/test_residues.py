"""Residue-set arithmetic: frozen examples, independent oracles, and
seeded property loops."""

import random
from itertools import combinations
from math import gcd

import pytest

from dilates import residues
from dilates.residues import (Kernel, ResidueSet, affine_image, canonical_form,
                              difference_set, dilate, dilate_sum, is_canonical,
                              is_prime, iterated_sumset, kfold_dilate_sum,
                              sumset)
from dilates.search import SearchTask, exact_min_dilate_sumset

KERNELS = [Kernel.NAIVE, Kernel.BITSHIFT, Kernel.CONVOLUTION]


def rs(n, elems):
    return ResidueSet.from_elements(n, elems)


def oracle_sumset(n, a, b):
    """Independent of the library kernels: plain set comprehension."""
    return {(x + y) % n for x in a for y in b}


# ---------------------------------------------------------------- sumset

@pytest.mark.parametrize("kernel", KERNELS)
def test_sumset_examples(kernel):
    assert sumset(rs(7, []), rs(7, [1, 2]), kernel) == rs(7, [])
    assert sumset(rs(7, [0]), rs(7, [3]), kernel) == rs(7, [3])
    # 9 pairs enumerate to all of Z/5Z
    assert sumset(rs(5, [0, 1, 2]), rs(5, [0, 1, 2]), kernel) == rs(5, range(5))


def test_sumset_modulus_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sumset(rs(7, [1]), rs(11, [1]))


def test_sumset_accepts_kernel_names():
    a, b = rs(9, [1, 4]), rs(9, [2, 8])
    assert sumset(a, b, "naive") == sumset(a, b, "convolution") == sumset(a, b)
    with pytest.raises(ValueError):
        sumset(a, b, "quantum")


def test_kernel_agreement_random():
    rng = random.Random(20260809)
    for n in (1, 2, 3, 5, 64, 101, 128):
        for _ in range(60):
            a = rs(n, rng.sample(range(n), rng.randint(0, min(n, 24))))
            b = rs(n, rng.sample(range(n), rng.randint(0, min(n, 24))))
            expected = ResidueSet.from_elements(n, oracle_sumset(n, a.elements(), b.elements()))
            results = [sumset(a, b, k) for k in KERNELS]
            assert results[0] == results[1] == results[2] == expected
            assert sumset(a, b) == expected  # auto kernel


def test_convolution_large_modulus(monkeypatch):
    rng = random.Random(7)
    n = 1 << 14  # above the auto-kernel convolution floor
    a = rs(n, rng.sample(range(n), 300))
    b = rs(n, rng.sample(range(n), 300))
    expected = sumset(a, b, Kernel.BITSHIFT)
    assert sumset(a, b, Kernel.CONVOLUTION) == expected
    # FFT counts declared unsafe: the exact BITSHIFT fallback answers
    calls = []
    monkeypatch.setattr(residues, "cyclic_support_fft", lambda x, y: calls.append(x.shape))
    assert sumset(a, b, Kernel.CONVOLUTION) == expected
    assert calls == [(n,)]


def test_fft_support_on_non_smooth_lengths(monkeypatch):
    # a length whose largest prime factor q has q^2 > n is transformed at a
    # power of two >= 2n - 1 and folded back mod n; others at their own length
    assert [residues._fft_length(n) for n in (1, 64, 693, 13312, 13, 16411, 6 * 16411, 1000003)] == \
        [1, 64, 693, 13312, 32, 1 << 16, 1 << 18, 1 << 21]
    # only one-dimensional arrays are padded: grid masks keep their shape
    rfftn, sizes = residues.np.fft.rfftn, []
    with monkeypatch.context() as m:
        m.setattr(residues.np.fft, "rfftn", lambda x, s, axes: sizes.append(s) or rfftn(x, s, axes))
        for shape in ((17, 17, 17), (67, 67), (4099,)):
            residues.cyclic_support_fft(*[residues.np.ones(shape, bool)] * 2)
    assert sizes == [(17, 17, 17)] * 2 + [(67, 67)] * 2 + [(1 << 14,)] * 2
    rng = random.Random(11)
    cases = []
    for n, ka, kb in ((16411, 100, 80), (65537, 300, 150), (1000003, 1000, 500)):
        # random sets with sums past n, and long runs (large pair counts)
        cases.append((rs(n, rng.sample(range(n), ka)), rs(n, rng.sample(range(n), kb) + [n - 1])))
        cases.append((rs(n, range(n // 3, n // 2)), rs(n, range(n - 50, n))))
    for a, b in cases:
        n = a.modulus
        expected = sumset(a, b, Kernel.BITSHIFT)
        assert 0 < len(expected) < n
        support = residues.cyclic_support_fft(residues._bits_to_mask(n, a.bits),
                                              residues._bits_to_mask(n, b.bits))
        assert support is not None and residues._mask_to_bits(support) == expected.bits
    # unsafe counts (count guard, then the rounding test): BITSHIFT answers
    a, b = cases[0]
    expected = sumset(a, b, Kernel.BITSHIFT)
    masks = (residues._bits_to_mask(a.modulus, a.bits), residues._bits_to_mask(a.modulus, b.bits))
    with monkeypatch.context() as m:
        m.setattr(residues, "_SAFE_COUNT_BITS", 6)
        assert residues.cyclic_support_fft(*masks) is None
        assert sumset(a, b, Kernel.CONVOLUTION) == expected
    irfftn = residues.np.fft.irfftn
    monkeypatch.setattr(residues.np.fft, "irfftn", lambda *x, **k: irfftn(*x, **k) + 0.3)
    assert residues.cyclic_support_fft(*masks) is None
    assert sumset(a, b, Kernel.CONVOLUTION) == expected


def test_elements_from_elements_roundtrip():
    rng = random.Random(5)
    for n in (1, 2, 63, 64, 65, 12568, 10**5):
        dense = [x for x in range(n) if rng.random() < 0.5]
        for elems in ([], range(n), [n - 1], [0, n - 1], dense,
                      rng.sample(range(n), min(n, 40))):
            a = rs(n, elems)
            assert a.elements() == tuple(sorted(set(elems)))
            assert rs(n, a.elements()) == a
    assert ResidueSet.full(65).elements() == tuple(range(65))
    assert ResidueSet.empty(65).elements() == ()


# ---------------------------------------------------------------- dilate

def test_dilate_examples():
    assert dilate(rs(7, [1, 2]), 0) == rs(7, [0])
    assert dilate(rs(7, [1, 2]), 1) == rs(7, [1, 2])
    assert dilate(rs(5, [1, 2, 3]), 2) == rs(5, [2, 4, 1])
    assert dilate(rs(7, []), 3) == rs(7, [])


def test_dilate_unit_preserves_cardinality():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([6, 7, 12, 35, 101])
        a = rs(n, rng.sample(range(n), rng.randint(0, n)))
        lam = rng.randint(-2 * n, 2 * n)
        d = dilate(a, lam)
        if gcd(lam, n) == 1:
            assert len(d) == len(a)
        else:
            assert len(d) <= len(a)


# ---------------------------------------------------------------- dilate sums

def test_dilate_sum_examples():
    assert dilate_sum(rs(7, [0]), 5) == rs(7, [0])
    assert dilate_sum(rs(7, [0, 1]), 2) == rs(7, [0, 1, 2, 3])
    assert dilate_sum(ResidueSet.full(7), 3) == ResidueSet.full(7)


def test_dilate_sum_cd_floor_prime():
    # the floor needs lam invertible: lam = 0 mod p collapses lam*A to {0}
    rng = random.Random(2)
    for p in (5, 7, 11, 13):
        for _ in range(40):
            a = rs(p, rng.sample(range(p), rng.randint(1, p)))
            lam = rng.randint(-p, p)
            if lam % p == 0:
                assert dilate_sum(a, lam) == sumset(a, rs(p, [0]))
            else:
                assert len(dilate_sum(a, lam)) >= min(2 * len(a) - 1, p)


def test_kfold_examples():
    rng = random.Random(3)
    # k=2 reduces to dilate_sum
    for _ in range(30):
        p = rng.choice([7, 11])
        a = rs(p, rng.sample(range(p), rng.randint(0, p)))
        lam = rng.randint(0, p)
        assert kfold_dilate_sum(a, 2, lam) == dilate_sum(a, lam)
    assert kfold_dilate_sum(rs(11, [0, 1]), 3, 2) == rs(11, [0, 1, 2, 3, 4])
    assert kfold_dilate_sum(rs(11, []), 4, 2) == rs(11, [])
    with pytest.raises(ValueError):
        kfold_dilate_sum(rs(11, [0]), 1, 2)


def test_iterated_sumset_examples():
    a = rs(11, [0, 1])
    assert iterated_sumset(a, 1) == a
    assert iterated_sumset(a, 3) == rs(11, [0, 1, 2, 3])
    # progression {0,d}: m-fold = {0, d, ..., m*d} without wraparound
    a2 = rs(101, [0, 4])
    assert iterated_sumset(a2, 5) == rs(101, [4 * j for j in range(6)])
    with pytest.raises(ValueError):
        iterated_sumset(a, 0)


def test_iterated_sumset_matches_linear_fold():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.choice([9, 11, 16])
        a = rs(n, rng.sample(range(n), rng.randint(1, n)))
        m = rng.randint(1, 9)
        linear = a
        for _ in range(m - 1):
            linear = sumset(linear, a)
        assert iterated_sumset(a, m) == linear


def test_difference_set_examples():
    assert difference_set(rs(7, [0, 1]), rs(7, [0, 1])) == rs(7, [6, 0, 1])
    assert difference_set(rs(7, []), rs(7, [1])) == rs(7, [])
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice([8, 13])
        a = rs(n, rng.sample(range(n), rng.randint(1, n)))
        assert 0 in difference_set(a, a)


# ---------------------------------------------------------------- affine maps

def test_affine_image_examples():
    a = rs(7, [0, 1])
    assert affine_image(a, 1, 0) == a
    assert affine_image(a, 2, 3) == rs(7, [3, 5])
    with pytest.raises(ValueError, match="unit"):
        affine_image(rs(8, [1]), 2, 0)


def test_affine_image_is_bijection():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.choice([7, 9, 16, 101])
        a = rs(n, rng.sample(range(n), rng.randint(0, n)))
        u = rng.choice([u for u in range(1, n) if gcd(u, n) == 1])
        v = rng.randrange(n)
        assert len(affine_image(a, u, v)) == len(a)


def test_affine_equivariance_of_dilate_sums():
    rng = random.Random(7)
    p = 101
    for _ in range(50):
        a = rs(p, rng.sample(range(p), rng.randint(1, 40)))
        u, v = rng.randint(1, p - 1), rng.randrange(p)
        lam = rng.randint(-p, p)
        assert len(dilate_sum(affine_image(a, u, v), lam)) == len(dilate_sum(a, lam))


# ---------------------------------------------------------------- canonical form

def oracle_canonical(a: ResidueSet) -> ResidueSet:
    """Fully explicit orbit enumeration, minimum by sorted element tuple."""
    p = a.modulus
    best = None
    for u in range(1, p):
        for v in range(p):
            img = tuple(sorted((u * x + v) % p for x in a.elements()))
            if best is None or img < best:
                best = img
    return ResidueSet.from_elements(p, best)


def test_canonical_form_examples():
    assert canonical_form(rs(7, [0])) == rs(7, [0])
    # derived by enumerating all 42 affine images
    assert oracle_canonical(rs(7, [3, 5])) == rs(7, [0, 1])
    assert canonical_form(rs(7, [3, 5])) == rs(7, [0, 1])
    with pytest.raises(ValueError, match="prime"):
        canonical_form(rs(8, [1, 2]))


def test_canonical_form_matches_oracle():
    # every subset for p <= 11, and the exact search enumerates one class
    # per affine orbit
    for p in (5, 7, 11):
        for m in range(p + 1):
            forms = set()
            for members in combinations(range(p), m):
                a = rs(p, members)
                oracle = oracle_canonical(a)
                forms.add(oracle)
                assert canonical_form(a) == oracle
                assert is_canonical(a) == (a == oracle)
            if m >= 1:
                task = SearchTask(p=p, lam=2, m=m)
                assert exact_min_dilate_sumset(task).classes_enumerated == len(forms)
    rng = random.Random(8)
    for _ in range(25):
        a = rs(13, rng.sample(range(13), rng.randint(1, 13)))
        assert canonical_form(a) == oracle_canonical(a)


def test_canonical_form_constant_on_orbit():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([7, 11, 13])
        a = rs(p, rng.sample(range(p), rng.randint(1, p - 1)))
        u, v = rng.randint(1, p - 1), rng.randrange(p)
        assert canonical_form(a) == canonical_form(affine_image(a, u, v))
    # idempotence
    a = rs(13, [2, 5, 6])
    assert canonical_form(canonical_form(a)) == canonical_form(a)


def test_is_canonical_agrees_with_canonical_form():
    rng = random.Random(10)
    for _ in range(60):
        p = rng.choice([5, 7, 11])
        a = rs(p, rng.sample(range(p), rng.randint(0, p)))
        assert is_canonical(a) == (canonical_form(a) == a)


# ---------------------------------------------------------------- misc

def test_parse_format_roundtrip():
    for text in ("p=7;{0,3,5}", "p=7;{}", "p=2;{1}"):
        assert ResidueSet.parse(text).format() == text
    with pytest.raises(ValueError):
        ResidueSet.parse("p=7;{3,1}")
    with pytest.raises(ValueError):
        ResidueSet.parse("7;{1}")
    with pytest.raises(ValueError):
        ResidueSet.parse("p=7;{7}")


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 101, 1009, 10007, 2**31 - 1]
    composites = [0, 1, 4, 100, 1001, 25326001, 3215031751]  # strong pseudoprime traps
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_residue_set_equality_and_validation():
    assert rs(7, [1, 8]) == rs(7, [1])  # reduction mod N
    assert rs(7, [1]) != rs(11, [1])
    with pytest.raises(ValueError):
        ResidueSet(7, 1 << 7)
    with pytest.raises(ValueError):
        ResidueSet(0, 0)
    assert 8 in rs(7, [1])  # membership reduces mod N
    assert list(rs(5, [3, 1])) == [1, 3]
