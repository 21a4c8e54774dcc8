"""Residue-set arithmetic: frozen examples, independent oracles, and
seeded property loops."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dilates import residues
from dilates.grids import box_grid_set, equal_box_sides, optimized_box_sides_3d
from dilates.intervals import discretize_to_zp, encode_grid_to_intervals
from dilates.residues import (Kernel, ResidueSet, affine_image, canonical_form,
                              difference_set, dilate, dilate_sum, is_canonical,
                              is_prime, iterated_sumset, kfold_dilate_sum,
                              sumset)
from dilates.search import SearchTask, exact_min_dilate_sumset

KERNELS = [Kernel.NAIVE, Kernel.BITSHIFT, Kernel.CONVOLUTION]
# reproducible property runs that leave no example database behind
PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


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
    # a run ending at N - 1 plus N - 1, and full + full, reach 2^(2N - 2)
    assert sumset(rs(7, [4, 5, 6]), rs(7, [2, 6]), kernel) == rs(7, [0, 1, 3, 4, 5, 6])
    assert sumset(ResidueSet.full(7), ResidueSet.full(7), kernel) == ResidueSet.full(7)


def test_sumset_modulus_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sumset(rs(7, [1]), rs(11, [1]))


def test_sumset_accepts_kernel_names():
    a, b = rs(9, [1, 4]), rs(9, [2, 8])
    assert sumset(a, b, "naive") == sumset(a, b, "convolution") == sumset(a, b)
    with pytest.raises(ValueError):
        sumset(a, b, "quantum")


STRUCTURES = ("members", "intervals", "progression", "full", "co-singleton",
              "wrapping run", "distinct runs")


def structured_set(n, kind, rng):
    """A subset of Z/nZ of the given kind: random members, or the run
    structures BITSHIFT reads as runs (unions of intervals, an arithmetic
    progression, the full set, a run of length n - 1, a run through 0,
    consecutive runs of lengths 1, 2, 3, ...)."""
    if kind == "members":
        return rs(n, rng.sample(range(n), rng.randint(0, min(n, 24))))
    if kind == "intervals":
        spans = [(rng.randrange(n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        return rs(n, [s + j for s, l in spans for j in range(l)])
    if kind == "progression":
        start, step = rng.randrange(n), rng.randrange(1, n + 1)
        return rs(n, [start + j * step for j in range(rng.randint(1, n))])
    if kind == "full":
        return ResidueSet.full(n)
    if kind == "co-singleton":
        return rs(n, [rng.randrange(n) + j for j in range(n - 1)])
    if kind == "wrapping run":
        length = rng.randint(min(2, n), n)
        start = n - rng.randint(1, max(1, length - 1))
        return rs(n, [start + j for j in range(length)])
    elems, pos, length = [], rng.randrange(max(1, n // 4)), 1
    while pos + length <= n:
        elems.extend(range(pos, pos + length))
        pos, length = pos + length + rng.randint(1, 3), length + 1
    return rs(n, elems)


def test_kernel_agreement_random():
    rng = random.Random(20260809)
    for n in (1, 2, 3, 5, 64, 101, 128):
        for _ in range(60):
            a = structured_set(n, rng.choice(STRUCTURES), rng)
            b = structured_set(n, rng.choice(STRUCTURES), rng)
            expected = ResidueSet.from_elements(n, oracle_sumset(n, a.elements(), b.elements()))
            results = [sumset(a, b, k) for k in KERNELS]
            assert results[0] == results[1] == results[2] == expected
            assert sumset(a, b) == expected  # auto kernel
    # sparse operands with more runs, so BITSHIFT reads the structured ones as runs
    for n in (257, 1009):
        for kind in STRUCTURES[1:]:
            a, b = structured_set(n, kind, rng), rs(n, rng.sample(range(n), n // 10))
            expected = rs(n, oracle_sumset(n, a.elements(), b.elements()))
            assert [sumset(a, b, k) for k in KERNELS] == [expected] * 3


@st.composite
def residue_set_pairs(draw):
    n = draw(st.integers(1, 300))
    members = st.lists(st.integers(0, n - 1), max_size=60)
    structured = st.builds(structured_set, st.just(n), st.sampled_from(STRUCTURES[1:]),
                           st.randoms(use_true_random=False))
    sets = st.one_of(members.map(lambda elems: rs(n, elems)), structured)
    return draw(sets), draw(sets)


def test_kernels_agree_on_the_anchor_chain():
    # the benchmark's anchor chain: box d = 3, lam = 64 discretized at
    # p = 1000003 is about 200 runs, so the automatic kernel is BITSHIFT
    grid = box_grid_set(3, 64, optimized_box_sides_3d(Fraction(1, 64), 64))
    p = 1000003
    a = discretize_to_zp(encode_grid_to_intervals(grid), p)
    d = dilate(a, 64)
    runs = (residues._run_count(a.bits), residues._run_count(d.bits))
    assert residues._auto_kernel(p, *runs) is Kernel.BITSHIFT
    assert runs[0] < len(a) // 50
    shifted = sumset(a, d, Kernel.BITSHIFT)
    assert shifted == sumset(a, d, Kernel.CONVOLUTION) == sumset(a, d)


@PROPERTY
@given(residue_set_pairs())
def test_kernels_agree_property(pair):
    a, b = pair
    expected = rs(a.modulus, oracle_sumset(a.modulus, a.elements(), b.elements()))
    assert [sumset(a, b, k) for k in KERNELS] == [expected] * 3


@st.composite
def mask_pairs(draw):
    # long 1-D axes reach the padded, folded transform of prime lengths
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, (300, 24, 9, 5)[ndim - 1]),
                                min_size=ndim, max_size=ndim)))
    return draw(arrays(bool, shape)), draw(arrays(bool, shape))


@PROPERTY
@given(mask_pairs())
def test_shift_routine_equals_fft_property(masks):
    assert np.array_equal(residues.cyclic_support_shift(*masks),
                          residues.cyclic_support_fft(*masks))


def make_fft_unsafe(m, how):
    """Patch cyclic_support_fft so it cannot trust its counts: lower the
    2^26 count guard to 2^6, or push every count 0.3 off an integer."""
    if how == "count guard":
        m.setattr(residues, "_SAFE_COUNT_BITS", 6)
    else:
        irfftn = residues.np.fft.irfftn
        m.setattr(residues.np.fft, "irfftn", lambda *x, **k: irfftn(*x, **k) + 0.3)


UNSAFE = ("count guard", "rounding test")


def test_convolution_large_modulus(monkeypatch):
    rng = random.Random(7)
    n = 1 << 14  # above the auto-kernel convolution floor
    a = rs(n, rng.sample(range(n), 300))
    b = rs(n, rng.sample(range(n), 300))
    expected = sumset(a, b, Kernel.BITSHIFT)
    assert sumset(a, b, Kernel.CONVOLUTION) == expected
    # FFT counts declared unsafe: the shift routine answers inside the helper
    shift, calls = residues.cyclic_support_shift, []
    monkeypatch.setattr(residues, "cyclic_support_shift",
                        lambda x, y: calls.append(x.shape) or shift(x, y))
    for how in UNSAFE:
        with monkeypatch.context() as m:
            make_fft_unsafe(m, how)
            assert sumset(a, b, Kernel.CONVOLUTION) == expected
    assert calls == [(n,)] * 2


def test_auto_kernel_from_measured_crossover():
    auto = residues._auto_kernel
    # the switch points of min(runs(A), runs(B)) * N > 45 * L * bit_length(L)
    for n, switch in ((16411, 3054), (10**5, 765), (1000003, 2076)):
        assert auto(n, switch, n // 2) is Kernel.BITSHIFT
        assert auto(n, n // 2, switch + 1) is Kernel.CONVOLUTION
    # operands of 1274 runs each stay on BITSHIFT at p = 64007, of 2452 runs
    # each take the FFT at p = 23417: a shift per run costs what a shift per
    # member did, so the crossovers timed on pipeline sums counted in members
    # (2 CPUs: BITSHIFT 4.2 ms against FFT 10.3 ms, FFT 4.5 ms against
    # 4.9 ms) still hold
    assert auto(64007, 1274, 1274) is Kernel.BITSHIFT
    assert auto(23417, 2452, 2452) is Kernel.CONVOLUTION
    # below the floor no set is large enough for the FFT to pay
    assert auto(residues._CONVOLUTION_MIN_N - 1, 10**4, 10**4) is Kernel.BITSHIFT
    # the d = 2 pipeline sum at p = 36871 has 3906 members but 63 runs in A'
    # (3410 in lam*A'): counted in members it took the FFT at 11.1 ms against
    # BITSHIFT's 9.6 ms; counted in runs it stays on BITSHIFT
    grid = box_grid_set(2, 192, equal_box_sides(2, Fraction(1, 9), 192))
    a = discretize_to_zp(encode_grid_to_intervals(grid), 36871)
    d = dilate(a, 192)
    assert len(a) == len(d) == 3906
    assert auto(36871, len(a), len(d)) is Kernel.CONVOLUTION
    assert auto(36871, residues._run_count(a.bits), residues._run_count(d.bits)) is Kernel.BITSHIFT


def test_fft_support_on_non_smooth_lengths(monkeypatch):
    # a length whose largest prime factor q has q^2 > n is transformed at a
    # power of two >= 2n - 1 and folded back mod n; others at their own length
    assert [residues._fft_length(n) for n in (1, 64, 693, 13312, 13, 16411, 6 * 16411, 1000003)] == \
        [1, 64, 693, 13312, 32, 1 << 16, 1 << 18, 1 << 21]
    # only one-dimensional arrays are padded: grid masks keep their shape;
    # equal operands (the same array, or equal copies) take one forward
    # transform, distinct ones two
    rfftn, sizes = residues.np.fft.rfftn, []
    with monkeypatch.context() as m:
        m.setattr(residues.np.fft, "rfftn", lambda x, s, axes: sizes.append(s) or rfftn(x, s, axes))
        for shape in ((17, 17, 17), (67, 67), (4099,)):
            ones = np.ones(shape, bool)
            holed = ones.copy()
            holed.flat[0] = False
            for a, b, transforms in ((ones, holed, 2), (ones, ones, 1),
                                     (holed, holed.copy(), 1)):
                sizes.clear()
                assert residues.cyclic_support_fft(a, b).all()  # |A| + |B| > size
                padded = (1 << 14,) if shape == (4099,) else shape
                assert sizes == [padded] * transforms
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
        assert residues._mask_to_bits(support) == expected.bits
    # unsafe counts (count guard, then the rounding test): still the exact
    # support, the shift routine's
    a, b = cases[0]
    expected = sumset(a, b, Kernel.BITSHIFT)
    masks = (residues._bits_to_mask(a.modulus, a.bits), residues._bits_to_mask(a.modulus, b.bits))
    shifted = residues.cyclic_support_shift(*masks)
    assert residues._mask_to_bits(shifted) == expected.bits
    for how in UNSAFE:
        with monkeypatch.context() as m:
            make_fft_unsafe(m, how)
            support = residues.cyclic_support_fft(*masks)
            assert support.dtype == bool and np.array_equal(support, shifted)
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


def oracle_bits(n, elems):
    """Independent of the library builder: a sum of distinct powers of two."""
    return sum(1 << y for y in {x % n for x in elems})


def test_from_elements_matches_oracle():
    # from_elements ORs members into an integer while |A| <= 32 or
    # |A|*N <= 2^19 and scatters them, reduced by Python's %, into a mask
    # above that.  Byte boundaries, N = 1, both sides of the rule
    # (8192 * 64 = 2^19), members outside [0, N) and beyond int64, and
    # generator input.
    rng = random.Random(8)
    for n in (1, 7, 8, 9, 63, 64, 65, 8192, 12568, 90001):
        for elems in ([], [n - 1], rng.sample(range(n), min(n, 40)),
                      rng.sample(range(n), min(n, 64)), rng.sample(range(n), min(n, 65)),
                      [x for x in range(n) if rng.random() < 0.5],
                      [rng.randint(-3 * n, 3 * n) for _ in range(70)],
                      [rng.randint(-2**80, 2**80) for _ in range(70)]):
            a = rs(n, elems)
            assert a.bits == oracle_bits(n, elems)
            assert rs(n, (x for x in elems)) == a
            lam, v = rng.randint(-2 * n, 2 * n), rng.randint(-n, n)
            assert dilate(a, lam).bits == oracle_bits(n, [lam * x for x in elems])
            u = next(u for u in iter(lambda: rng.randint(-n, n), None) if gcd(u, n) == 1)
            assert affine_image(a, u, v).bits == oracle_bits(n, [u * x + v for x in elems])
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            rs(modulus, [1])


def oracle_runs(members):
    """(start, length) of the maximal runs of consecutive integers in a
    sorted list."""
    runs = []
    for x in members:
        if runs and sum(runs[-1]) == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return [tuple(r) for r in runs]


# Sets at the gates of the array paths, and one member over them, with
# which reader takes the arrays as set: (N, members, elements(), _runs,
# dilate and affine_image).  elements() weighs set bits by bit length, _runs
# the same for bits ^ (bits << 1), the maps |A| by the modulus.
GATE_CASES = [
    # 32 members up to 1023: 32 * 1024 = _ARRAY_MIN_WORK for elements() and
    # the maps; 64 run edges up to 1024 are over it
    (1024, list(range(31, 1024, 32)), False, True, False),
    (1024, [0] + list(range(31, 1024, 32)), True, True, True),
    # 16 isolated members up to 1022: 32 run edges up to 1023 at the gate
    (1024, list(range(62, 1023, 64)), False, False, False),
    (1024, [0] + list(range(62, 1023, 64)), False, True, False),
    # one long run: its members over the gate, its two edges under it
    (2003, list(range(1000)), True, False, True),
]


@pytest.mark.parametrize("gate", ["strings", "arrays", "as set"])
def test_array_paths_match_oracles(monkeypatch, gate):
    # elements(), _runs, dilate and affine_image read numpy index arrays
    # above |A|*N = _ARRAY_MIN_WORK and strings and ints below it.  Every
    # case runs with the gate forced shut, forced open and as set; as set,
    # the sizes below fall on both sides of it.
    if gate != "as set":
        monkeypatch.setattr(residues, "_ARRAY_MIN_WORK", 1 << 62 if gate == "strings" else 0)
    rng = random.Random(31)

    def check(n, elems):
        members = sorted({x % n for x in elems})
        a = rs(n, (x for x in elems))
        assert a.elements() == tuple(members)
        assert list(residues._runs(a.bits)) == oracle_runs(members)
        assert n == 1 or dilate(a, 1) is a and dilate(a, n + 1) is a
        # lam = 0 mod N, negative, unreduced and beyond int64
        for lam in (0, n, -n, -1, 2, rng.randint(-3 * n, 3 * n), 2**70 + 3):
            assert dilate(a, lam).elements() == \
                tuple(sorted({lam * x % n for x in members}))
        unit = next(u for u in iter(lambda: rng.randint(-3 * n, 3 * n), None)
                    if gcd(u, n) == 1)
        for u, v in ((-1, -1), (n + 1, 2 * n + 3), (unit, rng.randint(-3 * n, 3 * n)),
                     (2**70 * n - 1, -(2**65))):
            assert affine_image(a, u, v).elements() == \
                tuple(sorted({(u * x + v) % n for x in members}))
        return a

    for n in (1, 2, 7, 64, 257, 1009, 4099, 16411):
        for elems in ([], range(n), [0], [n - 1],
                      # a run through 0 and one ending at N - 1
                      list(range(min(n, 5))) + list(range(max(0, n - 4), n)),
                      rng.sample(range(n), min(n, 8)),
                      [x for x in range(n) if rng.random() < 0.5]):
            check(n, elems)
    decoded = []
    decode = residues._bits_to_members
    monkeypatch.setattr(residues, "_bits_to_members",
                        lambda bits: decoded.append(bits) or decode(bits))
    for n, elems, *on_arrays in GATE_CASES:
        a = check(n, elems)
        if gate == "as set":
            took = []
            for read in (a.elements, lambda: list(residues._runs(a.bits)),
                         lambda: dilate(a, 3), lambda: affine_image(a, 3, 5)):
                decoded.clear()
                read()
                took.append(bool(decoded))
            assert took == on_arrays + on_arrays[-1:]
    # from_elements keeps its own |A|*N = 2^19 gate: members beyond int64
    # and generator input on both sides of it
    for n in (7, 16411):
        elems = [rng.randint(-2**80, 2**80) for _ in range(70)] + [2**64, -(2**63) - 1]
        assert rs(n, (x for x in elems)).elements() == tuple(sorted({x % n for x in elems}))


def test_from_elements_takes_exactly_integers():
    # Python and numpy integers, mixed and beyond int64, give one answer on
    # both sides of the |A|*N = 2^19 gate; anything else raises TypeError
    for n, size in ((101, 3), (101, 40), (20011, 40)):
        assert (size * n > 1 << 19) == (n == 20011)
        elems = [70 + 103 * i for i in range(size)]
        want = tuple(sorted({x % n for x in elems + [2**70, 1]}))
        for wrap in (int, np.int64, np.uint64, np.int32):
            got = rs(n, [wrap(x) for x in elems] + [2**70, np.int8(1)])
            assert type(got.bits) is int and got.elements() == want
            got = rs(n, [wrap(x) for x in elems])  # numpy members only
            assert type(got.bits) is int
            assert got.elements() == tuple(sorted({x % n for x in elems}))
        with pytest.raises(TypeError):
            rs(n, [i + 0.5 for i in range(size)])
        for bad in (3.0, np.float64(3), np.True_, Fraction(3), "3"):
            with pytest.raises(TypeError):
                rs(n, list(range(size - 1)) + [bad])
    with pytest.raises(TypeError, match="bitvector must be an int"):
        ResidueSet(101, np.int64(3))


def test_modulus_is_a_plain_int():
    # a numpy or bool modulus is stored as a plain int, so 1 << N and x % N
    # never run in fixed-width numpy arithmetic; a float raises TypeError
    a = ResidueSet(np.int64(101), 5)
    assert type(a.modulus) is int and a == ResidueSet(101, 5)
    assert dilate_sum(a, 3) == dilate_sum(ResidueSet(101, 5), 3)
    full = ResidueSet.full(np.int64(70))
    assert type(full.modulus) is int and len(full) == 70
    b = ResidueSet.from_elements(np.int64(101), [3])
    assert type(b.modulus) is int and b == rs(101, [3])
    assert type(ResidueSet.empty(np.uint16(7)).modulus) is int
    c = ResidueSet(True, 1)
    assert type(c.modulus) is int and c.format() == "p=1;{0}"
    for build in (lambda: ResidueSet(101.0, 5), lambda: ResidueSet.full(70.0),
                  lambda: ResidueSet.from_elements(101.0, [3]),
                  lambda: ResidueSet.empty(np.float64(7))):
        with pytest.raises(TypeError, match="modulus must be an integer, got float"):
            build()


def test_from_elements_ors_small_sets_at_large_n(monkeypatch):
    # at N = 10^6 + 3 up to 32 members are ORed into an integer (the
    # scatter costs ~N bytes, the OR ~|A|*N/64 words); 33 take the scatter
    n = 10**6 + 3
    scattered = []

    def spy(modulus, members):
        scattered.append(len(members))
        return to_bits(modulus, members)

    to_bits = residues._members_to_bits
    monkeypatch.setattr(residues, "_members_to_bits", spy)
    rng = random.Random(11)
    for size in (6, 32, 33):
        elems = rng.sample(range(n - 1), size - 1) + [n - 1]
        assert rs(n, elems).bits == sum(1 << x for x in elems)
    assert scattered == [33]


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
    with pytest.raises(ValueError, match="modulus mismatch"):
        difference_set(rs(7, [1]), rs(11, [1]))


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
