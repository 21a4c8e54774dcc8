"""Exact set arithmetic in Z/NZ.

A set of residues is stored as a bitvector packed into a Python integer
(bit i set iff residue i is a member), which makes the shift-and-OR sumset
kernel a handful of bigint operations.  Three interchangeable sumset
kernels are provided (naive pair enumeration, bitvector shifting, FFT
convolution); they produce bit-identical results and exist so each can
serve as an oracle for the others.

Sets of integers are emulated by choosing the modulus larger than any
reachable sum; callers that rely on this validate the headroom themselves.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

import numpy as np

__all__ = [
    "Kernel",
    "ResidueSet",
    "sumset",
    "dilate",
    "dilate_sum",
    "kfold_dilate_sum",
    "iterated_sumset",
    "difference_set",
    "affine_image",
    "canonical_form",
    "is_canonical",
    "is_prime",
    "require_prime",
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= 1 << 64:
        raise ValueError(f"primality test limited to n < 2^64, got {n}")
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(n: int, what: str = "modulus") -> None:
    if not is_prime(n):
        raise ValueError(f"{what} must be prime, got {n}")


class Kernel(enum.Enum):
    """Sumset kernel selector; all kernels give identical outputs."""

    NAIVE = "naive"
    BITSHIFT = "bitshift"
    CONVOLUTION = "convolution"


# Convolution uses float64 FFTs; counts round safely only while the maximum
# possible pair count stays far below 2^53.  2^26 is the contract limit.
_SAFE_COUNT_BITS = 26
_CONVOLUTION_MIN_N = 1 << 14
_FFT_COST = 45
# Above |A| * N = 2^15 (a timed sweep's crossover) members are decoded,
# mapped and re-encoded as numpy index arrays instead of strings and ints.
_ARRAY_MIN_WORK = 1 << 15


def _int_modulus(modulus) -> int:
    """A modulus of another integer type (numpy, bool) as a plain int, so
    1 << N and x % N run on Python ints; anything else raises TypeError."""
    try:
        return operator.index(modulus)
    except TypeError:
        raise TypeError(f"modulus must be an integer, got {type(modulus).__name__}") from None


@dataclass(frozen=True)
class ResidueSet:
    """An immutable subset of Z/NZ stored as a membership bitvector."""

    modulus: int
    bits: int

    def __post_init__(self):
        if type(self.modulus) is not int:
            object.__setattr__(self, "modulus", _int_modulus(self.modulus))
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not isinstance(self.bits, int):
            raise TypeError(f"bitvector must be an int, got {type(self.bits).__name__}")
        if self.bits < 0 or self.bits >> self.modulus:
            raise ValueError("bitvector has bits outside [0, modulus)")

    @classmethod
    def from_elements(cls, modulus: int, elements) -> "ResidueSet":
        """The residues mod N of the given integers; the one builder of a
        bitvector from a list of members.  ORing into a growing integer
        costs |A|*N/64 word operations and the scatter about N bytes plus a
        fixed overhead, so once |A| > 32 and |A|*N > 2^19 (the measured
        crossovers) the members, reduced mod N, are scattered into a mask
        converted once.  Members are Python or numpy integers, of any
        size; anything else raises TypeError on both sides of the gate."""
        if type(modulus) is not int:
            modulus = _int_modulus(modulus)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not isinstance(elements, (list, tuple)):
            elements = list(elements)
        if len(elements) <= 32 or len(elements) * modulus <= 1 << 19:
            bits = 0
            for x in map(operator.index, elements):
                bits |= 1 << (x % modulus)
            return cls(modulus, bits)
        members = np.fromiter((x % modulus for x in map(operator.index, elements)),
                              dtype=np.int64, count=len(elements))
        return cls(modulus, _members_to_bits(modulus, members))

    @classmethod
    def empty(cls, modulus: int) -> "ResidueSet":
        return cls(modulus, 0)

    @classmethod
    def full(cls, modulus: int) -> "ResidueSet":
        if type(modulus) is not int:
            modulus = _int_modulus(modulus)
        return cls(modulus, (1 << modulus) - 1)

    @classmethod
    def parse(cls, text: str) -> "ResidueSet":
        """Parse the set literal format ``p=<N>;{a1,a2,...}``."""
        text = text.strip()
        head, _, body = text.partition(";")
        if not head.startswith("p=") or not body.startswith("{") or not body.endswith("}"):
            raise ValueError(f"bad set literal: {text!r}")
        modulus = int(head[2:])
        inner = body[1:-1].strip()
        elements = [int(tok) for tok in inner.split(",")] if inner else []
        for a, b in zip(elements, elements[1:]):
            if b <= a:
                raise ValueError("set literal elements must be ascending and distinct")
        if elements and not (0 <= elements[0] and elements[-1] < modulus):
            raise ValueError("set literal elements out of range")
        return cls.from_elements(modulus, elements)

    def format(self) -> str:
        return f"p={self.modulus};{{{','.join(map(str, self.elements()))}}}"

    def elements(self) -> tuple[int, ...]:
        """Members in ascending order, read in time linear in the modulus."""
        return tuple(_positions(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x: int) -> bool:
        return bool(self.bits >> (x % self.modulus) & 1)

    def __iter__(self):
        return iter(self.elements())

    def is_subset(self, other: "ResidueSet") -> bool:
        _check_same_modulus(self, other)
        return self.bits | other.bits == other.bits

    def __repr__(self):
        return f"ResidueSet({self.format()!r})"


def _check_same_modulus(a: ResidueSet, b: ResidueSet) -> None:
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} != {b.modulus}")


def _bits_to_mask(n: int, bits: int) -> np.ndarray:
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def _mask_to_bits(mask: np.ndarray) -> int:
    packed = np.packbits(mask, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _bits_to_members(bits: int) -> np.ndarray:
    """The members of a bitvector as an ascending int64 index array, read
    up to its highest member, not to the modulus."""
    return np.flatnonzero(_bits_to_mask(bits.bit_length(), bits).view(bool))


def _positions(bits: int) -> list[int]:
    """The set bits of bits, ascending: the one scanner under elements()
    and _runs.  While (set bits) * (bit length) <= _ARRAY_MIN_WORK the
    binary digits are scanned with str.find, least significant first;
    above it _bits_to_members decodes them."""
    if bits.bit_count() * bits.bit_length() > _ARRAY_MIN_WORK:
        return _bits_to_members(bits).tolist()
    digits = bin(bits)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _members_to_bits(n: int, members: np.ndarray) -> int:
    """The bitvector of an array of residues in [0, n), by one scatter."""
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return _mask_to_bits(mask)


def _sumset_bits_naive(n: int, ea, eb) -> int:
    out = 0
    for a in ea:
        for b in eb:
            out |= 1 << ((a + b) % n)
    return out


def _run_count(bits: int) -> int:
    """Number of maximal runs of consecutive members, read linearly (a run
    through N - 1 and 0 counts as two)."""
    return (bits ^ (bits << 1)).bit_count() >> 1  # a start and an end per run


def _runs(bits: int) -> Iterator[tuple[int, int]]:
    """(start, length) of each run of members, in ascending order.  The set
    bits of bits ^ (bits << 1) are the runs' starts (even indices) and
    ends (odd indices)."""
    edges = _positions(bits ^ (bits << 1))
    starts = edges[::2]
    return zip(starts, map(operator.sub, edges[1::2], starts))


def _sumset_bits_bitshift(n: int, a: int, b: int, ra: int, rb: int) -> int:
    """OR of the shifts of one bitvector by the runs of the other, folded
    once mod N.

    The operand with fewer runs (ra, rb count them) is read as runs
    [s, s + l), a lone member being a run of length 1: the other bitvector
    is smeared over l positions and shifted up by s.  The smear over l is
    its smear over the largest 2^k <= l, ORed with itself shifted by
    l - 2^k; those are built by doubling, one smear per distinct l.  A run
    ends by N - 1, so every term is below 2^(2N) and one fold
    (acc | acc >> N) & mask reduces the OR mod N.
    """
    runs, bits = (a, b) if ra <= rb else (b, a)
    powers = [bits]  # powers[k] = bits smeared over 2^k positions
    smears = {}
    acc = 0
    for s, l in _runs(runs):
        smear = smears.get(l)
        if smear is None:
            k = l.bit_length() - 1
            while len(powers) <= k:
                powers.append(powers[-1] | powers[-1] << (1 << (len(powers) - 1)))
            smear = smears[l] = powers[k] | powers[k] << (l - (1 << k))
        acc |= smear << s
    return (acc | acc >> n) & ((1 << n) - 1)


def _fft_length(n: int) -> int:
    """FFT length for a one-dimensional cyclic axis of length n: n itself
    unless its largest prime factor q has q^2 > n (the lengths numpy may
    send to Bluestein's algorithm), then the power of two >= 2n - 1, which
    holds the linear convolution that is folded back mod n."""
    m, q = n, 2
    while q * q <= m:
        if m % q:
            q += 1
        else:
            m //= q
    # m is now the largest prime factor of n (1 for n = 1)
    return n if m * m <= n else 1 << (2 * n - 2).bit_length()


def cyclic_support_shift(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact support of the cyclic convolution of two same-shape 0/1 arrays:
    the OR of the denser one rolled by each member of the sparser one."""
    small, big = (a, b) if np.count_nonzero(a) <= np.count_nonzero(b) else (b, a)
    big = big.astype(bool, copy=False)
    out = np.zeros_like(big)
    axes = tuple(range(big.ndim))
    for idx in np.argwhere(small):
        out |= np.roll(big, tuple(idx.tolist()), axis=axes)
    return out


def cyclic_support_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Support of the cyclic convolution of two same-shape 0/1 arrays.

    Works over any number of axes.  A one-dimensional array is transformed
    at _fft_length and folded back mod its length: for prime-heavy lengths
    from 257 up to 10^6 that measured 1.4-5x faster than numpy's own
    transform on 2 CPUs.  Arrays of two or more axes keep their shape,
    because padding every axis multiplies the array (17^3 cells padded to
    64^3 ran 30x slower).
    Always exact: when the counts cannot be trusted to round (a count could
    reach 2^26, or some folded count lies more than 0.25 from an integer)
    the answer comes from cyclic_support_shift instead.
    """
    if min(np.count_nonzero(a), np.count_nonzero(b)) >= 1 << _SAFE_COUNT_BITS:
        return cyclic_support_shift(a, b)
    axes = tuple(range(a.ndim))
    shape = (_fft_length(a.size),) if a.ndim == 1 else a.shape
    # Equal operands (A + A, or the equal projections of a symmetric grid)
    # take one forward transform.  The product is formed in place, so only
    # it is alive while the inverse runs, and it is dropped right after.
    spectrum = np.fft.rfftn(a.astype(np.float64), s=shape, axes=axes)
    if np.array_equal(a, b):
        spectrum *= spectrum
    else:
        spectrum *= np.fft.rfftn(b.astype(np.float64), s=shape, axes=axes)
    counts = np.fft.irfftn(spectrum, s=shape, axes=axes)
    del spectrum
    if counts.shape != a.shape:
        n = a.size
        counts[:n - 1] += counts[n:2 * n - 1]
        counts = counts[:n]
    if np.max(np.abs(counts - np.rint(counts))) > 0.25:
        return cyclic_support_shift(a, b)
    return counts > 0.5


def _auto_kernel(n: int, ca: int, cb: int) -> Kernel:
    # ca, cb count the operands' runs.  BITSHIFT costs one pass over the
    # bits per run of the operand with fewer runs, the FFT about L log2 L
    # at its transform length L; _FFT_COST fits timed crossovers.
    # L >= n, so small operands are settled without factoring n.
    if n < _CONVOLUTION_MIN_N or min(ca, cb) <= _FFT_COST * n.bit_length():
        return Kernel.BITSHIFT
    length = _fft_length(n)
    if min(ca, cb) * n > _FFT_COST * length * length.bit_length():
        return Kernel.CONVOLUTION
    return Kernel.BITSHIFT


def sumset(a: ResidueSet, b: ResidueSet, kernel: Kernel | None = None) -> ResidueSet:
    """A + B = {a + b mod N}.  Kernel choice never affects the result."""
    _check_same_modulus(a, b)
    n = a.modulus
    if a.bits == 0 or b.bits == 0:
        return ResidueSet.empty(n)
    ra, rb = _run_count(a.bits), _run_count(b.bits)
    if kernel is None:
        kernel = _auto_kernel(n, ra, rb)
    elif not isinstance(kernel, Kernel):
        kernel = Kernel(kernel)
    if kernel is Kernel.NAIVE:
        bits = _sumset_bits_naive(n, a.elements(), b.elements())
    elif kernel is Kernel.BITSHIFT:
        bits = _sumset_bits_bitshift(n, a.bits, b.bits, ra, rb)
    else:
        bits = _mask_to_bits(cyclic_support_fft(_bits_to_mask(n, a.bits),
                                                _bits_to_mask(n, b.bits)))
    return ResidueSet(n, bits)


def _affine(a: ResidueSet, u: int, v: int) -> ResidueSet:
    """{u*x + v mod N : x in A}, the one member map under dilate and
    affine_image.  Above |A|*N = _ARRAY_MIN_WORK, while N^2 < 2^63 keeps
    u*x + v in int64 once u and v are reduced, the members are mapped as
    one index array and scattered; otherwise from_elements builds the image."""
    n = a.modulus
    u %= n
    v %= n
    if a.bits.bit_count() * n > _ARRAY_MIN_WORK and n * n < 1 << 63:
        return ResidueSet(n, _members_to_bits(n, (_bits_to_members(a.bits) * u + v) % n))
    return ResidueSet.from_elements(n, [u * x + v for x in a.elements()])


def dilate(a: ResidueSet, lam: int) -> ResidueSet:
    """lam*A = {lam*a mod N}.  |lam*A| = |A| whenever gcd(lam, N) = 1."""
    lam %= a.modulus
    if lam == 1:
        return a
    return _affine(a, lam, 0)


def dilate_sum(a: ResidueSet, lam: int, kernel: Kernel | None = None) -> ResidueSet:
    """A + lam*A, the sum of dilates."""
    return sumset(a, dilate(a, lam), kernel)


def kfold_dilate_sum(a: ResidueSet, k: int, lam: int) -> ResidueSet:
    """A + ... + A + lam*A with k-1 plain summands; k=2 is dilate_sum."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return sumset(iterated_sumset(a, k - 1), dilate(a, lam))


def iterated_sumset(a: ResidueSet, m: int) -> ResidueSet:
    """The m-fold sumset A + ... + A, computed by repeated doubling."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if a.bits == 0:
        return a
    full = (1 << a.modulus) - 1
    result = None
    power = a
    while m:
        if m & 1:
            result = power if result is None else sumset(result, power)
            if result.bits == full:
                return result
        m >>= 1
        if m:
            power = sumset(power, power)
    return result


def difference_set(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """A - B = {a - b mod N} = A + (-1)*B."""
    return sumset(a, dilate(b, -1))


def affine_image(a: ResidueSet, u: int, v: int) -> ResidueSet:
    """{u*a + v mod N} for a unit u; a bijective relabelling of Z/NZ."""
    n = a.modulus
    if gcd(u, n) != 1:
        raise ValueError(f"u={u} is not a unit mod {n}")
    return _affine(a, u, v)


def _pair_images(n: int, elems) -> Iterator[list[int]]:
    """For every ordered pair x != y of members, sorted((A - x) / (y - x)),
    the image of A under the affine map sending x to 0 and y to 1.

    For |A| >= 2 the least image contains 0 and 1 (any pair maps there), so
    it starts [0, 1]; and an image starting [0, 1] is fixed by the pair
    sent to 0 and 1.  These m(m-1) images are therefore the only candidates
    for the canonical form.  Lazy, so is_canonical can stop at the first
    candidate below its own elements.
    """
    for x in elems:
        for y in elems:
            if y != x:
                u = pow(y - x, -1, n)
                yield sorted([(z - x) * u % n for z in elems])


def canonical_form(a: ResidueSet) -> ResidueSet:
    """The distinguished representative of the affine orbit {u*A + v}.

    Representative = the image whose sorted element tuple is lexicographically
    least (memberships pushed toward 0); idempotent and constant on orbits.
    Requires a prime modulus so that every u in [1, N) is a unit.
    """
    n = a.modulus
    require_prime(n)
    if a.bits == 0 or a.bits == (1 << n) - 1:
        return a
    # only a singleton has no pair images; its canonical form is {0}
    return ResidueSet.from_elements(n, min(_pair_images(n, a.elements()), default=[0]))


def is_canonical(a: ResidueSet) -> bool:
    """True iff a == canonical_form(a), with early exit.  Public API kept
    on purpose, though the exact search, whose witness is canonical by
    construction, does not call it."""
    n = a.modulus
    require_prime(n)
    if a.bits == 0 or a.bits == (1 << n) - 1:
        return True
    own = list(a.elements())
    # a canonical form starts [0, 1], or is [0] for a singleton
    if own[:2] != [0, 1][:len(own)]:
        return False
    return not any(cand < own for cand in _pair_images(n, own))
