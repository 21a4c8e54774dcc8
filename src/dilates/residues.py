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
from functools import lru_cache
from math import gcd, prod

import numpy as np

__all__ = [
    "Kernel",
    "ResidueSet",
    "sumset",
    "dilate",
    "dilate_sum",
    "iterated_sumset",
    "linear_form",
    "affine_image",
    "canonical_form",
    "is_canonical",
    "is_prime",
    "require_prime",
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BASES_BELOW = 3_215_031_751  # least strong pseudoprime to 2, 3, 5 and 7


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    return _is_prime(_integer(n, "n"))


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """is_prime of the int n, memoized: suites and searches ask about the
    same few moduli on every call.  The cache sits behind _integer, so 3.0
    still raises TypeError once 3 is cached."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 1681:  # 41^2: a composite below it has a prime factor <= 37, found above
        return True
    if n >= 1 << 64:
        raise ValueError(f"primality test limited to n < 2^64, got {n}")
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES if n >= _MR_FOUR_BASES_BELOW else _MR_WITNESSES[:4]:
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


def require_prime(n: int) -> None:
    if not is_prime(n):
        raise ValueError(f"modulus must be prime, got {n}")


class Kernel(enum.Enum):
    """Sumset kernel selector; all kernels give identical outputs."""

    NAIVE = "naive"
    BITSHIFT = "bitshift"
    CONVOLUTION = "convolution"


# Convolution uses float64 FFTs; counts round safely only while the maximum
# possible pair count stays far below 2^53.  2^26 is the contract limit.
_SAFE_COUNT_BITS = 26
_FFT_COST = 45
# Above (set bits) * (bit length) = 2^14 (a timed sweep's crossover for
# reading every member) the scanner decodes members as a numpy index array
# instead of a string.
_ARRAY_MIN_WORK = 1 << 14
# Masks of two or more axes are summed pair by pair while |A| * |B| <=
# _PAIR_RATIO * size.  In a timed sweep (2 CPUs; 15 shapes of 2-6 axes,
# 64-262144 cells; |A| * |B| / size 1-16) the FFT's crossover ran from
# 2-5 on 64^2 and 128^2 to 12 and above on 8^6, 4^6, 61^2 and 3x5x7; with
# 8 the routine taken cost on average 1.18x the faster one (4: 1.51x,
# 12: 1.12x) and at most 2.6x (12-16: 4.4-4.9x), on 128^2.
_PAIR_RATIO = 8
# Pairs per block: each temporary holds 128 KiB; 2^14 was the fastest of
# 2^11-2^18, or within noise of it, on masks of 40^2 to 8^6 cells.
_PAIR_BLOCK = 1 << 14


def _integer(value, name: str, low: int | None = None) -> int:
    """value as a plain int, so 1 << N and x % N run on Python ints: the one
    rule of every public integer argument and field.  A numpy integer or
    bool becomes its int; anything else raises TypeError("<name> must be
    an integer, got <type>"), and a value below low raises
    ValueError("<name> must be >= <low>, got <value>").  Hot callers test
    type(value) is int (and value >= low) first."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _exact_dtype(bound: int):
    """The one exact-integer rule of integer arrays: int64 while bound < 2^62,
    exact Python ints (dtype=object) beyond.  A caller passes the largest
    magnitude it stores; the headroom of 2 lets it add two such in int64."""
    return np.int64 if bound < 1 << 62 else object


def _integer_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj through _integer."""
    for name in names:
        object.__setattr__(obj, name, _integer(getattr(obj, name), name))


def _fields(text: str, what: str, *keys: str) -> list[str]:
    """The values of the literal text = k1=v1;k2=v2;..., one per key; a last
    key "" takes the rest of the text, further ';' included, with no "k=".
    The one reader of a literal's header; raises ValueError("bad <what>
    literal: ...") on any other text."""
    parts = text.strip().split(";", len(keys) - 1 if keys[-1] == "" else -1)
    if len(parts) == len(keys):
        for i, key in enumerate(filter(None, keys)):
            if not parts[i].startswith(key + "="):
                break
            parts[i] = parts[i][len(key) + 1:]
        else:
            return parts
    raise ValueError(f"bad {what} literal: {text!r}")


def _ints(body: str, brackets: str, what: str) -> tuple:
    """The integers of body = <o>i1,i2,...<c> for brackets "<o><c>", the one
    reader of a literal's integer lists; for brackets "<o><o2><c2><c>" the
    tuples of a list of such lists, as "[(1,2),(3,4)]" for "[()]".  Any
    other text raises ValueError("bad <what>: ...")."""
    body = body.strip()
    if not (body.startswith(brackets[0]) and body.endswith(brackets[-1])):
        raise ValueError(f"bad {what}: {body!r}")
    inner = body[1:-1].strip()
    if not inner:
        return ()
    if len(brackets) == 2:
        return tuple(map(int, inner.split(",")))
    o, c = brackets[1:3]
    rows = inner.replace(" ", "").replace(f"{c},{o}", f"{c}\n{o}").split("\n")
    return tuple(_ints(row, o + c, what) for row in rows)


@dataclass(frozen=True)
class ResidueSet:
    """An immutable subset of Z/NZ stored as a membership bitvector."""

    modulus: int
    bits: int

    def __post_init__(self):
        if type(self.modulus) is not int or self.modulus < 1:
            object.__setattr__(self, "modulus", _integer(self.modulus, "modulus", 1))
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
        if type(modulus) is not int or modulus < 1:
            modulus = _integer(modulus, "modulus", 1)
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
        modulus = _integer(modulus, "modulus", 1)
        return cls(modulus, (1 << modulus) - 1)

    @classmethod
    def parse(cls, text: str) -> "ResidueSet":
        """Parse the set literal format ``p=<N>;{a1,a2,...}``."""
        p, body = _fields(text, "set", "p", "")
        modulus, elements = int(p), _ints(body, "{}", "set literal")
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


def _positions(bits: int) -> Iterator[int]:
    """The set bits of bits, ascending, as an iterator: the one scanner
    under elements() and _runs.  While (set bits) * (bit length) <=
    _ARRAY_MIN_WORK the binary digits, least significant first, are
    scanned by _find_ones only as far as the reader reads; above it
    _bits_to_members decodes them all at once."""
    if bits.bit_count() * bits.bit_length() > _ARRAY_MIN_WORK:
        return iter(_bits_to_members(bits).tolist())
    return _find_ones(bin(bits)[:1:-1])


def _find_ones(digits: str) -> Iterator[int]:
    """The indices of the "1"s of digits, ascending, each found by str.find
    when it is read."""
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


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
    """(start, end) of each run [start, end) of members, in ascending
    order, read lazily.  The set bits of bits ^ (bits << 1) are the runs'
    starts and ends, alternately, so the runs are consecutive pairs of
    them."""
    edges = _positions(bits ^ (bits << 1))
    return zip(edges, edges)


def _fold(n: int, bits: int) -> int:
    """bits < 2^(2N) reduced mod N: the bits at N and above ORed onto
    those below, with no N-bit mask."""
    return bits ^ (high := bits >> n) << n | high


def _sumset_bits_bitshift(n: int, a: int, b: int, ra: int, rb: int) -> int:
    """OR of the shifts of one bitvector by the runs of the other, folded
    once mod N.

    The operand with fewer runs (ra, rb count them) is read as runs
    [s, s + l), a lone member being a run of length 1: the other bitvector
    is smeared over l positions and shifted up by s.  The smear over l is
    its smear over the largest 2^k <= l, ORed with itself shifted by
    l - 2^k; those are built by doubling, one smear per distinct l.  A run
    ends by N - 1, so every term is below 2^(2N), and one _fold reduces the
    OR mod N.  Runs are read lazily, and after 4, 8, 16, ... of them a
    partial OR with N or more members is folded: OR is monotone, so once
    that fold is all of Z/NZ no later run changes it, and it is returned.
    """
    runs, bits = (a, b) if ra <= rb else (b, a)
    powers = [bits]  # powers[k] = bits smeared over 2^k positions
    smears = {}
    acc, left, gap = 0, 4, 4  # runs to the next checkpoint, and between the next two
    for s, e in _runs(runs):
        l = e - s
        smear = smears.get(l)
        if smear is None:
            k = l.bit_length() - 1
            while len(powers) <= k:
                powers.append(powers[-1] | powers[-1] << (1 << (len(powers) - 1)))
            smear = smears[l] = powers[k] | powers[k] << (l - (1 << k))
        acc |= smear << s
        left -= 1
        if not left:
            left, gap = gap, 2 * gap
            if acc.bit_count() >= n and (out := _fold(n, acc)).bit_count() == n:
                return out
    return _fold(n, acc)


def _fft_length(n: int) -> int:
    """FFT length for a one-dimensional cyclic axis of length n: the power
    of two >= 2n - 1, which holds the linear convolution that is folded
    back mod n, so every 1-D transform runs power-of-two passes only."""
    return 1 << (2 * n - 2).bit_length()


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} != {b.shape}")


def cyclic_support_shift(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact support of the cyclic convolution of two same-shape 0/1 arrays:
    the OR of the denser one rolled by each member of the sparser one.  The
    FFT's exact fallback, and the tests' oracle for the other routines."""
    _check_shapes(a, b)
    small, big = (a, b) if np.count_nonzero(a) <= np.count_nonzero(b) else (b, a)
    big = big.astype(bool, copy=False)
    out = np.zeros_like(big)
    axes = tuple(range(big.ndim))
    for idx in np.argwhere(small):
        out |= np.roll(big, tuple(idx.tolist()), axis=axes)
    return out


@lru_cache(maxsize=16)
def _pair_tables(shape: tuple[int, ...]) -> tuple[int, list[np.ndarray]]:
    """Size of the trailing half of the axes, then read-only tables code
    and offset per half: code maps a row-major index within the half to
    its digits in radix 2n - 1 per axis of length n, so two codes add
    without carry; offset maps such a sum, digits reduced mod n, to its
    row-major offset in the whole mask."""
    h = len(shape) // 2
    tail = prod(shape[h:])
    tables = []
    for axes, scale in ((shape[:h], tail), (shape[h:], 1)):
        code = offset = np.zeros(1, np.intp)
        for n in axes:
            code = (code[:, None] * (2 * n - 1) + np.arange(n)).ravel()
            offset = (offset[:, None] * n + np.arange(2 * n - 1) % n).ravel()
        offset = offset * scale
        code.flags.writeable = offset.flags.writeable = False
        tables += [code, offset]
    return tail, tables


def cyclic_support_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact support of the cyclic convolution of two same-shape 0/1 arrays,
    in integers only: the cell of a pair x + y of members, in row-major
    order, is offset1[code1(x) + code1(y)] + offset2[code2(x) + code2(y)]
    (_pair_tables).  Pairs are formed in blocks of about _PAIR_BLOCK, so
    memory stays bounded whatever |A| * |B| is.  The sum is symmetric, so
    equal operands pair a block of rows only with the columns from its
    first row on: about half of the pairs."""
    _check_shapes(a, b)
    tail, (code1, offset1, code2, offset2) = _pair_tables(a.shape)
    out = np.zeros(a.size, dtype=bool)
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    same = np.array_equal(ia, ib)
    xa, ya = code1[ia // tail], code2[ia % tail]
    xb, yb = (xa, ya) if same else (code1[ib // tail], code2[ib % tail])
    cols = min(ib.size, _PAIR_BLOCK)
    rows = _PAIR_BLOCK // max(cols, 1)
    for i in range(0, ia.size, rows):
        for j in range(i if same else 0, ib.size, cols):
            cells = offset1[xa[i:i + rows, None] + xb[j:j + cols]]
            cells += offset2[ya[i:i + rows, None] + yb[j:j + cols]]
            out[cells] = True
    return out.reshape(a.shape)


def cyclic_support_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Support of the cyclic convolution of two same-shape 0/1 arrays.

    Works over any number of axes.  A one-dimensional array comes only
    from a residue sum (cyclic_support hands 1-D masks to sumset), and is
    transformed at _fft_length, a power of two, and folded back mod its
    length.  Arrays of two or more axes keep their shape, because padding
    every axis multiplies the array (17^3 cells padded to 64^3 ran 30x
    slower).
    Always exact: when the counts cannot be trusted to round (a count could
    reach 2^26, or some folded count lies more than 0.25 from an integer)
    the answer comes from cyclic_support_shift instead.
    """
    _check_shapes(a, b)
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
    # at its power-of-two length L; _FFT_COST fits timed crossovers.
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


def cyclic_support(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact support of the cyclic convolution of two same-shape 0/1 masks:
    the one kernel choice made outside an explicit Kernel.  A 1-D mask is a
    residue set mod its length, so the two are summed by sumset under
    _auto_kernel's rule.  Masks of two or more axes are summed from the
    pairs of their members (cyclic_support_pairs) while |A| * |B| is at
    most _PAIR_RATIO times the mask size, and by FFT above, whose exact
    fallback is the shift-OR."""
    _check_shapes(a, b)
    if a.ndim == 1:
        n = a.size
        total = sumset(ResidueSet(n, _mask_to_bits(a)), ResidueSet(n, _mask_to_bits(b)))
        return _bits_to_mask(n, total.bits).view(bool)
    if np.count_nonzero(a) * np.count_nonzero(b) <= _PAIR_RATIO * a.size:
        return cyclic_support_pairs(a, b)
    return cyclic_support_fft(a, b)


def _affine(a: ResidueSet, u: int, v: int) -> ResidueSet:
    """{u*x + v mod N : x in A}, the one member map under dilate and
    affine_image.  Over 32 members, while _exact_dtype(N^2) keeps u*x + v
    in int64 once u and v are reduced, the members are mapped as one index
    array and scattered into an N-byte mask; otherwise from_elements builds
    the image."""
    n = a.modulus
    u %= n
    v %= n
    if a.bits.bit_count() > 32 and _exact_dtype(n * n) is np.int64:
        return ResidueSet(n, _members_to_bits(n, (_bits_to_members(a.bits) * u + v) % n))
    return ResidueSet.from_elements(n, [u * x + v for x in a.elements()])


def dilate(a: ResidueSet, lam: int) -> ResidueSet:
    """lam*A = {lam*a mod N}.  |lam*A| = |A| whenever gcd(lam, N) = 1."""
    if type(lam) is not int:
        lam = _integer(lam, "lam")
    lam %= a.modulus
    if lam == 1:
        return a
    return _affine(a, lam, 0)


def dilate_sum(a: ResidueSet, lam: int, kernel: Kernel | None = None) -> ResidueSet:
    """A + lam*A, the sum of dilates."""
    return sumset(a, dilate(a, lam), kernel)


def iterated_sumset(a: ResidueSet, m: int) -> ResidueSet:
    """The m-fold sumset A + ... + A, computed by repeated doubling."""
    m = _integer(m, "m", 1)
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


def linear_form(a: ResidueSet, terms) -> ResidueSet:
    """The linear form c1*A + ... + ck*A: terms maps each coefficient c to
    its multiplicity k >= 0, the number of summands c*A.  Coefficients are
    distinct as integers, so c and c + N are two terms.  As c*(kA) = k*(cA),
    each distinct multiplicity is summed once by iterated_sumset and then
    dilated by every coefficient that has it, so mB - mB takes one m-fold
    sum.  Raises ValueError when every multiplicity is 0."""
    by_count = {}
    for c, k in terms.items():
        c, k = _integer(c, "coefficient"), _integer(k, "multiplicity", 0)
        if k:
            by_count.setdefault(k, []).append(c)
    if not by_count:
        raise ValueError("linear form has no term: every multiplicity is 0")
    out = None
    for k, coefficients in by_count.items():
        fold = iterated_sumset(a, k)
        for c in coefficients:
            out = dilate(fold, c) if out is None else sumset(out, dilate(fold, c))
    return out


def affine_image(a: ResidueSet, u: int, v: int) -> ResidueSet:
    """{u*a + v mod N} for a unit u; a bijective relabelling of Z/NZ."""
    n, u, v = a.modulus, _integer(u, "u"), _integer(v, "v")
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
