"""Checkable oracles for the classical sumset inequalities.

Every operation evaluates both sides of a known theorem exactly and
returns a report; `holds` must come back True on valid input, so a False
is a bug detector for the residue-set kernels.  Growth constants K are
kept as exact Fractions (the minimal admissible value), never floored.

Integer-set instances are emulated in Z/NZ; each operation derives the
largest reachable element and rejects moduli that could wrap silently.

A check forms each set once.  The dilate-chain reports of one base set
come from one routine, _dilate_chain_reports, that forms B + B once and,
for each lam, lam^i * B, B + B + lam*B and the chain's prefixes once;
check_dilate_chain is that routine on one (lam, l) pair.
check_kfold_cd_chain forms lam*A once, for both sides.  check_plunnecke
forms mB - nB as the linear form m*(1*B) + n*(-1*B) of residues.linear_form;
a zero multiplicity drops its term, and m = n shares one m-fold sum.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from .residues import (ResidueSet, _integer, dilate, iterated_sumset, linear_form,
                       require_prime, sumset)

__all__ = [
    "IneqReport",
    "check_cauchy_davenport",
    "check_ruzsa_triangle",
    "check_plunnecke",
    "check_dilate_chain",
    "check_kfold_cd_chain",
]


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _num(value) -> str:
    """An exact number as text: "num/den" for a Fraction, str() otherwise."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _num_fields(key: str, value: Fraction) -> dict:
    """{key: "num/den", key + "_decimal": 12 significant digits}; the
    decimal twin is for display only, the exact text is the value."""
    return {key: _num(value), f"{key}_decimal": f"{float(value):.12g}"}


@dataclass(frozen=True)
class IneqReport:
    """Evaluation of one inequality instance.

    `slack` is rhs - lhs for upper-bound inequalities (lhs <= rhs) and
    lhs - rhs for lower-bound ones; each check states its convention.
    """

    inequality: str
    lhs: Fraction | int
    rhs: Fraction | int
    holds: bool
    slack: Fraction | int
    ratio_bound: Fraction | None = None
    details: tuple[tuple[str, str], ...] = field(default=())
    inputs: tuple = field(default=(), repr=False)

    @functools.cached_property
    def inputs_digest(self) -> str:
        """_digest of the inputs' text: format() of each set or progression,
        str() of each number.  Computed on first read, as a passing check's
        report is usually never serialized."""
        return _digest(*(x.format() if hasattr(x, "format") else str(x)
                         for x in self.inputs))

    def to_json_dict(self) -> dict:
        out = {
            "inequality": self.inequality,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "K": _num(self.ratio_bound) if self.ratio_bound is not None else None,
            "holds": self.holds,
            "slack": _num(self.slack),
            "inputs_digest": self.inputs_digest,
        }
        out.update(dict(self.details))
        return out


def _require_nonempty(*sets: ResidueSet) -> None:
    for s in sets:
        if s.bits == 0:
            raise ValueError("inequality checks need nonempty sets")


def check_cauchy_davenport(a: ResidueSet, b: ResidueSet) -> IneqReport:
    """|A + B| >= min(|A| + |B| - 1, p) over a prime modulus.

    slack = lhs - rhs >= 0 when the theorem holds; slack 0 occurs e.g. for
    arithmetic progressions with a common difference.
    """
    require_prime(a.modulus)
    _require_nonempty(a, b)
    lhs = len(sumset(a, b))
    rhs = min(len(a) + len(b) - 1, a.modulus)
    return IneqReport(
        inequality="cauchy-davenport",
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, slack=lhs - rhs,
        inputs=(a, b),
    )


def check_ruzsa_triangle(x: ResidueSet, y: ResidueSet, z: ResidueSet) -> IneqReport:
    """|X| * |Y + Z| <= |X + Y| * |X + Z| (sum form of the triangle
    inequality; valid in any Z/NZ).  slack = rhs - lhs."""
    _require_nonempty(x, y, z)
    lhs = len(x) * len(sumset(y, z))
    rhs = len(sumset(x, y)) * len(sumset(x, z))
    return IneqReport(
        inequality="ruzsa-triangle",
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, slack=rhs - lhs,
        inputs=(x, y, z),
    )


def _max_element(s: ResidueSet) -> int:
    return s.bits.bit_length() - 1


def check_plunnecke(a: ResidueSet, b: ResidueSet, m: int, n: int) -> IneqReport:
    """|mB - nB| <= K^(m+n) |A| where K = |A+B|/|A| (minimal admissible).

    Z-emulation: requires modulus > (m+n)*max(B) and > max(A)+max(B) so no
    sum or difference wraps.  slack = rhs - lhs (exact rational).
    """
    m, n = _integer(m, "m", 0), _integer(n, "n", 0)
    if m + n < 1:
        raise ValueError(f"need m + n >= 1, got m={m}, n={n}")
    _require_nonempty(a, b)
    modulus = a.modulus
    needed = max((m + n) * _max_element(b), _max_element(a) + _max_element(b))
    if modulus <= needed:
        raise ValueError(f"wraparound risk: need modulus > {needed}, got {modulus}")
    k = Fraction(len(sumset(a, b)), len(a))
    lhs = len(linear_form(b, {1: m, -1: n}))
    rhs = k ** (m + n) * len(a)
    return IneqReport(
        inequality="plunnecke-ruzsa",
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, slack=rhs - lhs, ratio_bound=k,
        inputs=(a, b, m, n),
    )


def check_dilate_chain(b: ResidueSet, lam: int, l: int) -> IneqReport:
    """|B + lam*B + ... + lam^l * B| <= K^(7l-6) |B| with K = |B+lam*B|/|B|.

    Also evaluates the intermediate bounds |B+B| <= K^2 |B| and
    |B+B+lam*B| <= K^7 |B| used to derive the chain.  slack = rhs - lhs.
    """
    return _dilate_chain_reports(b, (lam,), (l,))[0]


def _dilate_chain_reports(b: ResidueSet, lambdas, lengths) -> list[IneqReport]:
    """check_dilate_chain(b, lam, l) for each lam in lambdas and, within
    it, each l in lengths.  B + B is formed once; for each lam, so are
    lam^i * B (i up to the longest l), B + B + lam*B and the chain's
    prefixes, the prefix of length l giving that report's lhs.  Every lam
    and l, then b, then each pair's headroom in order, is checked before
    any set is formed."""
    lambdas = [_integer(lam, "lam", 2) for lam in lambdas]
    lengths = [_integer(l, "l", 1) for l in lengths]
    _require_nonempty(b)
    top = _max_element(b)
    for lam in lambdas:
        for l in lengths:
            needed = max(sum(lam**i for i in range(l + 1)), lam + 2) * top
            if b.modulus <= needed:
                raise ValueError(f"wraparound risk: need modulus > {needed}, "
                                 f"got {b.modulus}")

    size = len(b)
    double = sumset(b, b)
    bb = len(double)
    reports = []
    for lam in lambdas:
        lam_b = dilate(b, lam)
        chain = sumset(b, lam_b)  # B + lam*B, the numerator of K and the chain's first step
        k = Fraction(len(chain), size)
        prefix = {1: len(chain)}  # i -> |B + lam*B + ... + lam^i * B|
        for i in range(2, max(lengths) + 1):
            chain = sumset(chain, dilate(b, lam**i))
            prefix[i] = len(chain)
        bb_lam = len(sumset(double, lam_b))
        bb_bound, bb_lam_bound = k**2 * size, k**7 * size
        details = (
            ("double_sum", str(bb)),
            ("double_sum_bound", _num(bb_bound)),
            ("double_sum_holds", str(bb <= bb_bound).lower()),
            ("double_plus_dilate", str(bb_lam)),
            ("double_plus_dilate_bound", _num(bb_lam_bound)),
            ("double_plus_dilate_holds", str(bb_lam <= bb_lam_bound).lower()),
        )
        bounds_hold = bb <= bb_bound and bb_lam <= bb_lam_bound
        for l in lengths:
            lhs = prefix[l]
            rhs = k ** (7 * l - 6) * size
            reports.append(IneqReport(
                inequality="dilate-chain",
                lhs=lhs, rhs=rhs, holds=lhs <= rhs and bounds_hold, slack=rhs - lhs,
                ratio_bound=k, details=details,
                inputs=(b, lam, l),
            ))
    return reports


def check_kfold_cd_chain(a: ResidueSet, k: int, lam: int) -> IneqReport:
    """|A + ... + A + lam*A| >= min(p, |A + lam*A| + (k-2)(|A| - 1)),
    by chaining Cauchy-Davenport across the k-1 plain summands.
    slack = lhs - rhs."""
    require_prime(a.modulus)
    k, lam = _integer(k, "k", 2), _integer(lam, "lam")
    _require_nonempty(a)
    lam_a = dilate(a, lam)
    pair = sumset(a, lam_a)  # A + lam*A
    # (k - 2)A + (A + lam*A): the pair is reused, so lam*A is formed once
    lhs = len(pair if k == 2 else sumset(iterated_sumset(a, k - 2), pair))
    rhs = min(a.modulus, len(pair) + (k - 2) * (len(a) - 1))
    return IneqReport(
        inequality="kfold-cd-chain",
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, slack=lhs - rhs,
        inputs=(a, k, lam),
    )
