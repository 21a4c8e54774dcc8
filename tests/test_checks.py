"""Inequality oracles: frozen examples plus seeded random sweeps.  Every
`holds` is a theorem, so the loops assert zero violations."""

import random
from fractions import Fraction

import pytest

from dilates import checks
from dilates.checks import (_digest, _dilate_chain_reports, check_cauchy_davenport,
                            check_dilate_chain, check_kfold_cd_chain, check_plunnecke,
                            check_ruzsa_triangle)
from dilates.gaps import Gap, lambda_span_check
from dilates.residues import ResidueSet, dilate_sum
from dilates.verify import run_dilate_chain_suite

F = Fraction


def rs(n, elems):
    return ResidueSet.from_elements(n, elems)


# ---------------------------------------------------------------- cauchy-davenport

def test_cd_examples():
    r = check_cauchy_davenport(rs(5, [0, 1, 2]), rs(5, [0, 1, 2]))
    assert (r.lhs, r.rhs, r.slack, r.holds) == (5, 5, 0, True)
    # translation by a singleton: always slack 0
    r = check_cauchy_davenport(rs(11, [4]), rs(11, [1, 5, 9]))
    assert r.slack == 0
    with pytest.raises(ValueError, match="prime"):
        check_cauchy_davenport(rs(10, [1]), rs(10, [2]))
    with pytest.raises(ValueError, match="nonempty"):
        check_cauchy_davenport(rs(7, []), rs(7, [1]))


def test_cd_equality_for_same_difference_progressions():
    rng = random.Random(30)
    for _ in range(50):
        p = rng.choice([11, 101])
        d = rng.randint(1, p - 1)
        la = rng.randint(1, (p - 1) // 2)
        lb = rng.randint(1, p - la)
        a0, b0 = rng.randrange(p), rng.randrange(p)
        a = rs(p, [(a0 + j * d) % p for j in range(la)])
        b = rs(p, [(b0 + j * d) % p for j in range(lb)])
        assert check_cauchy_davenport(a, b).slack == 0


def test_cd_random_sweep():
    rng = random.Random(31)
    for p in (11, 101):
        for _ in range(200):
            a = rs(p, rng.sample(range(p), rng.randint(1, p)))
            b = rs(p, rng.sample(range(p), rng.randint(1, p)))
            assert check_cauchy_davenport(a, b).holds


# ---------------------------------------------------------------- ruzsa triangle

def test_ruzsa_examples():
    x = rs(1009, [0, 1])
    r = check_ruzsa_triangle(x, x, x)
    assert (r.lhs, r.rhs, r.holds) == (6, 9, True)
    # singleton X: reduces to |Y+Z| <= |Y||Z|
    y = rs(1009, [0, 3, 7])
    z = rs(1009, [0, 1])
    r = check_ruzsa_triangle(rs(1009, [0]), y, z)
    assert r.lhs == 6  # |Y+Z| = |{0,1,3,4,7,8}|
    assert r.rhs == len(y) * len(z)
    with pytest.raises(ValueError, match="nonempty"):
        check_ruzsa_triangle(rs(7, []), y, z)


def test_ruzsa_random_sweep():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.choice([64, 101, 1009])
        x = rs(n, rng.sample(range(n), rng.randint(1, 30)))
        y = rs(n, rng.sample(range(n), rng.randint(1, 30)))
        z = rs(n, rng.sample(range(n), rng.randint(1, 30)))
        assert check_ruzsa_triangle(x, y, z).holds


# ---------------------------------------------------------------- plunnecke

def test_plunnecke_examples():
    n = 1009
    b0 = rs(n, [0])
    r = check_plunnecke(rs(n, [0, 5]), b0, 2, 1)
    assert r.lhs == 1 and r.holds
    ab = rs(n, [0, 1])
    r = check_plunnecke(ab, ab, 1, 1)
    assert r.ratio_bound == F(3, 2)
    assert r.lhs == 3
    assert r.rhs == F(9, 4) * 2
    assert r.holds


def test_plunnecke_validation():
    with pytest.raises(ValueError, match="wraparound"):
        check_plunnecke(rs(10, [0, 9]), rs(10, [0, 9]), 3, 3)
    with pytest.raises(ValueError):
        check_plunnecke(rs(101, [0, 1]), rs(101, [0, 1]), 0, 0)


def test_plunnecke_random_sweep():
    rng = random.Random(33)
    modulus = 7 * 50 + 2
    for _ in range(150):
        a = rs(modulus, rng.sample(range(51), rng.randint(1, 51)))
        b = rs(modulus, rng.sample(range(51), rng.randint(1, 51)))
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        if m + n == 0:
            m = 1
        assert check_plunnecke(a, b, m, n).holds


def test_plunnecke_matches_from_scratch_evaluation():
    # every m, n <= 3, m = n included (one fold serves as both mB and nB)
    rng = random.Random(36)
    modulus = 6 * 30 + 2
    for _ in range(10):
        a = rs(modulus, rng.sample(range(31), rng.randint(1, 31)))
        b = rs(modulus, rng.sample(range(31), rng.randint(1, 12)))
        members = set(b.elements())
        folds = [{0}]
        for _ in range(3):
            folds.append({(x + y) % modulus for x in folds[-1] for y in members})
        k = F(len({(x + y) % modulus for x in a.elements() for y in members}), len(a))
        for m in range(4):
            for n in range(4):
                if m + n == 0:
                    continue
                r = check_plunnecke(a, b, m, n)
                lhs = len({(x - y) % modulus for x in folds[m] for y in folds[n]})
                rhs = k ** (m + n) * len(a)
                assert (r.lhs, r.rhs, r.ratio_bound, r.slack, r.holds) == \
                    (lhs, rhs, k, rhs - lhs, lhs <= rhs)


# ---------------------------------------------------------------- dilate chain

def test_dilate_chain_examples():
    n = 10007
    r = check_dilate_chain(rs(n, [0]), 3, 2)
    assert (r.lhs, r.ratio_bound, r.rhs) == (1, F(1), F(1))
    r = check_dilate_chain(rs(n, [0, 1]), 3, 2)
    assert r.ratio_bound == 2
    assert r.lhs == 8
    assert r.rhs == 2**8 * 2
    assert r.holds
    detail = dict(r.details)
    assert detail["double_sum_holds"] == "true"
    assert detail["double_plus_dilate_holds"] == "true"


def test_dilate_chain_validation():
    with pytest.raises(ValueError, match="wraparound"):
        check_dilate_chain(rs(50, [0, 40]), 3, 2)
    with pytest.raises(ValueError):
        check_dilate_chain(rs(1009, [0, 1]), 1, 2)


def test_dilate_chain_random_sweep():
    rng = random.Random(34)
    modulus = 15901  # prime-free requirement; just ample headroom for lam<=5, l<=3
    for _ in range(30):
        b = rs(modulus, rng.sample(range(101), rng.randint(1, 25)))
        for lam in (2, 3, 5):
            for l in (2, 3):
                if modulus <= max(sum(lam**i for i in range(l + 1)), lam + 2) * 100:
                    continue
                assert check_dilate_chain(b, lam, l).holds


def _chain_from_scratch(b, lam, l):
    """check_dilate_chain's report, every sumset rebuilt from member sets:
    K from its own B + lam*B, the chain from B up, B + B + lam*B from its
    own dilate."""
    n, members = b.modulus, set(b.elements())

    def add(x, y):
        return {(u + v) % n for u in x for v in y}

    def dilated(c):
        return {c * u % n for u in members}

    size = len(members)
    k = F(len(add(members, dilated(lam))), size)
    chain = members
    for i in range(1, l + 1):
        chain = add(chain, dilated(lam**i))
    double = add(members, members)
    bb_lam = len(add(double, dilated(lam)))
    bounds = (k ** (7 * l - 6) * size, k**2 * size, k**7 * size)
    details = (
        ("double_sum", str(len(double))),
        ("double_sum_bound", f"{bounds[1].numerator}/{bounds[1].denominator}"),
        ("double_sum_holds", str(len(double) <= bounds[1]).lower()),
        ("double_plus_dilate", str(bb_lam)),
        ("double_plus_dilate_bound", f"{bounds[2].numerator}/{bounds[2].denominator}"),
        ("double_plus_dilate_holds", str(bb_lam <= bounds[2]).lower()),
    )
    holds = len(chain) <= bounds[0] and len(double) <= bounds[1] and bb_lam <= bounds[2]
    return len(chain), bounds[0], k, holds, details


def test_dilate_chain_matches_from_scratch_evaluation():
    rng = random.Random(35)
    modulus = 15901  # above max(1 + lam + ... + lam^l, lam + 2) * 100 for lam <= 5, l <= 3
    for _ in range(12):
        b = rs(modulus, rng.sample(range(101), rng.randint(1, 20)))
        for lam in (2, 3, 5):
            for l in (1, 2, 3):
                r = check_dilate_chain(b, lam, l)
                lhs, rhs, k, holds, details = _chain_from_scratch(b, lam, l)
                assert (r.lhs, r.rhs, r.ratio_bound, r.slack) == (lhs, rhs, k, rhs - lhs)
                assert (r.holds, r.details) == (holds, details)


@pytest.mark.parametrize("max_element, modulus", [(40, 6288), (80, 12568), (100, 15708)])
def test_dilate_chain_reports_equal_the_single_checks(max_element, modulus):
    # the suite's moduli; lengths unsorted, with a repeat
    rng = random.Random(max_element)
    lambdas, lengths = (2, 3, 5), (3, 1, 3, 2)
    for _ in range(8):
        b = rs(modulus, rng.sample(range(max_element + 1), rng.randint(1, 40)))
        reports = _dilate_chain_reports(b, lambdas, lengths)
        singles = [check_dilate_chain(b, lam, l) for lam in lambdas for l in lengths]
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in singles]
        assert [r.inputs for r in reports] == [(b, lam, l) for lam in lambdas for l in lengths]


def _counting(monkeypatch, *names):
    """Count the calls checks makes to each named residue function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(checks, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(checks, name, counted)
    return calls


def test_dilate_chain_reports_validate_every_pair_before_forming_a_set(monkeypatch):
    calls = _counting(monkeypatch, "sumset", "dilate")
    # max(B) = 200 at modulus 6288: (3, 3) is the first pair that can wrap
    b = rs(6288, [0, 7, 200])
    with pytest.raises(ValueError) as first:
        check_dilate_chain(b, 3, 3)
    assert str(first.value) == "wraparound risk: need modulus > 8000, got 6288"
    with pytest.raises(ValueError) as shared:
        _dilate_chain_reports(b, (2, 3, 5), (2, 3))
    assert str(shared.value) == str(first.value)
    with pytest.raises(ValueError, match="lam must be >= 2, got 1"):
        _dilate_chain_reports(b, (2, 1), (2,))
    with pytest.raises(ValueError, match="nonempty"):
        _dilate_chain_reports(rs(6288, []), (2, 3), (2,))
    assert calls == {"sumset": 0, "dilate": 0}


def test_dilate_chain_suite_forms_each_set_once(monkeypatch):
    # per base: B + B, then for each of the 3 lambdas B + lam*B, two chain
    # steps and B + B + lam*B (13 sumsets), and lam*B, lam^2*B, lam^3*B
    # (9 dilations); six separate checks formed 27 and 15
    calls = _counting(monkeypatch, "sumset", "dilate")
    summary = run_dilate_chain_suite(cases=4, seed=3, max_element=40)
    assert summary.cases == 4 * 6 and summary.ok
    assert calls == {"sumset": 4 * 13, "dilate": 4 * 9}


def _naive_kfold(a: ResidueSet, k: int, lam: int) -> int:
    """|A + ... + A + lam*A| with k - 1 plain summands, by pair enumeration."""
    p, members = a.modulus, a.elements()
    total = set(members)
    for _ in range(k - 2):
        total = {(s + x) % p for s in total for x in members}
    return len({(s + lam * x) % p for s in total for x in members})


@pytest.mark.parametrize("p", [2, 101, 1009])
def test_kfold_chain_matches_its_oracle_and_dilates_once(monkeypatch, p):
    # lam = 1 and lam = p + 1 make lam*A = A: the lhs is still the k-fold sum
    calls = _counting(monkeypatch, "sumset", "dilate")
    rng = random.Random(p)
    for k in range(2, 6):
        for lam in (0, 1, -1, p + 1, rng.randint(-p, 2 * p)):
            for _ in range(2):
                a = rs(p, rng.sample(range(p), rng.randint(1, min(p, 60))))
                before = dict(calls)
                r = check_kfold_cd_chain(a, k, lam)
                assert calls["dilate"] - before["dilate"] == 1
                assert calls["sumset"] - before["sumset"] == (1 if k == 2 else 2)
                assert r.lhs == _naive_kfold(a, k, lam)
                assert r.rhs == min(p, len(dilate_sum(a, lam)) + (k - 2) * (len(a) - 1))


# ---------------------------------------------------------------- k-fold chain

def test_kfold_examples():
    a = rs(11, [0, 1])
    r = check_kfold_cd_chain(a, 3, 2)
    assert (r.lhs, r.rhs, r.holds) == (5, 5, True)
    # k=2 reduces to equality with |A + lam*A|
    r2 = check_kfold_cd_chain(a, 2, 7)
    assert r2.lhs == r2.rhs and r2.slack == 0
    with pytest.raises(ValueError, match="prime"):
        check_kfold_cd_chain(rs(10, [0, 1]), 3, 2)


def test_kfold_random_sweep():
    rng = random.Random(35)
    for p in (11, 101):
        for _ in range(150):
            a = rs(p, rng.sample(range(p), rng.randint(1, p)))
            k = rng.randint(2, 5)
            lam = rng.randint(2, p - 1)
            assert check_kfold_cd_chain(a, k, lam).holds


def test_report_serialization():
    r = check_cauchy_davenport(rs(5, [0, 1]), rs(5, [0, 2]))
    d = r.to_json_dict()
    assert d["inequality"] == "cauchy-davenport"
    assert d["holds"] is True
    assert isinstance(d["inputs_digest"], str) and len(d["inputs_digest"]) == 16
    r2 = check_plunnecke(rs(101, [0, 1]), rs(101, [0, 1]), 1, 1)
    assert r2.to_json_dict()["rhs"] == "9/2"
    assert r2.to_json_dict()["K"] == "3/2"


def test_inputs_digest_is_the_eager_formula():
    # each report's digest is _digest over its inputs' text, read lazily;
    # the hex values were recorded when every check computed it eagerly
    a, b, c = rs(11, [0, 3]), rs(11, [1, 5, 9]), rs(12, [0, 1])
    y, z = rs(12, [2, 5]), rs(12, [0, 7])
    pa, pb = rs(101, [0, 1]), rs(101, [0, 1, 3])
    chain, kfold = rs(211, [0, 1, 4]), rs(13, [0, 2, 5])
    gap = Gap(13, 0, (1,), (4,))
    cases = [
        (check_cauchy_davenport(a, b), _digest(a.format(), b.format()),
         "a072fa81dfa9ace6"),
        (check_ruzsa_triangle(c, y, z), _digest(c.format(), y.format(), z.format()),
         "c8d652ea3fc36c54"),
        (check_plunnecke(pa, pb, 2, 1), _digest(pa.format(), pb.format(), "2", "1"),
         "6fc37a2fd28a6af2"),
        (check_dilate_chain(chain, 3, 2), _digest(chain.format(), "3", "2"),
         "5121516b2d448aa8"),
        (check_kfold_cd_chain(kfold, 3, 4), _digest(kfold.format(), "3", "4"),
         "b6ea65c52b9f6508"),
        (lambda_span_check(gap, 3, 1), _digest(gap.format(), "3", "1"),
         "90182c2b7b406272"),
    ]
    for report, eager, pinned in cases:
        assert "inputs_digest" not in vars(report)  # nothing hashed yet
        assert report.to_json_dict()["inputs_digest"] == eager == pinned
        assert list(report.to_json_dict())[6] == "inputs_digest"
