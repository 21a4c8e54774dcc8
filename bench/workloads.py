"""The benchmark's workloads: seeded inputs, the ops that run them, and
the checks on every op's output.

Each workload is a fixed list of ops generated from the seed, plus a
"warm" op: the command-line re-run a user makes after the ops, against
the cache the ops filled.  An op calls the library only through module
attributes (``search.sweep``, not a name bound at import), so the tracer
can patch every call.  Seeded sizes are drawn close above the points of a
fixed geometric grid (`_grid`), which keeps the cost of a pass nearly the
same for every seed while the inputs themselves change.

Why each workload (one sentence each):

- search: exact and annealing minimisation of |A + lam*A| over small
  primes, where subset enumeration and ``residues.is_canonical`` do the
  work, cold cache writes sit on every cell and the warm CLI re-run reads
  them back, while intervals, grids and large-N kernels do none.
- pipeline: grid -> circle -> Z/pZ chains checked by ``pipeline_check``,
  where residue arithmetic at N up to 10^6, the interval Minkowski sum,
  containment and grid projection sums do the work, while search and the
  cache do none (the CLI only in the warm re-run).
- oracles: theorem suites and the progression finder, which call the same
  residue functions as pipeline thousands of times at small N, so a
  large-N speed-up that adds per-call overhead shows here as a
  regression; the dilate-chain suite (modulus 12 568) sets the tail, with
  the affine suite at large p and dense GAP searches above it.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from typing import Callable

from dilates import cache, cli, gaps, grids, intervals, residues, search, verify
from dilates.residues import Kernel

class CheckFailed(Exception):
    """An op's output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One closed-loop operation.

    `run` gets the pass's working directory and returns the output;
    `stable` maps the output to its byte-stable form (golden digests and
    pass-to-pass comparison); `check` raises CheckFailed on a wrong output
    and gets the outputs of the whole pass by key.  A pass runs the op
    `reps` times in a row."""

    key: dict
    run: Callable[[Path], object]
    stable: Callable[[object], bytes]
    check: Callable[[object, dict], None]
    reps: int = 1

    @property
    def key_text(self) -> str:
        return json.dumps(self.key, sort_keys=True, separators=(",", ":"))

    @property
    def key_digest(self) -> str:
        return sha256(self.key_text.encode()).hexdigest()[:16]


@dataclass
class Workload:
    ops: list[Op]
    warm: Op
    pass_s: float  # nominal seconds of one pass on a 2-vCPU x86-64 VM

    def passes(self, seconds: float) -> int:
        """Passes that fill `seconds`; a fixed count, so every commit gets
        the same number of samples per op."""
        return max(2, round(seconds / self.pass_s))


def _grid(rng: random.Random, lo: int, hi: int, k: int, jitter: float = 0.05) -> list[int]:
    """k seeded integers in [lo, hi]: point i of a geometric grid from lo to
    hi, raised by a uniform draw of at most `jitter` of its value.  The grid
    fixes the cost profile of a pass; the seed moves every input."""
    out = []
    for i in range(k):
        g = round(lo * (hi / lo) ** (i / (k - 1))) if k > 1 else lo
        out.append(rng.randint(g, max(g, min(hi, round(g * (1 + jitter))))))
    return out


def _next_prime(n: int) -> int:
    n += 1
    while not residues.is_prime(n):
        n += 1
    return n


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if residues.is_prime(n)]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- search

def _check_cell(report, p: int, lam: int, m: int, exact: bool) -> None:
    require(not report.errors and len(report.results) == 1, f"cell errors {report.errors}")
    require(report.computed == 1 and report.cached == 0, "cell was not computed cold")
    r = report.results[0]
    w = r.witness
    require(r.exact is exact, "exact flag")
    require(w.modulus == p and len(w) == m, f"witness {w.format()} is not an {m}-subset mod {p}")
    require(residues.canonical_form(w) == w, f"witness {w.format()} is not canonical")
    naive = len(residues.dilate_sum(w, lam, Kernel.NAIVE))
    require(naive == r.min_size, f"naive |A+{lam}A| = {naive} != min_size {r.min_size}")
    if lam % p:
        require(r.min_size >= min(p, 2 * m - 1), "min_size below the Cauchy-Davenport floor")


def _search_cell_op(p: int, lam: int, m: int, mode: str = "exact",
                    seed: int = 0, budget: int = 0) -> Op:
    def run(ctx: Path):
        return search.sweep([p], [lam], [m], mode=mode, seed=seed, budget=budget,
                            cache_dir=str(ctx / "cache"))

    return Op(
        key={"op": f"sweep-{mode}", "p": p, "lambda": lam, "m": m, "seed": seed,
             "budget": budget},
        run=run,
        stable=lambda rep: cache.canonical_json(search.sweep_rows(rep)),
        check=lambda rep, outs: _check_cell(rep, p, lam, m, mode == "exact"),
    )


def _search_warm_op(ps: list[int], lams: list[int], ms: list[int],
                    exact_keys: list[str], cached: list[Op]) -> Op:
    """CLI ``sweep`` over the exact cells, then ``report`` over every cached
    cell; the report depends on all of `cached`, so its key names them."""
    p_arg = ",".join(map(str, ps))
    lam_arg = ",".join(map(str, lams))
    m_arg = f"{ms[0]}..{ms[-1]}"

    def run(ctx: Path):
        cache_dir = str(ctx / "cache")
        code_s, out_s = _run_cli(["--cache-dir", cache_dir, "sweep", "--p", p_arg,
                                  "--lambda", lam_arg, "--m-range", m_arg,
                                  "--out", str(ctx / "warm")])
        code_r, out_r = _run_cli(["--cache-dir", cache_dir, "report",
                                  "--out", str(ctx / "report")])
        return {"codes": (code_s, code_r), "stdout": out_s + out_r,
                "sweep_csv": (ctx / "warm" / "sweep.csv").read_bytes(),
                "results_csv": (ctx / "report" / "results.csv").read_bytes()}

    def check(res, outs):
        require(res["codes"] == (0, 0), f"exit codes {res['codes']}")
        cells = len(exact_keys)
        require(f"{cells} cells (0 computed, {cells} cached)" in res["stdout"],
                "warm sweep recomputed cells")
        cold = [outs[k] for k in exact_keys]
        expected = search.sweep_csv(search.SweepReport(
            tasks=[t for rep in cold for t in rep.tasks],
            results=[r for rep in cold for r in rep.results], errors=[]))
        require(res["sweep_csv"] == expected.encode(), "warm sweep.csv differs from cold cells")
        rows = res["results_csv"].decode().splitlines()
        require(len(rows) == 1 + len(cached), f"report rendered {len(rows) - 1} rows")

    cached_digest = sha256("\n".join(op.key_text for op in cached).encode()).hexdigest()
    return Op(
        key={"op": "cli-sweep-report", "p": p_arg, "lambda": lam_arg, "m": m_arg,
             "cached": cached_digest[:16]},
        run=run,
        stable=lambda res: res["sweep_csv"] + b"--\n" + res["results_csv"],
        check=check,
    )


def build_search(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ps = [7, 11] if tiny else _primes(7, 23)
    ms = [2, 3] if tiny else list(range(2, 7))
    lams = sorted(rng.sample(range(2, 7), 2))
    ops = [_search_cell_op(p, lam, m) for p in ps for lam in lams for m in ms]
    exact_keys = [op.key_text for op in ops]
    heuristic = [(101, 2, 30)] if tiny else [(101, 2, 300), (1009, 2, 300)]
    for p, count, budget in heuristic:
        for m in _grid(rng, 6, 13, count, jitter=0.2):
            ops.append(_search_cell_op(p, rng.randint(2, 6), m, "heuristic",
                                       rng.randrange(2**31), budget))
    warm = _search_warm_op(ps, lams, ms, exact_keys, ops)
    warm.reps = 1 if tiny else 10
    return Workload(ops, warm, pass_s=0.1 if tiny else 7.0)


# -------------------------------------------------------------- pipeline

def _chain_op(key: dict, make_grid: Callable[[], "grids.GridSet"], p: int) -> Op:
    def run(ctx: Path):
        grid = make_grid()
        return grid, intervals.pipeline_check(grid, p, strict=True)

    def check(out, outs):
        grid, report = out
        require(report.all_hold, "chain inequality failed")
        require(report.p == p and report.grid_cells == len(grid), "report inputs")
        a_p = intervals.discretize_to_zp(intervals.encode_grid_to_intervals(grid), p)
        dilated = residues.dilate(a_p, grid.lam)
        claimed = report.residue_dilate_sum_density * p
        for kernel in (Kernel.BITSHIFT, Kernel.CONVOLUTION):
            size = len(residues.sumset(a_p, dilated, kernel))
            require(size == claimed,
                    f"|A'+lam*A'| = {size} with {kernel.value}, report says {claimed}")

    return Op(key={"op": "pipeline_check", "p": p, **key}, run=run,
              stable=lambda out: cache.canonical_json(out[1].to_json_dict()), check=check)


def _box_op(d: int, lam: int, gamma: Fraction, optimized: bool, p: int) -> Op:
    def make():
        if optimized:
            sides = grids.optimized_box_sides_3d(gamma, lam)
        else:
            sides = grids.equal_box_sides(d, gamma, lam)
        return grids.box_grid_set(d, lam, sides)

    key = {"shape": "box", "d": d, "lambda": lam, "gamma": str(gamma),
           "optimized": optimized}
    return _chain_op(key, make, p)


def _simplex_op(n: int, lam: int, p: int) -> Op:
    return _chain_op({"shape": "simplex", "n": n, "lambda": lam},
                     lambda: grids.simplex_grid_set(n, lam), p)


def _pipeline_warm_op(readme_chain: Op) -> Op:
    """The README's two ``construct box`` commands; the first is the same
    chain as `readme_chain`."""
    commands = [["construct", "box", "--d", "2", "--lambda", "9", "--gamma", "1/9",
                 "--p", "10007"],
                ["construct", "box", "--d", "3", "--lambda", "64", "--gamma", "1/64",
                 "--optimized", "--p", "10007"]]

    def run(ctx: Path):
        res = []
        for i, argv in enumerate(commands):
            out = ctx / f"construct{i}"
            code, _ = _run_cli(["--cache-dir", str(ctx / "cache"), *argv, "--out", str(out)])
            res.append((code, (out / "chain_report.json").read_bytes()))
        return res

    def check(res, outs):
        require([code for code, _ in res] == [0, 0], f"exit codes {res}")
        chain = outs[readme_chain.key_text][1]
        require(res[0][1] == cache.canonical_json(chain.to_json_dict()),
                "CLI chain report differs from pipeline_check")
        flags = ("discrete_within_continuous", "continuous_within_grid",
                 "interval_inside_grid_prediction")
        report = json.loads(res[1][1])
        require(all(report[f] is True for f in flags), f"d=3 chain report {report}")

    return Op(key={"op": "cli-construct", "argv": commands}, run=run,
              stable=lambda res: b"--\n".join(r[1] for r in res), check=check)


def build_pipeline(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    # the ROADMAP anchor (interval- and kernel-bound at N = 10^6) and the
    # quadratic-containment simplex chain
    heavy = [] if tiny else [_box_op(3, 64, Fraction(1, 64), True, 1000003),
                             _simplex_op(7, 8, 10007)]
    readme = _box_op(2, 9, Fraction(1, 9), False, 10007)
    short = [readme]
    k = 1 if tiny else 14
    # Only the d=2 boxes take a seeded lam (at most 1.5% above its grid
    # point): the cost of the d=3 and simplex chains grows like lam^3..lam^6,
    # so a seeded lam there would move the tail of the pass from seed to seed.
    for lam in _grid(rng, 16, 40 if tiny else 300, k, jitter=0.015):
        short.append(_box_op(2, lam, Fraction(1, 9), False, _next_prime(lam**2)))
    for i, lam in enumerate(_grid(rng, 8, 12 if tiny else 40, k, jitter=0)):
        optimized = bool(i % 2)
        short.append(_box_op(3, lam, Fraction(1, lam), optimized, _next_prime(lam**3)))
    # lambda ranges keep the simplex non-empty and lam^n <= ~1.2*10^5
    simplex = [(4, 8, 10, 1)] if tiny else [(4, 8, 16, 5), (5, 7, 10, 4), (6, 6, 7, 2)]
    for n, lo, hi, count in simplex:
        for lam in _grid(rng, lo, hi, count, jitter=0):
            short.append(_simplex_op(n, lam, _next_prime(lam**n)))
    for op in short:
        # the heavy chains average out the host's noise within one run; the
        # short ones need more samples, which cost little
        op.reps = 1 if tiny else 4
    warm = _pipeline_warm_op(readme)
    warm.reps = 1 if tiny else 10
    return Workload(heavy + short, warm, pass_s=0.05 if tiny else 12.0)


# --------------------------------------------------------------- oracles

def _suite_op(suite: str, fn: Callable, **kwargs) -> Op:
    def check(summary, outs):
        require(summary.ok, f"{suite}: {summary.violations} violation(s) "
                            f"{summary.first_failures}")
        require(summary.cases > 0, f"{suite}: no cases ran")

    return Op(key={"op": f"suite-{suite}", **kwargs},
              run=lambda ctx: fn(**kwargs),
              stable=lambda summary: cache.canonical_json(summary.to_json_dict()),
              check=check)


def _check_gap(gap, s) -> None:
    require(gap is not None and gap.modulus == s.modulus, "no progression returned")
    require(gaps.is_proper(gap), f"{gap.format()} is not proper")
    require(gaps.expand(gap).is_subset(s), f"{gap.format()} leaves the set")


def _gap_op(s) -> Op:
    return Op(key={"op": "find_max_proper_gap", "set": s.format(), "d_max": 2},
              run=lambda ctx: gaps.find_max_proper_gap(s, 2),
              stable=lambda gap: gap.format().encode(),
              check=lambda gap, outs: _check_gap(gap, s))


def _oracles_warm_op(cd_seed: int, s) -> Op:
    cd_argv = ["verify", "cd", "--p", "101", "--cases", "400", "--seed", str(cd_seed)]
    gap_argv = ["gap", "find", "--set", s.format(), "--d-max", "2"]

    def run(ctx: Path):
        cache_dir = str(ctx / "cache")
        code_v, out_v = _run_cli(["--cache-dir", cache_dir, *cd_argv])
        code_g, out_g = _run_cli(["--cache-dir", cache_dir, *gap_argv])
        return (code_v, code_g), out_v, out_g

    def check(res, outs):
        codes, out_v, out_g = res
        require(codes == (0, 0), f"exit codes {codes}")
        require(json.loads(out_v)["ok"] is True, "verify cd suite not ok")
        payload = json.loads(out_g)
        _check_gap(gaps.Gap.parse(payload["gap"]), s)

    return Op(key={"op": "cli-verify-gap", "verify": cd_argv, "gap": gap_argv},
              run=run, stable=lambda res: (res[1] + res[2]).encode(), check=check)


def build_oracles(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    k = 1 if tiny else 8
    cases = 2 if tiny else 10

    def seeds():
        return rng.randrange(2**31)

    def primes(hi=1009):
        return [_next_prime(n - 1) for n in _grid(rng, 101, hi, k)]

    ops = []
    for p in primes():
        ops.append(_suite_op("cd", verify.run_cd_suite, p=p, cases=cases, seed=seeds()))
    for modulus in _grid(rng, 101, 1009, k):
        ops.append(_suite_op("ruzsa", verify.run_ruzsa_suite, modulus=modulus,
                             cases=cases, seed=seeds()))
    for p in primes():
        ops.append(_suite_op("kfold-cd", verify.run_kfold_suite, p=p, cases=cases,
                             seed=seeds()))
    for p in primes(101 if tiny else 1009):
        ops.append(_suite_op("affine", verify.run_affine_suite, p=p, cases=2,
                             seed=seeds(), orbit_samples=2))
    # modulus 2*3*max_element + 2 spans 302..1010
    for max_element in _grid(rng, 50, 168, k):
        ops.append(_suite_op("plunnecke", verify.run_plunnecke_suite, cases=cases,
                             seed=seeds(), max_element=max_element))
    # max_element 80 gives the chain suite its modulus 12 568
    for _ in range(1 if tiny else 8):
        ops.append(_suite_op("dilate-chain", verify.run_dilate_chain_suite, cases=2,
                             seed=seeds(), max_element=40 if tiny else 80))
    for p in ([61] if tiny else [61, 79, 101]):
        # densities 1/4 .. 2/3
        for size in _grid(rng, p // 4, 2 * p // 3, 1 if tiny else 6):
            s = residues.ResidueSet.from_elements(p, rng.sample(range(p), size))
            ops.append(_gap_op(s))
    warm_set = residues.ResidueSet.from_elements(61, rng.sample(range(61), 20))
    warm = _oracles_warm_op(seeds(), warm_set)
    warm.reps = 1 if tiny else 10
    return Workload(ops, warm, pass_s=0.1 if tiny else 4.0)


BUILDERS = {"search": build_search, "pipeline": build_pipeline, "oracles": build_oracles}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
