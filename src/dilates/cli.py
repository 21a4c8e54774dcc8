"""Command-line front end.

Subcommands: construct (box/simplex pipelines), verify (property suites),
search / sweep (minimization), gap (progression tools), report (render the
cache into CSV and plot data).  Exit codes: 0 success, 2 usage error or a
value the library refuses (ValueError, as for --cases 0), 3 mathematical
assertion failure, 4 scale cap exceeded or out of memory, 5 I/O error.

Output files are byte-identical across reruns with the same arguments and
cache state; timestamps live only in .meta.json sidecars.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import cache as cache_mod
from . import verify
from .checks import _num, _num_fields
from .errors import MathAssertionError, ScaleCapError
from .gaps import Gap, expand, find_max_proper_gap, is_proper, lambda_span_check
from .grids import (_as_fraction, box_grid_set, equal_box_sides, optimized_box_sides_3d,
                    simplex_construction, simplex_grid_set)
from .intervals import _chain_report, discretize_to_zp, encode_grid_to_intervals
from .residues import ResidueSet, require_prime
from .search import SearchTask, _rows_csv, decode_entry, solve_cell, sweep, sweep_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_SCALE = 4
EXIT_IO = 5

def _p_or_101(p):
    return 101 if p is None else p


# verify suite -> (its run function in dilates.verify, looked up at each call
# so a patched module attribute is the one called; for each flag it reads
# besides --cases and --seed, the keyword argument the flag fills and the
# value it fills it with, from the flag's value, None when not given).
# verify refuses a flag its suite does not read.
_SUITES = {
    "cd": ("run_cd_suite", {"--p": ("p", _p_or_101)}),
    "ruzsa": ("run_ruzsa_suite", {"--p": ("modulus", _p_or_101)}),
    "plunnecke": ("run_plunnecke_suite", {}),
    "dilate-chain": ("run_dilate_chain_suite",
                     {"--lambda": ("lambdas", lambda lam: [lam] if lam else [2, 3, 5]),
                      "--l": ("chain_lengths", lambda l: [l] if l else [2, 3])}),
    "kfold-cd": ("run_kfold_suite", {"--p": ("p", _p_or_101)}),
    "affine": ("run_affine_suite", {"--p": ("p", _p_or_101)}),
}
_SUITE_FLAGS = sorted({flag for _, reads in _SUITES.values() for flag in reads})


def _parse_fraction(text: str) -> Fraction:
    return _as_fraction(text.replace(" ", ""))


def _parse_ints(text: str, flag: str) -> list[int]:
    """The integers of a comma list '2,3,5', or for --m-range also 'lo..hi'."""
    ranged = flag == "--m-range"
    try:
        if ranged and ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:  # a list that holds no value sweeps nothing
        raise ValueError(f"bad {flag} {text!r}: expected {'lo..hi or ' if ranged else ''}"
                         "a comma list of integers")
    return values


def _write(path: Path, data: bytes) -> None:
    cache_mod.atomic_write(path, data)
    print(f"wrote {path}")


def _write_dat(path: Path, column: str, points) -> None:
    """Plot data: a `# alpha <column>` header, then one sorted point per line."""
    # rounding to float keeps order: the floats decide, the exact values break ties
    lines = [f"# alpha {column}"]
    lines += [f"{fx:.12g} {fy:.12g}"
              for fx, _, fy, _ in sorted((float(x), x, float(y), y) for x, y in points)]
    _write(path, ("\n".join(lines) + "\n").encode())


def _cmd_construct(args) -> int:
    out_dir = Path(args.out)
    inputs = {"shape": args.shape, "lambda": args.lam, "p": args.p}
    if args.shape == "box":
        lam = args.lam
        if args.sides:
            if args.gamma or args.optimized:
                raise ValueError("--sides excludes --gamma and --optimized")
            sides = tuple(_parse_fraction(tok) for tok in args.sides.split(","))
        elif not args.gamma:
            raise ValueError("need --gamma or --sides")
        elif args.optimized:
            if args.d != 3:
                raise ValueError("--optimized is the unequal-sides 3-d box")
            sides = optimized_box_sides_3d(_parse_fraction(args.gamma), lam)
        else:
            sides = equal_box_sides(args.d, _parse_fraction(args.gamma), lam)
        grid = box_grid_set(args.d, lam, sides)
        label = "box"
        extra = {"sides": [_num(s) for s in sides]}
        inputs.update(d=args.d, **extra)
    else:
        inputs["n"] = args.n
        mu_b, mu_cc = simplex_construction(args.n)
        extra = {**_num_fields("region_volume", mu_b),
                 **_num_fields("sum_region_volume", mu_cc)}
        if args.lam is None:
            if args.p is not None:
                raise ValueError("--p needs --lambda: only the grid set is discretized")
            payload = {"construction": "simplex", "n": args.n, **extra}
            _write(out_dir / "simplex.json", cache_mod.canonical_json(payload))
            cache_mod.store_experiment(args.cache_dir, "construct",
                                       cache_mod.key(inputs), payload)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_OK
        grid = simplex_grid_set(args.n, args.lam)
        label = "simplex"

    # every check that can refuse, scale caps included, runs before any file
    # is written; a violated chain is written up to the residues, then raises
    intervals = encode_grid_to_intervals(grid)
    report = None
    if args.p is not None:
        require_prime(args.p)
        residues = discretize_to_zp(intervals, args.p)
        if grid.dim >= 2:
            report = _chain_report(grid, args.p, intervals, residues)
    text = grid.format()
    artifacts = {"construction": label, "grid": text, **extra}
    _write(out_dir / f"{label}_grid.txt", (text + "\n").encode())
    if len(grid) == 0:
        print("warning: construction produced an empty grid set")
    _write(out_dir / f"{label}_intervals.txt", (intervals.format() + "\n").encode())
    if args.p is not None:
        if args.p < grid.lam**grid.dim:
            print(f"note: p = {args.p} < lambda^n = {grid.lam ** grid.dim}; "
                  "the discretization can only be coarse or empty "
                  "(p > lambda^n recommended)")
        _write(out_dir / f"{label}_residues.txt", (residues.format() + "\n").encode())
        if report is not None:
            chain = report.to_json_dict()
            if not report.all_hold:
                raise MathAssertionError(f"pipeline chain violated: {chain}")
            artifacts["chain_report"] = chain
            _write(out_dir / "chain_report.json", cache_mod.canonical_json(chain))
            print(json.dumps(chain, indent=2, sort_keys=True))
    cache_mod.store_experiment(args.cache_dir, "construct", cache_mod.key(inputs), artifacts)
    return EXIT_OK


def _cmd_verify(args) -> int:
    run, reads = _SUITES[args.suite]
    for flag in _SUITE_FLAGS:
        if flag not in reads and getattr(args, flag[2:]) is not None:
            raise ValueError(f"verify {args.suite} takes no {flag}")
    kwargs = {"cases": args.cases, "seed": args.seed}
    for flag, (name, value) in reads.items():
        kwargs[name] = value(getattr(args, flag[2:]))
    summary = getattr(verify, run)(**kwargs)
    payload = summary.to_json_dict()
    cache_mod.store_experiment(args.cache_dir, "verify",
                               cache_mod.key({"suite": args.suite, **kwargs}), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not summary.ok:
        raise MathAssertionError(
            f"suite {args.suite}: {summary.violations} violation(s)")
    return EXIT_OK


def _cmd_search(args) -> int:
    task = SearchTask(p=args.p, lam=args.lam, m=args.m, mode=args.mode,
                      seed=args.seed, budget=args.budget)
    result, _ = solve_cell(task, args.cache_dir)
    print(json.dumps(result.to_json_dict(task), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    inputs = {"p": _parse_ints(args.p, "--p"), "lambda": _parse_ints(args.lam, "--lambda"),
              "m": _parse_ints(args.m_range, "--m-range"), "mode": args.mode,
              "seed": args.seed, "budget": args.budget}
    report = sweep(inputs["p"], inputs["lambda"], inputs["m"], mode=args.mode,
                   seed=args.seed, budget=args.budget, cache_dir=args.cache_dir)
    out_dir = Path(args.out)
    rows = sweep_rows(report)
    _write(out_dir / "sweep.csv", _rows_csv(rows).encode())
    payload = cache_mod.canonical_json({"cells": rows, "errors": report.errors})
    _write(out_dir / "sweep.json", payload)
    cache_mod.store_experiment(args.cache_dir, "sweep", cache_mod.key(inputs), payload)
    for err in report.errors:
        print(f"cell error: {err}", file=sys.stderr)
    print(f"{len(report.results)} cells ({report.computed} computed, "
          f"{report.cached} cached), {len(report.errors)} errors")
    return EXIT_OK


def _cmd_gap(args) -> int:
    if args.action == "find":
        s = ResidueSet.parse(args.set)
        inputs = {"action": "find", "set": s.format(), "d_max": args.d_max}
        gap = find_max_proper_gap(s, args.d_max)
        payload = {
            "set": s.format(),
            "gap": gap.format(),
            "nominal_size": gap.nominal_size,
            "dimension": gap.dimension,
            "proper": is_proper(gap),
        }
    elif args.action == "expand":
        gap = Gap.parse(args.gap)
        inputs = {"action": "expand", "gap": gap.format()}
        payload = {
            "gap": gap.format(),
            "elements": expand(gap).format(),
            "nominal_size": gap.nominal_size,
            "proper": is_proper(gap),
        }
    else:  # span
        gap = Gap.parse(args.gap)
        inputs = {"action": "span", "gap": gap.format(), "lambda": args.lam,
                  "exponent": args.exponent}
        report = lambda_span_check(gap, args.lam, args.exponent)
        payload = report.to_json_dict()
        if not report.holds:
            raise MathAssertionError("lambda-power span containment failed")
    cache_mod.store_experiment(args.cache_dir, "gap", cache_mod.key(inputs), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    cells = [cell for _, cell in cache_mod.list_outputs(args.cache_dir, "search", decode_entry)]
    # by (p, lambda, m); the sort is stable, so ties stay in key order
    cells.sort(key=lambda cell: (cell[0].p, cell[0].lam, cell[0].m))
    out_dir = Path(args.out)
    _write(out_dir / "results.csv", _rows_csv([r.to_json_dict(t) for t, r in cells]).encode())
    by_lam: dict[int, list[tuple[Fraction, Fraction]]] = {}
    by_cell: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for task, result in cells:
        ratio = Fraction(result.min_size, task.p)
        by_lam.setdefault(task.lam, []).append((Fraction(task.m, task.p), ratio))
        by_cell.setdefault((task.lam, task.p), []).append((task.m, ratio))
    for lam in sorted(by_lam):
        _write_dat(out_dir / f"min_density_lambda{lam}.dat", "min_over_p", by_lam[lam])
    # envelope: the minimum over all sizes >= m, reported without assuming
    # the per-m minimum is monotone
    env_by_lam: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for (lam, p), column in by_cell.items():
        column.sort(reverse=True)
        running = None
        for m, ratio in column:
            running = ratio if running is None else min(running, ratio)
            env_by_lam.setdefault(lam, []).append((Fraction(m, p), running))
    for lam in sorted(env_by_lam):
        _write_dat(out_dir / f"envelope_lambda{lam}.dat", "envelope_min_over_p",
                   env_by_lam[lam])
    print(f"rendered {len(cells)} cached results")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call; each
    subcommand's handler is bound into it then."""
    parser = argparse.ArgumentParser(
        prog="dilates",
        description="sums-of-dilates toolbox: constructions, verification, search")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $DILATES_CACHE_DIR or ./dilates_cache)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="box/simplex grid constructions")
    sub_c = p_construct.add_subparsers(dest="shape", required=True)
    p_box = sub_c.add_parser("box", help="open box with given side lengths")
    p_box.add_argument("--d", type=int, required=True)
    p_box.add_argument("--lambda", dest="lam", type=int, required=True)
    p_box.add_argument("--gamma", help="target volume as a fraction, e.g. 1/9")
    p_box.add_argument("--sides", help="explicit comma-separated fractional sides")
    p_box.add_argument("--optimized", action="store_true",
                       help="unequal-sides 3-d box with the smaller projection sum")
    p_box.add_argument("--p", type=int, help="prime for the discretization step")
    p_box.add_argument("--out", default="out")
    p_box.set_defaults(func=_cmd_construct)
    p_simplex = sub_c.add_parser("simplex", help="corner simplex construction")
    p_simplex.add_argument("--n", type=int, required=True)
    p_simplex.add_argument("--lambda", dest="lam", type=int)
    p_simplex.add_argument("--p", type=int)
    p_simplex.add_argument("--out", default="out")
    p_simplex.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    # each flag is stored under its own name, read as args.<flag>, and
    # refused by a suite that does not read it (see _SUITES)
    p_verify.add_argument("--p", type=int,
                          help="cd, ruzsa, kfold-cd and affine: the modulus (default 101),"
                               " prime, but ruzsa takes any modulus >= 1")
    p_verify.add_argument("--lambda", type=int,
                          help="dilate-chain dilation, >= 2 (0 or absent: 2, 3, 5)")
    p_verify.add_argument("--l", type=int,
                          help="dilate-chain length, >= 1 (0 or absent: 2, 3)")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="minimize |A + lam*A| at one cell")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument("--lambda", dest="lam", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--budget", type=int, default=0)
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser("sweep", help="grid of search cells -> CSV/JSON")
    p_sweep.add_argument("--p", required=True, help="comma list of primes")
    p_sweep.add_argument("--lambda", dest="lam", required=True, help="comma list")
    p_sweep.add_argument("--m-range", required=True, help="e.g. 2..5 or 2,3,5")
    p_sweep.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--budget", type=int, default=0)
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gap = sub.add_parser("gap", help="generalized arithmetic progression tools")
    sub_g = p_gap.add_subparsers(dest="action", required=True)
    g_find = sub_g.add_parser("find", help="largest proper progression inside a set")
    g_find.add_argument("--set", required=True, help="set literal p=<N>;{a,b,...}")
    g_find.add_argument("--d-max", type=int, default=2)
    g_find.set_defaults(func=_cmd_gap)
    g_expand = sub_g.add_parser("expand", help="expand a progression literal")
    g_expand.add_argument("--gap", required=True)
    g_expand.set_defaults(func=_cmd_gap)
    g_span = sub_g.add_parser("span", help="lambda-power span containment check")
    g_span.add_argument("--gap", required=True)
    g_span.add_argument("--lambda", dest="lam", type=int, required=True)
    g_span.add_argument("--exponent", type=int, default=1)
    g_span.set_defaults(func=_cmd_gap)

    p_report = sub.add_parser("report", help="render cached search results")
    p_report.add_argument("--out", default="plots")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = str(cache_mod.default_cache_dir())
    try:
        return args.func(args)
    except MathAssertionError as exc:
        print(f"mathematical assertion failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ScaleCapError as exc:
        print(f"scale cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except MemoryError as exc:  # an allocation failed that no cap refused up front
        print(f"scale cap exceeded: out of memory: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
