"""Command-line front end.

Subcommands: construct (box/simplex pipelines), verify (property suites),
search / sweep (minimization), gap (progression tools), report (render the
cache into CSV and plot data).  Exit codes: 0 success, 2 usage error,
3 mathematical assertion failure, 4 scale cap exceeded, 5 I/O error.

Output files are byte-identical across reruns with the same arguments and
cache state; timestamps live only in .meta.json sidecars.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import cache as cache_mod
from .errors import MathAssertionError, ScaleCapError
from .gaps import Gap, expand, find_max_proper_gap, is_proper, lambda_span_check
from .grids import (box_grid_set, equal_box_sides, optimized_box_sides_3d,
                    simplex_construction, simplex_grid_set)
from .intervals import discretize_to_zp, encode_grid_to_intervals, pipeline_check
from .residues import ResidueSet
from .search import (CSV_HEADER, SearchTask, csv_row, run_task, sweep, sweep_csv,
                     sweep_rows)
from .verify import SUITES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3
EXIT_SCALE = 4
EXIT_IO = 5


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.replace(" ", ""))


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_m_range(text: str) -> list[int]:
    """Accept '2..5' or a comma list '2,3,5'."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return _parse_int_list(text)


def _write(path: Path, data: bytes, quiet: bool = False) -> None:
    cache_mod.atomic_write(path, data)
    if not quiet:
        print(f"wrote {path}")


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _cmd_construct(args) -> int:
    out_dir = Path(args.out)
    if args.shape == "box":
        lam = args.lam
        if args.sides:
            sides = tuple(_parse_fraction(tok) for tok in args.sides.split(","))
        elif args.optimized:
            if args.d != 3:
                raise ValueError("--optimized is the unequal-sides 3-d box")
            sides = optimized_box_sides_3d(_parse_fraction(args.gamma), lam)
        else:
            if not args.gamma:
                raise ValueError("need --gamma or --sides")
            sides = equal_box_sides(args.d, _parse_fraction(args.gamma), lam)
        grid = box_grid_set(args.d, lam, sides)
        label = "box"
        extra = {"sides": [_frac_str(s) for s in sides]}
    else:
        mu_b, mu_cc = simplex_construction(args.n)
        extra = {
            "region_volume": _frac_str(mu_b),
            "region_volume_decimal": f"{float(mu_b):.12g}",
            "sum_region_volume": _frac_str(mu_cc),
            "sum_region_volume_decimal": f"{float(mu_cc):.12g}",
        }
        if not args.lam:
            payload = {"construction": "simplex", "n": args.n, **extra}
            _write(out_dir / "simplex.json", cache_mod.canonical_json(payload))
            digest = cache_mod.digest_of({"simplex": args.n})
            cache_mod.store_experiment(args.cache_dir, "construct", digest, payload)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_OK
        grid = simplex_grid_set(args.n, args.lam)
        label = "simplex"

    artifacts = {"construction": label, "grid": grid.format(), **extra}
    _write(out_dir / f"{label}_grid.txt", (grid.format() + "\n").encode())
    if len(grid) == 0:
        print("warning: construction produced an empty grid set")
    intervals = encode_grid_to_intervals(grid)
    _write(out_dir / f"{label}_intervals.txt", (intervals.format() + "\n").encode())
    if args.p:
        if args.p < grid.lam**grid.dim:
            print(f"note: p = {args.p} < lambda^n = {grid.lam ** grid.dim}; "
                  "the discretization can only be coarse or empty "
                  "(p > lambda^n recommended)")
        residues = discretize_to_zp(intervals, args.p)
        _write(out_dir / f"{label}_residues.txt", (residues.format() + "\n").encode())
        if grid.dim >= 2:
            report = pipeline_check(grid, args.p)
            artifacts["chain_report"] = report.to_json_dict()
            _write(out_dir / "chain_report.json",
                   cache_mod.canonical_json(report.to_json_dict()))
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    digest = cache_mod.digest_of({k: v for k, v in artifacts.items()
                                  if k in ("construction", "grid")})
    cache_mod.store_experiment(args.cache_dir, "construct", digest, artifacts)
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = SUITES[args.suite](args, args.cases, args.seed)
    payload = summary.to_json_dict()
    digest = cache_mod.digest_of({"suite": args.suite, "cases": args.cases,
                                  "seed": args.seed, "p": args.p,
                                  "modulus": args.modulus,
                                  "lambda": args.lam, "l": args.l})
    cache_mod.store_experiment(args.cache_dir, "verify", digest, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not summary.ok:
        raise MathAssertionError(
            f"suite {args.suite}: {summary.violations} violation(s)")
    return EXIT_OK


def _cmd_search(args) -> int:
    task = SearchTask(p=args.p, lam=args.lam, m=args.m, mode=args.mode,
                      seed=args.seed, budget=args.budget)
    cached = cache_mod.load_outputs(args.cache_dir, "search", task.digest())
    if cached is not None:
        print(json.dumps(cached, indent=2, sort_keys=True))
        return EXIT_OK
    result = run_task(task, workers=args.workers)
    payload = result.to_json_dict(task)
    cache_mod.store_experiment(args.cache_dir, "search", task.digest(), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep(
        _parse_int_list(args.p), _parse_int_list(args.lam),
        _parse_m_range(args.m_range), mode=args.mode, seed=args.seed,
        budget=args.budget, workers=args.workers, cache_dir=args.cache_dir)
    out_dir = Path(args.out)
    _write(out_dir / "sweep.csv", sweep_csv(report).encode())
    payload = {"cells": sweep_rows(report), "errors": report.errors}
    _write(out_dir / "sweep.json", cache_mod.canonical_json(payload))
    digest = cache_mod.digest_of({"p": args.p, "lambda": args.lam,
                                  "m_range": args.m_range, "mode": args.mode,
                                  "seed": args.seed, "budget": args.budget})
    cache_mod.store_experiment(args.cache_dir, "sweep", digest, payload)
    for err in report.errors:
        print(f"cell error: {err}", file=sys.stderr)
    print(f"{len(report.results)} cells ({report.computed} computed, "
          f"{report.cached} cached), {len(report.errors)} errors")
    return EXIT_OK


def _cmd_gap(args) -> int:
    if args.action == "find":
        s = ResidueSet.parse(args.set)
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
        payload = {
            "gap": gap.format(),
            "elements": expand(gap).format(),
            "nominal_size": gap.nominal_size,
            "proper": is_proper(gap),
        }
    else:  # span
        gap = Gap.parse(args.gap)
        report = lambda_span_check(gap, args.lam, args.exponent)
        payload = report.to_json_dict()
        if not report.holds:
            raise MathAssertionError("lambda-power span containment failed")
    digest = cache_mod.digest_of(payload)
    cache_mod.store_experiment(args.cache_dir, "gap", digest, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = []
    for _, outputs in cache_mod.list_outputs(args.cache_dir, "search"):
        task = outputs["task"]
        rows.append((task["p"], task["lambda"], task["m"], outputs))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out_dir = Path(args.out)
    lines = [CSV_HEADER]
    by_lam: dict[int, list[tuple[Fraction, Fraction]]] = {}
    by_cell: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for p, lam, m, outputs in rows:
        lines.append(csv_row(outputs))
        alpha = Fraction(outputs["alpha"])
        ratio = Fraction(outputs["min_over_p"])
        by_lam.setdefault(lam, []).append((alpha, ratio))
        by_cell.setdefault((lam, p), []).append((m, ratio))
    _write(out_dir / "results.csv", ("\n".join(lines) + "\n").encode())
    for lam in sorted(by_lam):
        data_lines = ["# alpha min_over_p"]
        for alpha, ratio in sorted(by_lam[lam]):
            data_lines.append(f"{float(alpha):.12g} {float(ratio):.12g}")
        _write(out_dir / f"min_density_lambda{lam}.dat",
               ("\n".join(data_lines) + "\n").encode())
    # envelope: the minimum over all sizes >= m, reported without assuming
    # the per-m minimum is monotone
    env_by_lam: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for (lam, p), cells in by_cell.items():
        cells.sort(reverse=True)
        running = None
        for m, ratio in cells:
            running = ratio if running is None else min(running, ratio)
            env_by_lam.setdefault(lam, []).append((Fraction(m, p), running))
    for lam in sorted(env_by_lam):
        data_lines = ["# alpha envelope_min_over_p"]
        for alpha, ratio in sorted(env_by_lam[lam]):
            data_lines.append(f"{float(alpha):.12g} {float(ratio):.12g}")
        _write(out_dir / f"envelope_lambda{lam}.dat",
               ("\n".join(data_lines) + "\n").encode())
    print(f"rendered {len(rows)} cached results")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--p", type=int, default=101)
    p_verify.add_argument("--modulus", type=int, default=0,
                          help="composite moduli allowed where the inequality permits")
    p_verify.add_argument("--lambda", dest="lam", type=int, default=0)
    p_verify.add_argument("--l", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="minimize |A + lam*A| at one cell")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument("--lambda", dest="lam", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--budget", type=int, default=0)
    p_search.add_argument("--workers", type=int, default=1)
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser("sweep", help="grid of search cells -> CSV/JSON")
    p_sweep.add_argument("--p", required=True, help="comma list of primes")
    p_sweep.add_argument("--lambda", dest="lam", required=True, help="comma list")
    p_sweep.add_argument("--m-range", required=True, help="e.g. 2..5 or 2,3,5")
    p_sweep.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--budget", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
