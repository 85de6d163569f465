"""Batch command-line front-end.

Subcommands:
    analyze  full criterion report for one state (JSON)
    oracle   eigenvalue spectra and PPT verdicts (JSON)
    sweep    criterion margins over a parameter grid (CSV with a sign-change footer)

Exit codes: 0 = report emitted (regardless of verdicts), 2 = input validation
failure, 3 = internal numerical assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis
from .errors import NumericsError, ValidationError
from .linalg import DEFAULT_PSD_TOL


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help=f"named state family ({', '.join(analysis.FAMILY_BY_NAME)})")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="family parameter; repeatable",
    )
    parser.add_argument("--file", help="JSON state file with 'dims' and 'matrix' fields")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL, help="decision tolerance")
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmoments",
        description="Entanglement criteria from partial-transpose moments and principal minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the criterion suite on one state")
    _add_state_source(analyze)
    analyze.add_argument("--kmax", type=int, help="number of moments (default 6 bipartite, 5 tripartite)")
    analyze.add_argument("--criteria", help="comma list, e.g. p3ppt,p3oppt,p5ppt")
    _add_common(analyze)

    oracle = sub.add_parser("oracle", help="eigenvalue spectra and PPT verdicts")
    _add_state_source(oracle)
    _add_common(oracle)

    sweep = sub.add_parser("sweep", help="criterion margins over a parameter grid")
    sweep.add_argument(
        "--family", required=True, help=f"sweepable family ({', '.join(analysis.sweepable_families())})"
    )
    sweep.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fixed family parameter; repeatable",
    )
    sweep.add_argument(
        "--range",
        required=True,
        metavar="NAME=LO:HI",
        help="swept parameter and bounds, e.g. alpha=0:1",
    )
    group = sweep.add_mutually_exclusive_group()
    group.add_argument("--steps", type=int, default=101, help="number of grid points (default 101)")
    group.add_argument("--step", type=float, help="grid spacing instead of a point count")
    sweep.add_argument("--kmax", type=int, help="number of moments per grid point")
    sweep.add_argument("--criteria", help="comma list, e.g. p3ppt,p3oppt,p5ppt")
    _add_common(sweep)
    return parser


def _resolve_state(args) -> tuple:
    if bool(args.family) == bool(args.file):
        raise ValidationError("provide exactly one of --family or --file")
    if args.family:
        params = analysis.parse_param_assignments(args.param)
        state = analysis.build_family_state(args.family, params)
        return state, {"family": args.family, "params": params}
    if args.param:
        raise ValidationError("--param applies only to --family inputs")
    return analysis.load_state_json(args.file), {"file": args.file}


def _parse_range(text: str) -> tuple[str, float, float]:
    if "=" not in text or ":" not in text:
        raise ValidationError(f"range {text!r} is not of the form name=lo:hi")
    name, _, bounds = text.partition("=")
    lo_raw, _, hi_raw = bounds.partition(":")
    try:
        lo, hi = float(lo_raw), float(hi_raw)
    except ValueError as exc:
        raise ValidationError(f"range bounds in {text!r} must be numbers") from exc
    return name.strip(), lo, hi


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_analyze(args) -> None:
    state, descriptor = _resolve_state(args)
    report = analysis.analyze_state(
        state, descriptor, kmax=args.kmax, criteria=args.criteria, tol=args.tol
    )
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def _run_oracle(args) -> None:
    state, descriptor = _resolve_state(args)
    report = analysis.oracle_state(state, descriptor, tol=args.tol)
    _emit(json.dumps(report, indent=2) + "\n", args.out)


def _run_sweep(args) -> None:
    fixed = analysis.parse_param_assignments(args.param)
    name, lo, hi = _parse_range(args.range)
    expected = getattr(analysis.FAMILY_BY_NAME.get(args.family), "sweep_param", None)
    if expected is not None and name != expected:
        raise ValidationError(
            f"family {args.family!r} sweeps over {expected!r}, not {name!r}"
        )
    if args.step is not None:
        if not args.step > 0:
            raise ValidationError(f"--step must be positive, got {args.step}")
        # min() turns an infinite or NaN point count, which round() rejects, into one run_sweep rejects
        count = int(round(min(analysis.MAX_GRID_POINTS, (hi - lo) / args.step))) + 1
    else:
        count = args.steps
    result = analysis.run_sweep(
        args.family,
        fixed,
        lo,
        hi,
        count,
        criteria=args.criteria,
        kmax=args.kmax,
        tol=args.tol,
    )
    _emit(analysis.render_sweep_csv(result), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": _run_analyze, "oracle": _run_oracle, "sweep": _run_sweep}
    try:
        handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical assertion failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
