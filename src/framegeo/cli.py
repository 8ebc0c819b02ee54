"""Command-line interface.

Subcommands
-----------
realize             build a frame with prescribed squared norms
ellipsoid lowner    minimum-volume cover of a frame's +/- vectors
ellipsoid john      largest ellipsoid in a subspace's cube section
volume cube-section / cross-projection   exact polytope volumes
equality-case       block-averaging subspace attaining the volume bounds
verify              randomized bound verification, CSV output
conjecture-scan     two-power bound scan, JSON summary

Exit codes: 0 success, 1 proved-bound violation, 2 usage error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

import numpy as np
from scipy.spatial import QhullError

from . import jsonio
from .ellipsoids import (ConvergenceError, DEFAULT_EPS, ellipsoid_volume_ratio,
                         john_of_cube_section, lowner_symmetric)
from .experiments import SuiteSpec, conjecture_scan, run_suite
from .frames import project_standard_basis
from .majorization import NormProfile, construct_realization
from .polytopes import (cross_projection, equality_subspace,
                        polytope_from_frame, volume)

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _write_or_print(text: str, out: str | None) -> None:
    """Write ``text``, ending in one newline, to ``out`` or to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_realize(args) -> int:
    entries = np.array([float(part) for part in args.c.split(",") if part.strip()])
    profile = NormProfile(k=args.k, entries=entries)
    frame = construct_realization(profile)
    _write_or_print(json.dumps(jsonio.frame_to_dict(frame), indent=2), args.out)
    return EXIT_OK


def _cmd_ellipsoid(args) -> int:
    if args.mode == "lowner":
        frame = jsonio.frame_from_dict(jsonio.load(args.frame))
        ell = lowner_symmetric(frame.vectors, eps=args.eps).ellipsoid
    else:
        subspace = jsonio.subspace_from_dict(jsonio.load(args.subspace))
        ell = john_of_cube_section(subspace, eps=args.eps)
    if args.out:
        _write_or_print(json.dumps(jsonio.ellipsoid_to_dict(ell), indent=2), args.out)
    print(repr(ellipsoid_volume_ratio(ell)))
    return EXIT_OK


def _cmd_volume(args) -> int:
    subspace = jsonio.subspace_from_dict(jsonio.load(args.subspace))
    print(repr(volume(args.build(project_standard_basis(subspace)))))
    return EXIT_OK


def _cmd_equality_case(args) -> int:
    subspace = equality_subspace(args.n, args.k)
    _write_or_print(json.dumps(jsonio.subspace_to_dict(subspace), indent=2), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    experiments = tuple(part.strip() for part in args.experiments.split(",") if part.strip())
    spec = SuiteSpec(n=args.n, k=args.k, trials=args.trials, seed=args.seed,
                     experiments=experiments)
    reports, csv_text = run_suite([spec])
    _write_or_print(csv_text, args.out)
    failing = [r for r in reports if not r.proved_ok]
    for r in failing:
        failed = ",".join(key for key, ok in r.passes.items() if not ok)
        print(f"bound violated: trial {r.trial_id} seed {r.seed}: {failed}",
              file=sys.stderr)
    return EXIT_BOUND if failing else EXIT_OK


def _cmd_conjecture_scan(args) -> int:
    summary = conjecture_scan(args.n, args.k, args.trials, args.seed)
    _write_or_print(json.dumps(dataclasses.asdict(summary), indent=2), args.out)
    return EXIT_BOUND if summary.ball2_violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framegeo",
        description="frames, minimum-volume ellipsoids, and polytope volume bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="frame with prescribed squared norms")
    p.add_argument("--c", required=True, help="comma-separated squared norms")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("ellipsoid", help="minimum-volume cover / inscribed ellipsoid")
    esub = p.add_subparsers(dest="mode", required=True)
    for mode, source, text in (("lowner", "--frame", "cover of a frame's +/- vectors"),
                               ("john", "--subspace", "largest ellipsoid in a cube section")):
        pe = esub.add_parser(mode, help=text)
        pe.add_argument(source, required=True)
        pe.add_argument("--eps", type=float, default=DEFAULT_EPS)
        pe.add_argument("--out", default=None)
        pe.set_defaults(func=_cmd_ellipsoid)

    p = sub.add_parser("volume", help="exact polytope volume for a subspace")
    vsub = p.add_subparsers(dest="body", required=True)
    for body, build in (("cube-section", polytope_from_frame),
                        ("cross-projection", cross_projection)):
        pv = vsub.add_parser(body)
        pv.add_argument("--subspace", required=True)
        pv.set_defaults(func=_cmd_volume, build=build)

    p = sub.add_parser("equality-case", help="subspace attaining the volume bounds")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_equality_case)

    for name, text, func in (("verify", "randomized bound verification (CSV)", _cmd_verify),
                             ("conjecture-scan", "two-power bound scan (JSON)",
                              _cmd_conjecture_scan)):
        p = sub.add_parser(name, help=text)
        for flag in ("--n", "--k", "--trials", "--seed"):
            p.add_argument(flag, required=True, type=int)
        if name == "verify":
            p.add_argument("--experiments", default="ellipsoid,volume",
                           help="comma-separated subset of ellipsoid,volume; volume runs the "
                                "ellipsoid checks too, since its chain checks need the fit")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConvergenceError, ArithmeticError, QhullError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never let a crash read as exit 1, a violated bound
        print(f"solver failure: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
