"""Command-line front end.

Commands:
    validate     check a profile JSON and report violated invariants
    describe     summarize a profile (and optionally its reconstruction)
    certificate  flat-distance certificate for a tubular neighborhood
    delta        mass budget delta(epsilon, D, alpha0, m)
    gh           Gromov-Hausdorff upper bound for a tube
    sweep        one certificate row per family member, CSV or JSON
    example      emit a generated profile as JSON

Exit codes: 0 success; 1 invalid profile, window overflow, or failed sweep
rows; 2 usage, parse, I/O, or domain-parameter errors.  Output is
deterministic: sorted keys, no timestamps, floats at full precision.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from .certificates import delta_budget, flat_certificate
from .embedding import metric_embedding_check
from .errors import DomainError, MassflatError, ProfileFormatError, positive
from .geometry import ManifoldModel, tubular_window
from .ghdist import best_gh_bound, gh_bound
from .profiles import (deep_well, flat, schwarzschild, sphere_radius,
                       stripes, validate)
from .serialization import canonical_json, dumps_profile, read_profile
from .sweeps import run_sweep, write_sweep_csv

__all__ = ["main"]


def _text_lines(data, prefix=""):
    for key in sorted(data, key=str):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _text_lines(value, prefix=name + ".")
        elif isinstance(value, list):
            for k, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _text_lines(item, prefix=f"{name}[{k}].")
                else:
                    yield f"{name}[{k}] = {item!r}"
        else:
            yield f"{name} = {value!r}"


def _emit(data: dict, fmt: str) -> None:
    if fmt == "text":
        for line in _text_lines(data):
            print(line)
    else:
        print(canonical_json(data))


def _floats(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"could not parse number list {text!r}: {exc}")


def _default_r_cap(args, alpha0: float, D: float, dimension: int) -> float:
    # checked first, so an infinite D is blamed on D, not on r_cap
    alpha0, D = positive(alpha0, "alpha0"), positive(D, "D")
    if args.r_cap is not None:
        return args.r_cap
    return 4.0 * (sphere_radius(alpha0, dimension) + D)


def _cmd_validate(args) -> int:
    profile = read_profile(args.path)
    report = validate(profile)
    data = {"valid": report.ok,
            "issues": [{"code": it.code, "where": it.where,
                        "detail": it.detail} for it in report.issues]}
    _emit(data, args.format)
    return 0 if report.ok else 1


def _cmd_describe(args) -> int:
    profile = read_profile(args.path)
    report = validate(profile)
    data = {
        "dimension": profile.dimension,
        "r_min": profile.r_min,
        "adm_mass": profile.adm_mass,
        "n_pieces": len(profile.pieces),
        "pieces": [{"kind": p.kind, "from": p.r_lo, "to": p.r_hi}
                   for p in profile.pieces],
        "valid": report.ok,
    }
    if args.r_cap is not None and report.ok:
        model = ManifoldModel(profile, args.r_cap, check=False)
        data["model"] = {
            "r_cap": model.r_cap,
            "s_cap": model.s_cap,
            "F_cap": float(model.F(model.r_cap)),
            "r_disk": model.r_disk,
            "sup_grad": model.sup_grad(model.r_min, model.r_cap),
        }
    _emit(data, args.format)
    return 0 if report.ok else 1


def _cmd_certificate(args) -> int:
    profile = read_profile(args.path)
    r_cap = _default_r_cap(args, args.alpha0, args.D, profile.dimension)
    model = ManifoldModel(profile, r_cap)
    cert = flat_certificate(model, args.alpha0, args.D, args.epsilon)
    data = asdict(cert)
    data["delta_budget"] = asdict(
        delta_budget(args.epsilon, args.D, args.alpha0, profile.dimension))
    if args.sampled_cm:
        window = tubular_window(model, args.alpha0, args.D)
        data["sampled_cm"] = metric_embedding_check(
            model, window, mesh_h=args.mesh_h, seed=args.seed)
    _emit(data, args.format)
    return 0


def _cmd_delta(args) -> int:
    budget = delta_budget(args.epsilon, args.D, args.alpha0, args.dimension)
    _emit(asdict(budget), args.format)
    return 0


def _cmd_gh(args) -> int:
    profile = read_profile(args.path)
    r_cap = _default_r_cap(args, args.alpha0, args.D, profile.dimension)
    model = ManifoldModel(profile, r_cap)
    window = tubular_window(model, args.alpha0, args.D)
    if args.r_eps is not None:
        bound = gh_bound(model, window, args.r_eps)
    else:
        bound = best_gh_bound(model, window)
    _emit(asdict(bound), args.format)
    return 0


def _cmd_sweep(args) -> int:
    values = (args.values.split(",") if args.family == "file"
              else _floats(args.values))
    if not values:
        raise DomainError("sweep needs a nonempty --values list")
    rows = run_sweep(args.family, values, alpha0=args.alpha0, D=args.D,
                     epsilon=args.epsilon, dimension=args.dimension,
                     well_depth=args.well_depth, radii=_floats(args.radii),
                     r_cap=args.r_cap)
    if args.format == "json":
        text = canonical_json(rows) + "\n"
    else:
        import io

        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def _cmd_example(args) -> int:
    if args.family == "flat":
        profile = flat(args.dimension)
    elif args.family == "schwarzschild":
        profile = schwarzschild(args.dimension, args.mass)
    elif args.family == "deep-well":
        profile = deep_well(args.dimension, args.delta, args.alpha0,
                            args.well_depth,
                            with_boundary=not args.no_boundary)
    else:
        profile = stripes(tuple(_floats(args.radii)), args.delta,
                          args.dimension)
    print(dumps_profile(profile))
    return 0


def _add_format(sub, choices=("json", "text")):
    sub.add_argument("--format", choices=choices, default=choices[0],
                     help="output format")


def _add_r_cap(sub):
    sub.add_argument("--r-cap", type=float, default=None,
                     help="truncation radius (default 4 (r0 + D))")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massflat",
        description="Flat-distance and Gromov-Hausdorff certificates for "
                    "rotationally symmetric asymptotically flat manifolds.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="validate a profile JSON")
    p.add_argument("path")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("describe", help="summarize a profile")
    p.add_argument("path")
    _add_format(p)
    _add_r_cap(p)
    p.set_defaults(func=_cmd_describe)

    p = subs.add_parser("certificate",
                        help="flat-distance certificate for a tube")
    p.add_argument("path")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sampled-cm", action="store_true",
                   help="attach a sampled embedding check")
    p.add_argument("--mesh-h", type=float, default=0.02,
                   help="spacing of the sample lattice of the sampled check")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled check")
    _add_format(p)
    _add_r_cap(p)
    p.set_defaults(func=_cmd_certificate)

    p = subs.add_parser("delta", help="mass budget for a target epsilon")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--dimension", type=int, default=3)
    _add_format(p)
    p.set_defaults(func=_cmd_delta)

    p = subs.add_parser("gh", help="Gromov-Hausdorff upper bound")
    p.add_argument("path")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--r-eps", type=float, default=None,
                   help="cut radius (default: best over a grid)")
    _add_format(p)
    _add_r_cap(p)
    p.set_defaults(func=_cmd_gh)

    p = subs.add_parser("sweep", help="certificate rows for a family")
    p.add_argument("--family", required=True,
                   choices=("schwarzschild", "deep-well", "stripes", "file"))
    p.add_argument("--values", required=True,
                   help="comma-separated masses, deltas, or paths")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--dimension", type=int, default=3)
    p.add_argument("--well-depth", type=float, default=10.0)
    p.add_argument("--radii", default="1,2")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    _add_format(p, ("csv", "json"))
    _add_r_cap(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("example", help="emit a generated profile")
    p.add_argument("family",
                   choices=("flat", "schwarzschild", "deep-well", "stripes"))
    p.add_argument("--dimension", type=int, default=3)
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--alpha0", type=float, default=4.0 * math.pi)
    p.add_argument("--well-depth", type=float, default=10.0)
    p.add_argument("--radii", default="1,2")
    p.add_argument("--no-boundary", action="store_true")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ProfileFormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MassflatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
