"""Command-line front end.

Subcommands load JSON model/kernel files (0-based indices), run the exact
engines and print flat key=value reports, or JSON with --json.  Exit
status is 0 only if every assertion made by the invoked command passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import bounds, construct, distance, io, moments, verify
from .chaos import ChaosVector, integral_table, variance
from .config import DEFAULT_CAPS, Caps
from .errors import CapacityError, ChaoslabError, DomainError, FormatError
from .kernels import support_plan
from .model import RademacherModel


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for key in sorted(data):
            print(f"{key} = {data[key]}")


def _caps_from_args(args) -> Caps:
    if getattr(args, "cap_enum", None) is None:
        return DEFAULT_CAPS
    return dataclasses.replace(DEFAULT_CAPS, enum_cap=args.cap_enum)


def _load_pair(args) -> tuple[RademacherModel, "io.Kernel"]:
    kern = io.load_kernel(args.kernel)
    model = io.load_model(args.model)
    if model.n != kern.horizon:
        raise FormatError(
            f"kernel horizon {kern.horizon} does not match model horizon {model.n}"
        )
    return model, kern


def cmd_verify(args) -> int:
    results = verify.run_suite(seed=args.seed, caps=_caps_from_args(args))
    failures = [r for r in results if not r.passed]
    if args.json:
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "checks": [r.to_dict() for r in results],
                    "failures": [r.name for r in failures],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for r in results:
            mark = "ok  " if r.passed else "FAIL"
            thr = "info" if r.threshold is None else f"{r.threshold:.0e}"
            print(f"{mark} {r.name:32s} residual {r.residual:.3e}  tol {thr}")
        print(f"{len(results)} checks, {len(failures)} failures (seed {args.seed})")
    if failures:
        print("failed: " + ", ".join(r.name for r in failures), file=sys.stderr)
        return 1
    return 0


def cmd_bound(args) -> int:
    caps = _caps_from_args(args)
    model, kern = _load_pair(args)
    if args.normalize:
        kern = kern.normalized()
    F = ChaosVector.from_kernel(kern)
    try:
        pair = bounds.theorem_bounds(F, model, caps)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if "not normalized" in str(exc):
            print("hint: pass --normalize to rescale the kernel", file=sys.stderr)
        return 2
    ok = True
    for rep in pair:
        if args.distance in (rep.kind, "both"):
            _emit(rep.to_dict(), args.json)
            if rep.slack < 0:
                ok = False
    return 0 if ok else 1


def cmd_counterexample(args) -> int:
    caps = _caps_from_args(args)
    if args.kind == "inhomogeneous":
        model, kern = construct.inhomogeneous_counterexample(args.m, args.sign)
        provenance = {
            "kind": args.kind,
            "m": args.m,
            "sign": args.sign,
            "probability": model.probs[0],
        }
    elif args.kind == "symmetric":
        kern, trace = construct.symmetric_counterexample(args.m, args.n, args.tol)
        model = RademacherModel.symmetric(kern.horizon)
        provenance = {
            "kind": args.kind,
            "m": args.m,
            "n": args.n,
            "theta": trace.theta,
            "residual": trace.residual,
            "iterations": trace.iterations,
            "endpoint_low": trace.endpoint_low,
            "endpoint_high": trace.endpoint_high,
        }
    else:
        kern, model = construct.product_chaos_sequence(args.m, args.n)
        provenance = {"kind": args.kind, "m": args.m, "n": args.n}

    table = integral_table(kern, model, caps)
    var = variance(table, model, caps)
    fourth = moments.moment(table, 4, model, caps)
    wasserstein, kolmogorov = distance.normal_distances(
        distance.exact_distribution(table, model, caps)
    )
    report = dict(provenance)
    report.update(
        {
            "variance": var,
            "fourth_moment": fourth,
            "sup_influence": kern.sup_influence(),
            "kolmogorov_distance": kolmogorov,
            "wasserstein_distance": wasserstein,
        }
    )
    if args.out:
        io.dump_json(io.kernel_to_dict(kern, provenance), args.out)
        model_path = args.out + ".model.json" if not args.model_out else args.model_out
        io.dump_json(io.model_to_dict(model), model_path)
        report["kernel_file"] = args.out
        report["model_file"] = model_path
    _emit(report, args.json)
    return 0


def cmd_moments(args) -> int:
    caps = _caps_from_args(args)
    model, kern = _load_pair(args)
    if args.normalize:
        kern = kern.normalized()
    report: dict = {"order": kern.order, "horizon": kern.horizon}
    engines = {}
    want = args.engine
    symmetric = all(abs(p - 0.5) <= 1e-15 for p in model.probs)
    if want in ("enumerate", "both"):
        table = integral_table(kern, model, caps)
        report["second_moment"], engines["enumerate"] = moments.even_moments(table, model, caps)
    # the product-formula engines report the cost of their pass, read
    # off the plan they evaluate: S subsets and the P pairs expanded
    plan = None
    if want in ("factorized", "both"):
        plan, values = moments.factorized_plan(kern.to_subset_coeffs(), model, caps)
        engines["factorized"] = plan.fourth_moment(values)
    if want == "symmetric-fast" or (want == "both" and symmetric):
        if not symmetric:
            print("error: symmetric-fast engine needs the fair-coin model", file=sys.stderr)
            return 2
        plan, values = support_plan(kern.to_subset_coeffs())
        engines["symmetric_fast"] = plan.fourth_moment(values)
    report.update({f"fourth_moment_{k}": v for k, v in engines.items()})
    if plan is not None:
        report["support_size"], report["overlapping_pairs"] = plan.size, plan.pairs
    if len(engines) > 1:
        vals = sorted(engines.values())
        report["engine_agreement_residual"] = vals[-1] - vals[0]
    _emit(report, args.json)
    return 0


def cmd_distance(args) -> int:
    """Atoms, variance and exact distances of a kernel's integral.

    The law comes from the kernel's independent pieces
    (``distance.integral_law``) and the variance is the sum of theirs, so
    the horizon may exceed ``enum_cap`` when every piece fits under it.
    """
    caps = _caps_from_args(args)
    model, kern = _load_pair(args)
    if args.normalize:
        kern = kern.normalized()
    route = distance.integral_law(kern, model, caps, variance)
    law = route.law
    report = {"atoms": len(law.atoms), "variance": sum(route.stats, 0.0)}
    if args.distance == "both":
        report["wasserstein_distance"], report["kolmogorov_distance"] = (
            distance.normal_distances(law)
        )
    elif args.distance == "kolmogorov":
        report["kolmogorov_distance"] = distance.kolmogorov_to_normal(law)
    else:
        report["wasserstein_distance"] = distance.wasserstein_to_normal(law)
    _emit(report, args.json)
    return 0


def cmd_dejong(args) -> int:
    caps = _caps_from_args(args)
    model, kern = _load_pair(args)
    if args.normalize:
        kern = kern.normalized()
    table = integral_table(kern, model, caps)
    rep = bounds.dejong_bound(table, model, kappa_m=args.kappa_m, caps=caps)
    data = rep.to_dict()
    ref = math.factorial(kern.order) ** 2 * kern.sup_influence()
    data["msq_sup_influence"] = ref
    data["rho_sq_over_msq_sup_influence"] = (
        rep.terms["rho_squared"] / ref if ref else float("nan")
    )
    law = distance.exact_distribution(table, model, caps)
    data["exact_wasserstein"] = distance.wasserstein_to_normal(law)
    _emit(data, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="exact fourth-moment calculus for finite Rademacher sequences",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument(
        "--cap-enum", type=int, default=None, help="override the 2**n enumeration cap"
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--cap-enum", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify",
        help="run the full identity and inequality suite",
        parents=[common],
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bound", parents=[common], help="evaluate distance bounds for a kernel file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--distance",
        choices=["wasserstein", "kolmogorov", "both"],
        default="both",
    )
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("counterexample", parents=[common], help="construct a named example family")
    p.add_argument(
        "--kind",
        choices=["inhomogeneous", "symmetric", "product"],
        required=True,
    )
    p.add_argument("-m", type=int, required=True, help="chaos order")
    p.add_argument("-n", type=int, default=4, help="horizon (where applicable)")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--tol", type=float, default=1e-12, help="bisection residual target")
    p.add_argument("--out", default=None, help="write the kernel file here")
    p.add_argument("--model-out", default=None, help="write the model file here")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("moments", parents=[common], help="fourth moments through selectable engines")
    p.add_argument("--kernel", required=True)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--engine",
        choices=["enumerate", "factorized", "symmetric-fast", "both"],
        default="both",
    )
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("distance", parents=[common], help="exact distances to the standard normal")
    p.add_argument("--kernel", required=True)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--distance",
        choices=["wasserstein", "kolmogorov", "both"],
        default="both",
    )
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("dejong", parents=[common], help="degenerate U-statistic bound and rho^2 report")
    p.add_argument("--kernel", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kappa-m", type=float, default=bounds.DEFAULT_KAPPA_M)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(fn=cmd_dejong)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.  Parsing leaves a parser
    unchanged and returns a fresh namespace, so ``main`` stays re-entrant."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error ({exc.cap_name}={exc.cap_value}): {exc}", file=sys.stderr)
        return 2
    except ChaoslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
