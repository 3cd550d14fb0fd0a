"""Command-line front end.

Subcommands load JSON model/kernel files (0-based indices), run the exact
engines and print flat key=value reports, or JSON with --json.  Exit
status is 0 only if every assertion made by the invoked command passed.

``bound``, ``distance`` and ``dejong`` take the exact law from the kernel's
independent pieces (``distance.integral_law``), so they print one W1 per
file, and the first two accept a horizon past ``enum_cap`` when every
piece fits under it.  ``moments`` calls a model fair only when every p is
exactly 0.5; then ``--engine both`` evaluates one plan for both
product-formula engines.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import bounds, construct, distance, io, moments, verify
from .chaos import ChaosVector, integral_table
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


def _load_pair(args) -> tuple[RademacherModel, "io.Kernel"]:
    """The model and kernel files of a kernel-file command, the kernel
    rescaled to unit variance under ``--normalize``."""
    kern = io.load_kernel(args.kernel)
    model = io.load_model(args.model)
    if model.n != kern.horizon:
        raise FormatError(
            f"kernel horizon {kern.horizon} does not match model horizon {model.n}"
        )
    return model, kern.normalized() if args.normalize else kern


def cmd_verify(args, caps: Caps) -> int:
    results = verify.run_suite(seed=args.seed, caps=caps)
    failures = [r for r in results if not r.passed]
    if args.json:
        checks = [r.to_dict() for r in results]
        _emit({"seed": args.seed, "checks": checks, "failures": [r.name for r in failures]}, True)
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


def cmd_bound(args, caps: Caps) -> int:
    model, kern = _load_pair(args)
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


def cmd_counterexample(args, caps: Caps) -> int:
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

    route = distance.integral_law(kern, model, caps)
    wasserstein, kolmogorov = distance.normal_distances(route.law)
    report = dict(provenance)
    report.update(
        {
            "variance": route.variance,
            "fourth_moment": route.fourth,
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


def cmd_moments(args, caps: Caps) -> int:
    model, kern = _load_pair(args)
    report: dict = {"order": kern.order, "horizon": kern.horizon}
    engines = {}
    want = args.engine
    symmetric = all(p == 0.5 for p in model.probs)
    if want in ("enumerate", "both"):
        table = integral_table(kern, model, caps)
        report["second_moment"], engines["enumerate"] = moments.even_moments(table, model, caps)
    # the product-formula engines report the cost of their pass, read
    # off the plan they evaluate: S subsets and the P pairs expanded
    plan = None
    if want in ("factorized", "both"):
        plan, values = moments.factorized_plan(kern.to_subset_coeffs(), model, caps)
        engines["factorized"] = plan.fourth_moment(values)
        if want == "both" and symmetric:
            # fair coins have skew exactly 0, and a zero-skew plan gives the fair-coin plan's bits
            engines["symmetric_fast"] = engines["factorized"]
    if want == "symmetric-fast":
        if not symmetric:
            raise DomainError("symmetric-fast engine needs the fair-coin model")
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


def cmd_distance(args, caps: Caps) -> int:
    model, kern = _load_pair(args)
    route = distance.integral_law(kern, model, caps)
    law = route.law
    report = {"atoms": len(law.atoms), "variance": route.variance}
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


def cmd_dejong(args, caps: Caps) -> int:
    model, kern = _load_pair(args)
    table = integral_table(kern, model, caps)
    rep = bounds.dejong_bound(table, model, kappa_m=args.kappa_m, caps=caps)
    del table  # W1 below comes from bound's route, one 2**n table alive at a time
    data = rep.to_dict()
    ref = math.factorial(kern.order) ** 2 * kern.sup_influence()
    data["msq_sup_influence"] = ref
    data["rho_sq_over_msq_sup_influence"] = rep.terms["rho_squared"] / ref if ref else float("nan")
    law = distance.integral_law(kern, model, caps).law
    data["exact_wasserstein"] = distance.normal_distances(law)[0]
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
    # the four kernel-file commands read the same pair of files
    kernel_file = argparse.ArgumentParser(add_help=False, parents=[common])
    kernel_file.add_argument("--kernel", required=True)
    kernel_file.add_argument("--model", required=True)
    kernel_file.add_argument("--normalize", action="store_true")
    distances = argparse.ArgumentParser(add_help=False)
    distances.add_argument(
        "--distance", choices=["wasserstein", "kolmogorov", "both"], default="both"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run the full identity and inequality suite")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "bound", parents=[kernel_file, distances], help="evaluate distance bounds for a kernel file"
    )
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

    p = sub.add_parser("moments", parents=[kernel_file], help="fourth moments through selectable engines")
    p.add_argument(
        "--engine",
        choices=["enumerate", "factorized", "symmetric-fast", "both"],
        default="both",
    )
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser(
        "distance", parents=[kernel_file, distances], help="exact distances to the standard normal"
    )
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("dejong", parents=[kernel_file], help="degenerate U-statistic bound and rho^2 report")
    p.add_argument("--kappa-m", type=float, default=bounds.DEFAULT_KAPPA_M)
    p.set_defaults(fn=cmd_dejong)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.  Parsing leaves a parser
    unchanged and returns a fresh namespace, so ``main`` stays re-entrant."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    caps = DEFAULT_CAPS
    if args.cap_enum is not None:
        caps = dataclasses.replace(DEFAULT_CAPS, enum_cap=args.cap_enum)
    try:
        return args.fn(args, caps)
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
