"""Build each counterexample family and print its exact statistics.

All three constructions have unit variance and fourth moment 3 (exactly,
or to the bisection tolerance) while staying finitely supported, so none
of them is normal; the exact Kolmogorov distance quantifies how far from
normal each one sits.
"""

import argparse

from chaoslab import RademacherModel
from chaoslab.construct import (
    inhomogeneous_counterexample,
    symmetric_counterexample,
)
from chaoslab.distance import integral_law, kolmogorov_to_normal


def describe(label, kern, model):
    route = integral_law(kern, model)
    print(
        f"{label:<28} var={route.variance:.12f} "
        f"E4={route.fourth:.12f} atoms={len(route.law.atoms):>4} "
        f"dK={kolmogorov_to_normal(route.law):.5f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=4)
    parser.add_argument("--sphere-horizon", type=int, default=4)
    args = parser.parse_args()

    print("tuned homogeneous products (moment-matched, finitely supported)")
    for m in range(1, args.max_order + 1):
        model, kern = inhomogeneous_counterexample(m, "+")
        describe(f"  order {m}, p={model.probs[0]:.5f}", kern, model)

    print()
    print("fair-coin sphere constructions (bisection on the quadruple sum)")
    for m in range(2, args.max_order + 1):
        kern, trace = symmetric_counterexample(m, args.sphere_horizon)
        model = RademacherModel.symmetric(kern.horizon)
        describe(
            f"  order {m}, theta={trace.theta:.6f} ({trace.iterations} steps)",
            kern,
            model,
        )


if __name__ == "__main__":
    main()
