"""Survey exact distances against the explicit bounds on random kernels.

Draws normalized multiple integrals at random orders, horizons and
success probabilities, evaluates both distance bounds exactly and prints
the tightness statistics.  Every slack should be nonnegative.
"""

import argparse

import numpy as np

from chaoslab import ChaosVector, RademacherModel, random_kernel
from chaoslab.bounds import theorem_bounds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--max-order", type=int, default=3)
    parser.add_argument("--max-horizon", type=int, default=12)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(
        f"{'m':>2} {'n':>3} {'E[F^4]':>9} {'supInf':>8} "
        f"{'dW':>8} {'W-bound':>9} {'dK':>8} {'K-bound':>9}"
    )
    worst_w = worst_k = float("inf")
    ratios = []
    for _ in range(args.trials):
        m = int(rng.integers(1, args.max_order + 1))
        n = int(rng.integers(max(m + 1, 4), args.max_horizon + 1))
        model = RademacherModel(tuple(rng.uniform(0.1, 0.9, n)))
        F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
        rw, rk = theorem_bounds(F, model)
        worst_w = min(worst_w, rw.slack)
        worst_k = min(worst_k, rk.slack)
        ratios.append(rw.exact_distance / rw.bound_value)
        print(
            f"{m:>2} {n:>3} {rw.fourth_moment:>9.4f} {rw.sup_influence:>8.4f} "
            f"{rw.exact_distance:>8.4f} {rw.bound_value:>9.4f} "
            f"{rk.exact_distance:>8.4f} {rk.bound_value:>9.4f}"
        )
    print()
    print(f"min Wasserstein slack: {worst_w:.4f}")
    print(f"min Kolmogorov slack:  {worst_k:.4f}")
    print(f"distance/bound ratio:  median {np.median(ratios):.4f}, max {max(ratios):.4f}")


if __name__ == "__main__":
    main()
