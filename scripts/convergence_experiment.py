"""Convergence of distances along two order-2 kernel sequences.

The matched-pairs family satisfies every hypothesis of the
fourth-moment-influence convergence statement and its exact distances
shrink with the horizon.  The sign-times-average family keeps maximal
influence pinned at 1/4 yet still converges to the normal law; it shows
the influence condition is sufficient, not necessary.

A second table reads the fourth moment off the kernel's support alone,
with no 2^n table, at horizons in the hundreds and thousands:
|E[F^4] - 3| goes to 0 in both families while the sup-influence of the
second stays at 1/4, so the fourth moment alone does not decide which
conditions hold.  Its matched-pairs rows also carry exact distances: that
kernel is n/2 independent pieces of two coordinates each, and its law is
their convolution.
"""

import argparse

from chaoslab.construct import matched_pairs_kernel, product_chaos_sequence
from chaoslab.distance import integral_law, normal_distances
from chaoslab.moments import fourth_moment_symmetric

# horizon-free rows: matched pairs over thousands of coordinates, and the
# star of the second family, where every pair of subsets shares coordinate 0
MATCHED_HORIZONS = (1000, 2000, 4000, 8000)
STAR_HORIZONS = (100, 200, 400, 800)


def row(kern, model):
    """(|E[F^4] - 3|, sup-influence, dW, dK) of the kernel's integral."""
    route = integral_law(kern, model)
    dw, dk = normal_distances(route.law)
    return abs(route.fourth - 3.0), kern.sup_influence(), dw, dk


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--horizons", type=int, nargs="+", default=[6, 10, 14, 18]
    )
    args = parser.parse_args()

    print("matched pairs (all hypotheses hold)")
    print(f"{'n':>4} {'|E4-3|':>10} {'supInf':>10} {'dW':>10} {'dK':>10}")
    for n in args.horizons:
        e4, inf, dw, dk = row(*matched_pairs_kernel(n))
        print(f"{n:>4} {e4:>10.6f} {inf:>10.6f} {dw:>10.6f} {dk:>10.6f}")

    print()
    print("sign times average (influence stays 1/4, law still converges)")
    print(f"{'n':>4} {'|E4-3|':>10} {'supInf':>10} {'dW':>10} {'dK':>10}")
    for n in args.horizons:
        e4, inf, dw, dk = row(*product_chaos_sequence(2, n))
        print(f"{n:>4} {e4:>10.6f} {inf:>10.6f} {dw:>10.6f} {dk:>10.6f}")

    print()
    print("horizon-free: fourth moment from the support alone")
    print(f"{'family':>16} {'n':>5} {'|E4-3|':>10} {'supInf':>10} {'dW':>10} {'dK':>10}")
    for n in MATCHED_HORIZONS:
        kern, model = matched_pairs_kernel(n)
        e4 = abs(fourth_moment_symmetric(kern.to_subset_coeffs()) - 3.0)
        dw, dk = normal_distances(integral_law(kern, model).law)
        print(f"{'matched pairs':>16} {n:>5} {e4:>10.6f} {kern.sup_influence():>10.6f}"
              f" {dw:>10.6f} {dk:>10.6f}")
    for n in STAR_HORIZONS:
        # the star is one connected piece over all n coordinates, so its exact
        # law needs the 2**n table; its distance columns stay blank
        kern, _ = product_chaos_sequence(2, n)
        e4 = abs(fourth_moment_symmetric(kern.to_subset_coeffs()) - 3.0)
        print(f"{'sign x average':>16} {n:>5} {e4:>10.6f} {kern.sup_influence():>10.6f}")


if __name__ == "__main__":
    main()
