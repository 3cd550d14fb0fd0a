"""The exact law at ``enum_cap`` = 24, and dK and W1 at n = 22 and 24
against the atom-by-atom oracles: checks too slow and too large for the
tier-1 suite, run by CI as a step of their own.

    PYTHONPATH=src python tests/enum_cap_gate.py

pytest does not collect this file (its name does not start with
``test_``).  Run it in a fresh process: the memory gate reads the growth
of the process's own peak RSS (``ru_maxrss``), so it runs first, before
the oracles allocate anything.  The kernel is ``random_kernel(2, n, 0,
normalized=True)`` on fair coins.  The script prints each measurement,
times included, and exits 1 when a check fails; the times are not gated.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import oracle_kolmogorov, oracle_wasserstein  # noqa: E402

from chaoslab import ChaosVector, RademacherModel, random_kernel  # noqa: E402
from chaoslab.bounds import theorem_bounds  # noqa: E402
from chaoslab.distance import integral_law, normal_distances  # noqa: E402

ENUM_CAP = 24
RSS_LIMIT_MB = 0.8 * 1024  # 0.8 GB, the target for theorem_bounds at enum_cap
# W1's allowance from the oracle, in ulps of 1 + the largest |atom|: the walk's
# blocked sums and the oracle's fsum measured 8.0e-16 and 2.2e-16 apart at
# n = 22 and 24, under 4 such ulps; it does not grow with the atom count, so
# an error of 1e-12 fails it
ULPS = 16


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    failures = []

    before = _peak_mb()
    start = time.perf_counter()
    F = ChaosVector.from_kernel(random_kernel(2, ENUM_CAP, 0, normalized=True))
    rw, rk = theorem_bounds(F, RademacherModel.symmetric(ENUM_CAP))
    seconds = time.perf_counter() - start
    growth = _peak_mb() - before
    table_mb = 8 * 2**ENUM_CAP / 2**20
    print(f"theorem_bounds n={ENUM_CAP}: {seconds:.2f} s, +{growth:.0f} MB "
          f"({growth / table_mb:.2f} tables), slacks {rw.slack!r} and {rk.slack!r}")
    if not (rw.slack >= 0.0 and rk.slack >= 0.0):
        failures.append(f"a bound fails at n={ENUM_CAP}: slacks {rw.slack!r}, {rk.slack!r}")
    if growth > RSS_LIMIT_MB:
        failures.append(f"theorem_bounds grew the peak RSS by {growth:.0f} MB, "
                        f"above {RSS_LIMIT_MB:.0f} MB")

    for n in (22, ENUM_CAP):
        law = integral_law(random_kernel(2, n, 0, normalized=True),
                           RademacherModel.symmetric(n)).law
        start = time.perf_counter()
        w1, dk = normal_distances(law)
        walk = time.perf_counter() - start
        start = time.perf_counter()
        dk_oracle, w1_oracle = float(oracle_kolmogorov(law)), oracle_wasserstein(law)
        oracles = time.perf_counter() - start
        atoms = len(law.atoms)
        allowed = ULPS * np.finfo(float).eps * (1.0 + float(np.abs(law.atoms).max()))
        gap = abs(w1 - w1_oracle)
        print(f"distances n={n}: {atoms} atoms, walk {walk:.2f} s, oracles {oracles:.1f} s, "
              f"dK {dk!r} (oracle {dk_oracle!r}), W1 gap {gap:.1e} of {allowed:.1e} allowed")
        if dk != dk_oracle:
            failures.append(f"dK at n={n} is {dk!r}, the oracle's is {dk_oracle!r}")
        if not gap <= allowed:
            failures.append(f"W1 at n={n} is {gap!r} from the oracle's, above {allowed!r}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
