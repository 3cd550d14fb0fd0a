"""The golden outputs under ``tests/golden/``: their cases, and the script
that writes them.

    PYTHONPATH=src python tests/regen_golden.py [CASE ...]

Each case is one CLI invocation or one script under ``scripts/`` run with
its defaults.  ``<case>.out`` holds its stdout; ``<case>.err`` holds
``exit <status>`` and its stderr, and exists only when the status is not
0 or stderr is not empty.  The kernel and model files the CLI cases read
live in ``tests/golden/inputs/``: each is written once, when it is
missing, and kept, so that a change to ``random_kernel`` cannot move
them.  The random ones are drawn from one fixed seed in a fixed order.

Rerun the whole script only for a change that moves output bits on
purpose; a change that adds cases names them, so that only their files
are written.  List in CHANGES.md every file that changed and by how much.
``tests/test_golden.py`` compares the files.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"

# the shapes of the benchmark's inputs: (label, m, n); None marks the
# matched-pairs kernel on the fair-coin model
_SHAPES = [
    ("dense_m3_n16", 3, 16),
    ("dense_m2_n17", 2, 17),
    ("matched_pairs_n20", None, 20),
    ("dense_m2_n9", 2, 9),
    ("dense_m1_n10", 1, 10),
]
_INPUT_SEED = 20261019
# inputs whose fourth moment leaves the float range, every support value
# equal: (label, m, n, value, probs).  Each order-1 piece of the first is
# finite and their fold is not; the one table of the second overflows.
_OVERFLOWS = [
    ("overflow_m1_n3", 1, 3, 1e77, (0.5, 0.5, 0.5)),
    ("overflow_m2_n3", 2, 3, 1e154, (0.5, 0.3, 1e-6)),
]


def _file_args(label: str) -> list[str]:
    return ["--kernel", str(INPUTS / f"{label}.kernel.json"),
            "--model", str(INPUTS / f"{label}.model.json")]


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; a first element ending in ``.py`` names a script."""
    cases = {f"verify_seed{s}": ["--json", "verify", "--seed", str(s)] for s in (0, 3, 7)}
    for label, *_ in _SHAPES:
        files = _file_args(label)
        cases[f"bound_{label}"] = ["bound", "--distance", "both", "--json", *files]
        cases[f"distance_{label}"] = ["distance", "--json", *files]
        cases[f"moments_{label}"] = ["moments", "--json", "--engine", "both", *files]
        cases[f"dejong_{label}"] = ["dejong", "--json", *files]
    # dK alone, from the walk that forms no W1 segment
    cases["distance_kolmogorov_dense_m2_n17"] = [
        "distance", "--json", "--distance", "kolmogorov", *_file_args("dense_m2_n17")]
    cases["counterexample_inhomogeneous"] = [
        "--json", "counterexample", "--kind", "inhomogeneous", "-m", "3", "--sign", "-"]
    cases["counterexample_symmetric"] = [
        "--json", "counterexample", "--kind", "symmetric", "-m", "2", "-n", "16"]
    cases["counterexample_product"] = [
        "--json", "counterexample", "--kind", "product", "-m", "2", "-n", "6"]
    # a connected support past enum_cap: the refusal and its exit status
    cases["counterexample_product_n30"] = [
        "--json", "counterexample", "--kind", "product", "-m", "2", "-n", "30"]
    for label, *_ in _OVERFLOWS:
        cases[f"distance_{label}"] = ["distance", "--json", *_file_args(label)]
    for script in sorted((ROOT / "scripts").glob("*.py")):
        cases[f"script_{script.stem}"] = [script.name]
    return cases


CASES = _cases()

# report keys that carry W1, or a number computed from it.  Their bits
# follow the SIMD path numpy's ``exp`` dispatches to, so they are compared
# within W1_ULPS units in the last place of the larger of the field and
# the report's W1; every other byte must match.
W1_KEYS = {"wasserstein_distance", "exact_wasserstein"}
W1_REPORT_KEYS = {"exact_distance", "slack"}  # in a bound report of kind wasserstein
W1_ULPS = 64


def run_case(name: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one case."""
    argv = CASES[name]
    if argv[0].endswith(".py"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=300)
        return done.returncode, done.stdout, done.stderr
    from chaoslab import cli

    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_inputs() -> None:
    """Write each missing input pair; the ones on disk are kept."""
    from chaoslab import io
    from chaoslab.construct import matched_pairs_kernel
    from chaoslab.kernels import Kernel, random_kernel
    from chaoslab.model import RademacherModel

    INPUTS.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(_INPUT_SEED)
    pairs = {}
    for label, m, n in _SHAPES:
        if m is None:
            pairs[label] = matched_pairs_kernel(n)
        else:
            kern = random_kernel(m, n, rng, normalized=True)
            pairs[label] = kern, RademacherModel(tuple(float(p) for p in rng.uniform(0.2, 0.8, n)))
    for label, m, n, value, probs in _OVERFLOWS:
        coeffs = {s: value for s in combinations(range(n), m)}
        pairs[label] = Kernel(m, n, coeffs), RademacherModel(probs)
    for label, (kern, model) in pairs.items():
        kpath, mpath = INPUTS / f"{label}.kernel.json", INPUTS / f"{label}.model.json"
        if not (kpath.exists() and mpath.exists()):
            io.dump_json(io.kernel_to_dict(kern), kpath)
            io.dump_json(io.model_to_dict(model), mpath)


def main(names: list[str]) -> None:
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"unknown cases: {', '.join(sorted(unknown))}")
    _write_inputs()
    for name in names or CASES:
        code, out, err = run_case(name)
        (GOLDEN / f"{name}.out").write_text(out)
        err_path = GOLDEN / f"{name}.err"
        if code != 0 or err:
            err_path.write_text(f"exit {code}\n{err}")
        elif err_path.exists():
            err_path.unlink()
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
