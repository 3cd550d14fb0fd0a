"""The four benchmark workloads: seeded inputs, tasks and the correctness gate.

Every workload is a fixed list of tasks.  A task is one call into the
library made the way a user would make it (the CLI for ``exact_law``,
the public Python functions for the others).  Inputs are generated here
from the workload seed; the library only ever sees the generated inputs.

Each task carries a ``check`` that inspects its output and returns the
reasons it is wrong (an empty list when it is right).  Checks run after
the timed phase; the expensive references they need (the independent
fourth-moment oracle, the Hoeffding reconstruction) are computed once per
process and reused for every repetition.
"""

from __future__ import annotations

import contextlib
import functools
import io as _stdio
import json
import math
import zlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np

import chaoslab
from chaoslab import bounds, chaos, cli, construct, kernels, moments, verify
from chaoslab.chaos import ChaosVector
from chaoslab.combinat import gamma_m
from chaoslab.kernels import Kernel, random_kernel
from chaoslab.model import RademacherModel

NAMES = ("exact_law", "operators", "sparse_moments", "verify_suite")


@dataclass
class Task:
    name: str
    point: dict[str, int]  # the (n, m, S) cost point of the call
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # whether the call builds 2**n tables; horizon-free engines do not
    tabulates: bool = True
    # a task that sweeps fresh inputs in every batch: the calls of batch b;
    # the task's output is then the list of their outputs
    sweep: Callable[[int], list[Callable[[], Any]]] | None = None

    def calls(self, batch: int) -> list[Callable[[], Any]]:
        return [self.run] if self.sweep is None else self.sweep(batch)

    def result(self, outputs: list[Any]) -> Any:
        return outputs[0] if self.sweep is None else outputs


def build(name: str, seed: int, workdir: Path) -> list[Task]:
    """Generate the seeded inputs of one workload (this is ``setup_s``).

    Input files are written to ``workdir``, which the caller removes.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    make = {
        "exact_law": _exact_law,
        "operators": _operators,
        "sparse_moments": _sparse_moments,
        "verify_suite": _verify_suite,
    }[name]
    return make(seed, rng, workdir)


@dataclass
class Score:
    attempted: int
    failed: int
    failures: list[dict]


def score(tasks: list[Task], outcomes: list[Any]) -> Score:
    """Gate one batch: a task fails if it raised or its output is wrong."""
    failures = []
    for task, out in zip(tasks, outcomes, strict=True):
        if isinstance(out, BaseException):
            reasons = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                reasons = task.check(out)
            except Exception as exc:  # a malformed output must fail, not crash the run
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if reasons:
            failures.append({"task": task.name, "reasons": reasons})
    return Score(len(tasks), len(failures), failures)


def _probs(rng, n: int) -> tuple[float, ...]:
    return tuple(float(p) for p in rng.uniform(0.2, 0.8, n))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- exact_law: CLI `bound` on n = 16, 17 and 20 kernels ----------------------


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


def _kernel_record(kern: Kernel) -> dict:
    entries = [{"set": list(k), "value": v} for k, v in sorted(kern.coeffs.items())]
    return {"m": kern.order, "n": kern.horizon, "entries": entries}


def _parse_reports(text: str) -> dict[str, dict]:
    decoder = json.JSONDecoder()
    reports, pos = {}, 0
    text = text.strip()
    while pos < len(text):
        rep, pos = decoder.raw_decode(text, pos)
        reports[rep["kind"]] = rep
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return reports


def _check_bound(out, fourth_target: float | None) -> list[str]:
    code, text = out
    bad = []
    if code != 0:
        bad.append(f"CLI exit code {code}")
    reports = _parse_reports(text)
    if set(reports) != {"wasserstein", "kolmogorov"}:
        return bad + [f"expected both reports, got {sorted(reports)}"]
    for kind, rep in reports.items():
        if not rep["slack"] >= 0.0:
            bad.append(f"{kind} slack {rep['slack']} < 0")
        if not abs(rep["variance"] - 1.0) <= 1e-6:
            bad.append(f"{kind} variance {rep['variance']} is not 1")
        if fourth_target is not None and not abs(rep["fourth_moment"] - fourth_target) <= 1e-9:
            bad.append(f"{kind} fourth moment {rep['fourth_moment']} != {fourth_target}")
    w1 = reports["wasserstein"]["exact_distance"]
    dk = reports["kolmogorov"]["exact_distance"]
    if not w1 >= 0.0:
        bad.append(f"W1 {w1} < 0")
    if not 0.0 <= dk <= 1.0:
        bad.append(f"dK {dk} outside [0, 1]")
    return bad


def _exact_law(seed, rng, workdir: Path) -> list[Task]:
    matched, matched_model = construct.matched_pairs_kernel(20)
    cases = [
        ("dense_m3_n16", random_kernel(3, 16, rng, normalized=True), {"probs": _probs(rng, 16)}, None),
        ("dense_m2_n17", random_kernel(2, 17, rng, normalized=True), {"probs": _probs(rng, 17)}, None),
        ("matched_pairs_n20", matched, {"homogeneous": 0.5, "n": matched_model.n}, 3.0 - 4.0 / 20),
    ]
    tasks = []
    for label, kern, model_rec, fourth in cases:
        kpath = _write_json(workdir / f"{label}.kernel.json", _kernel_record(kern))
        mpath = _write_json(workdir / f"{label}.model.json", model_rec)
        argv = ["bound", "--distance", "both", "--json", "--kernel", str(kpath), "--model", str(mpath)]

        def run(argv=argv):
            buf = _stdio.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_stdio.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()

        tasks.append(
            Task(
                f"bound_{label}",
                {"n": kern.horizon, "m": kern.order, "S": len(kern.coeffs)},
                run,
                functools.partial(_check_bound, fourth_target=fourth),
            )
        )
    return tasks


# -- operators: Malliavin, field-variance and Hoeffding chain ---------------------


def _operators(seed, rng, workdir) -> list[Task]:
    tasks = []
    for m, n in [(2, 12), (3, 12), (3, 11)]:
        f = random_kernel(m, n, rng, normalized=True)
        probs = _probs(rng, n)
        point = {"n": n, "m": m, "S": len(f.coeffs)}
        F = ChaosVector.from_kernel(f)

        def call(name, module, F=F, probs=probs):
            # look the function up at call time, so a traced run sees its shim
            return lambda: getattr(module, name)(F, RademacherModel(probs))

        def indicator(F=F, probs=probs):
            model = RademacherModel(probs)
            return moments.kolmogorov_term(F, model), moments.kolmogorov_term_bound(F, model)

        tag = f"m{m}_n{n}"
        tasks += [
            Task(f"abstract_bounds_{tag}", point, call("abstract_bounds", bounds), _check_abstract),
            Task(f"var_gamma_{tag}", point, call("var_gamma_normalized", moments), _check_var_gamma),
            Task(f"quartic_gradient_{tag}", point, call("quartic_gradient_identity", moments), _check_quartic),
            Task(f"kolmogorov_term_{tag}", point, indicator, _check_indicator),
        ]
    for m, n in [(2, 9), (1, 10)]:
        f = random_kernel(m, n, rng, normalized=True)
        probs = _probs(rng, n)

        def dejong(f=f, probs=probs):
            model = RademacherModel(probs)
            W = chaos.integral_table(f, model)
            return W, bounds.dejong_bound(W, model)

        tasks.append(
            Task(
                f"dejong_m{m}_n{n}",
                {"n": n, "m": m, "S": len(f.coeffs)},
                dejong,
                functools.partial(_check_dejong, _hoeffding_reference(f, probs), m),
            )
        )
    return tasks


def _check_abstract(ab: dict) -> list[str]:
    bad = [f"{k} = {v} is not finite" for k, v in ab.items() if not math.isfinite(v)]
    if not ab["kolmogorov_line1"] <= ab["kolmogorov_line2"]:
        bad.append("kolmogorov bound lines out of order")
    if not ab["wasserstein_line1"] <= ab["wasserstein_line2"]:
        bad.append("wasserstein bound lines out of order")
    if not ab["indicator_sup"] >= 0.0:
        bad.append("indicator sup is negative")
    return bad


def _check_var_gamma(vg) -> list[str]:
    bad = []
    if not abs(vg.value - vg.spectral) / (1.0 + vg.value) <= 1e-10:
        bad.append(f"field variance pathwise {vg.value} != spectral {vg.spectral}")
    if not vg.value - vg.upper_bound <= 1e-10:
        bad.append(f"field variance {vg.value} above its bound {vg.upper_bound}")
    return bad


def _check_quartic(sides) -> list[str]:
    lhs, rhs = sides
    if abs(lhs - rhs) / (1.0 + abs(lhs)) <= 1e-9:
        return []
    return [f"quartic gradient identity {lhs} != {rhs}"]


def _check_indicator(pair) -> list[str]:
    term, bound = pair
    if -1e-10 <= term <= bound + 1e-10:
        return []
    return [f"indicator term {term} outside [0, {bound}]"]


def _hoeffding_reference(f: Kernel, probs) -> Callable[[], tuple[np.ndarray, float]]:
    @functools.cache
    def reference():
        model = RademacherModel(probs)
        W = chaos.integral_table(f, model)
        H = bounds.hoeffding_decompose(W, model)
        gap = float(np.abs(H.reconstruct().values - W.values).max())
        return W.values, gap

    return reference


def _check_dejong(reference, m: int, out) -> list[str]:
    W, rep = out
    want, gap = reference()
    bad = []
    if not np.array_equal(W.values, want):
        bad.append("integral table differs from the reference table")
    if not gap <= 1e-9:
        bad.append(f"Hoeffding components miss W by {gap}")
    if rep.order != m:
        bad.append(f"degenerate order {rep.order}, expected {m}")
    if not abs(rep.variance - 1.0) <= 1e-6:
        bad.append(f"variance {rep.variance} is not 1")
    if not (math.isfinite(rep.bound_value) and rep.bound_value >= 0.0):
        bad.append(f"bound value {rep.bound_value}")
    return bad


# -- sparse_moments: horizon-free engines ----------------------------------------


def oracle_fourth_moment(coeffs: dict[tuple[int, ...], float], skew: dict[int, float]) -> float:
    """E[F^4] = ||F^2||^2 for F = sum_J c_J Y_J, from the product formula.

    Y_I Y_J = Y_{I xor J} prod_{k in I and J} Y_k^2 and Y_k^2 = 1 + skew_k Y_k,
    so F^2 = sum_U g_U Y_U with every U a disjoint union (I xor J) | T,
    T a subset of I and J weighted by prod_{k in T} skew_k.  Orthonormality
    of {Y_U} gives E[F^4] = sum_U g_U^2.  Coordinates must lie in 0..62.
    """
    keys = list(coeffs)
    masks = np.array([sum(1 << i for i in k) for k in keys], dtype=np.int64)
    vals = np.array([coeffs[k] for k in keys], dtype=float)
    xor = (masks[:, None] ^ masks[None, :]).ravel()
    both = (masks[:, None] & masks[None, :]).ravel()
    weight = np.outer(vals, vals).ravel()
    out_keys, out_w = [xor], [weight]
    if any(skew.get(i, 0.0) != 0.0 for k in keys for i in k):
        s_of_bit = np.zeros(63)
        for i, s in skew.items():
            s_of_bit[i] = s
        bits = []  # the set bits of `both`, at most max |J| per pair
        rest = both.copy()
        while rest.any():
            low = rest & -rest
            bits.append(low)
            rest ^= low
        for size in range(1, len(bits) + 1):
            for combo in combinations(bits, size):
                present = np.all([b != 0 for b in combo], axis=0)
                t_mask = np.bitwise_or.reduce(combo)
                s = np.ones(len(both))
                for b in combo:
                    s *= s_of_bit[np.log2(np.where(b == 0, 1, b)).astype(int)]
                keep = present & (s != 0.0)
                out_keys.append((xor | t_mask)[keep])
                out_w.append((weight * s)[keep])
    key = np.concatenate(out_keys)
    w = np.concatenate(out_w)
    _, inverse = np.unique(key, return_inverse=True)
    g = np.bincount(inverse.ravel(), weights=w)
    return math.fsum(g * g)


def _random_support(rng, m: int, n: int, S: int) -> dict[tuple[int, ...], float]:
    pool = list(combinations(range(n), m))
    pick = rng.choice(len(pool), size=S, replace=False)
    return {pool[int(i)]: float(rng.standard_normal()) for i in sorted(pick)}


def _check_against(reference: Callable[[], float], value) -> list[str]:
    want = reference()
    if _rel(value, want) <= 1e-9:
        return []
    return [f"fourth moment {value} != oracle {want}"]


def _check_defect(f: Kernel, defect: float) -> list[str]:
    lim = gamma_m(f.order) * f.norm_sq() * math.factorial(f.order) * f.sup_influence()
    if -1e-10 <= defect <= lim + 1e-10 * (1.0 + lim):
        return []
    return [f"off-diagonal defect {defect} outside [0, {lim}]"]


def _check_residual(f: Kernel, resid: float) -> list[str]:
    if resid >= -1e-10 * (1.0 + 2.0 * f.norm_sq() ** 2):
        return []
    return [f"tensor square residual {resid} < 0"]


def _check_counterexample(out) -> list[str]:
    kern, trace = out
    bad = []
    if not abs(trace.residual) <= 1e-12:
        bad.append(f"bisection residual {trace.residual}")
    fourth = oracle_fourth_moment(kern.to_subset_coeffs(), {})
    if not _rel(fourth, 3.0) <= 1e-9:
        bad.append(f"counterexample fourth moment {fourth} != 3")
    return bad


def _sparse_moments(seed, rng, workdir) -> list[Task]:
    tasks = []
    S = 2 * chaoslab.DEFAULT_CAPS.factorized_support_cap // 3
    for m, n in [(1, 60), (2, 40), (3, 30)]:
        coeffs = _random_support(rng, m, n, S)
        probs = _probs(rng, n)
        skew = dict(enumerate(RademacherModel(probs).skew.tolist()))
        tasks.append(
            Task(
                f"factorized_m{m}_n{n}",
                {"n": n, "m": m, "S": S},
                lambda c=coeffs, p=probs: moments.fourth_moment_factorized(c, RademacherModel(p)),
                functools.partial(_check_against, functools.cache(lambda c=coeffs, s=skew: oracle_fourth_moment(c, s))),
                tabulates=False,
            )
        )
    for m, n in [(2, 60), (3, 40)]:
        coeffs = _random_support(rng, m, n, 500)
        tasks.append(
            Task(
                f"symmetric_m{m}_n{n}",
                {"n": n, "m": m, "S": 500},
                lambda c=coeffs: moments.fourth_moment_symmetric(c),
                functools.partial(_check_against, functools.cache(lambda c=coeffs: oracle_fourth_moment(c, {}))),
                tabulates=False,
            )
        )
    f = Kernel(3, 20, _random_support(rng, 3, 20, 120))
    tasks.append(
        Task("off_diagonal_defect_m3_n20", {"n": 20, "m": 3, "S": 120},
             lambda: kernels.off_diagonal_defect(f), functools.partial(_check_defect, f), tabulates=False)
    )
    g = Kernel(2, 40, _random_support(rng, 2, 40, 150))
    tasks.append(
        Task("tensor_square_residual_m2_n40", {"n": 40, "m": 2, "S": 150},
             lambda: kernels.tensor_square_residual(g), functools.partial(_check_residual, g), tabulates=False)
    )
    tasks.append(
        Task("symmetric_counterexample_m2_n16", {"n": 16, "m": 2, "S": math.comb(16, 2)},
             lambda: construct.symmetric_counterexample(2, 16), _check_counterexample, tabulates=False)
    )
    return tasks


# -- verify_suite: the seeded identity suite ----------------------------------------


def _check_suite(want: int, reports) -> list[str]:
    bad = []
    for results in reports:
        bad += [f"check {r.name} failed: residual {r.residual} > {r.threshold}" for r in results if not r.passed]
        if len(results) != want:
            bad.append(f"{len(results)} results for {want} checks")
    return bad


# dual_engine draws supports whose O(S**4) factorized expansion costs from 0.05
# to 1.5 s by seed; that engine is timed on fixed sizes in sparse_moments.
SUITE_CHECKS = [c.name for c in verify.CHECKS if c.name != "dual_engine"]


SUITE_SEEDS_PER_BATCH = 4


def suite_seeds(seed: int, batch: int) -> range:
    """The verify-suite seeds of one batch: every batch draws new ones."""
    start = 1000 * seed + SUITE_SEEDS_PER_BATCH * batch
    return range(start, start + SUITE_SEEDS_PER_BATCH)


def _verify_suite(seed, rng, workdir) -> list[Task]:
    # A suite run's cost varies by 15% with the instances its seed draws.
    # So the one task sweeps new seeds in every batch, and the mean over
    # batches averages that out instead of following the workload seed.
    def sweep(batch):
        return [functools.partial(verify.run_suite, seed=s, names=SUITE_CHECKS) for s in suite_seeds(seed, batch)]

    # the suite draws instances with n <= 10, so no task builds a large table
    return [
        Task(f"run_suite_{SUITE_SEEDS_PER_BATCH}_seeds", {"n": 10, "m": 3, "S": math.comb(10, 3)},
             lambda: [c() for c in sweep(0)], functools.partial(_check_suite, len(SUITE_CHECKS)),
             sweep=sweep)
    ]
