"""chaoslab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact_law --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Workloads run in this process as a closed loop with
one client: each task starts when the previous one ends.  After a short
warm-up, the batch of tasks repeats until ``--seconds`` have passed.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``:

* ``--trace 0``: end-to-end metrics, tracing off.  ``setup_s`` is the
  median over several fresh interpreters of importing chaoslab and
  generating the inputs; ``wall_s`` and ``task_max_s`` are means over the
  timed batches.  All three are in seconds at a reference host speed
  (see ``host_probe``).  ``peak_rss_mb`` is this process's peak resident
  set; ``pass_ratio`` is the share of tasks that neither raised nor
  failed the correctness gate.
* ``--trace 1``: per-layer metrics from one untraced and one traced batch
  (see ``spans.py``), plus the verify pool accounting.

A run record with the environment, every task's cost point and the
unscaled timings goes to ``.perfbench/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 4
POOL_THREADS = len(os.sched_getaffinity(0))
SETUP_HOST_PROBES = 15
# nominal host-probe time: timings are reported in seconds of a host on
# which one probe takes this long (about this machine's unloaded speed)
PROBE_REF_S = 0.003
PROBE_SHARE = 0.05
WARMUP_S = 2.5
VERIFY_TIMED_CHECKS = (
    "dual_engine", "bound_validity", "empirical_distance",
    "squared_field_variance", "off_diagonal_defect", "hoeffding",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = []

    def timed(prefix, *names, calls=False):
        for n in names:
            rows.append((f"{prefix}.{n}.self_s", "s", "lower"))
            if calls:
                rows.append((f"{prefix}.{n}.calls", "count", "lower"))

    def count(*names):
        rows.extend((n, "count", "lower") for n in names)

    timed("chaos", "integral_table", calls=True)
    timed("chaos", "to_table")
    count("chaos.table_cells")
    timed("chaos", "stroock_decompose", "basis_coefficients", "multiply",
          "conditional_expectation", calls=True)
    timed("model", "weights")
    timed("distance", "exact_distribution", "kolmogorov_to_normal", "wasserstein_to_normal")
    count("distance.exact_distribution.values_in", "distance.atoms_out")
    timed("malliavin", "gamma", "gamma0", "ou_generator_pathwise", "d", calls=True)
    timed("moments", "moment", calls=True)
    timed("moments", "var_gamma_normalized", "quartic_gradient_identity", "sup_flip_pairing")
    timed("moments", "fourth_moment_factorized", calls=True)
    count("moments.fourth_moment_factorized.pair_checks")
    timed("moments", "fourth_moment_symmetric", calls=True)
    count("moments.fourth_moment_symmetric.pairs")
    timed("bounds", "theorem_bound_wasserstein", "theorem_bound_kolmogorov", "abstract_bounds",
          "hoeffding_decompose", "rho_squared", "dejong_bound")
    count("bounds.hoeffding_decompose.components")
    timed("kernels", "symmetrized_tensor", calls=True)
    count("kernels.symmetrized_tensor.candidates")
    timed("construct", "symmetric_counterexample")
    count("construct.g_value.calls")
    timed("io", "load")
    timed("cli", "main")
    rows.append(("verify.checks_serial_s", "s", "lower"))
    rows.append(("verify.pool_speedup", "ratio", "higher"))
    rows.extend((f"verify.check.{n}.s", "s", "lower") for n in VERIFY_TIMED_CHECKS)
    from spans import LAYERS

    count(*(f"{layer}.errors" for layer in LAYERS))
    rows.append(("trace.overhead_s", "s", "lower"))
    rows.append(("trace.span_coverage", "ratio", "higher"))
    return tuple(rows)


PER_LAYER = _per_layer()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _environment() -> None:
    """Pin thread counts before numpy loads: one compute thread.

    The timed batches run the verify suite serially.  Its thread pool
    (``POOL_THREADS``, one thread per core) is timed once in a traced
    run: on two cores its threads contend for the interpreter lock, and
    each gets a malloc arena of its own, so its time and peak resident
    set vary by 15% between runs of one seed.
    """
    os.environ["CHAOSLAB_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _build(args, workdir: Path):
    """Import chaoslab from the checkout and generate the workload's inputs."""
    t0 = time.perf_counter()
    import chaoslab
    import workloads

    tasks = workloads.build(args.workload, args.seed, workdir)
    elapsed = time.perf_counter() - t0
    if SRC not in Path(chaoslab.__file__).resolve().parents:
        raise SystemExit(f"chaoslab was imported from {chaoslab.__file__}, not {SRC}")
    return tasks, elapsed


def host_probe() -> float:
    """Time one fixed piece of interpreter and numpy work, independent of chaoslab.

    The machine's CPU speed drifts with its host's load, by up to 1.6x
    within a minute.  Probes run between the calls of a run, for a fixed
    share of each call's time, so the probes and the calls live through
    the same drift.  Every timing of a run is divided by the mean probe
    of the same run: the drift cancels, while any change in chaoslab's
    own cost shows in full.
    """
    import numpy as np

    data = _probe_data()
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.cumsum(np.sort(data) * data)
    return time.perf_counter() - t0


@functools.cache
def _probe_data():
    import numpy as np

    return np.random.default_rng(0).standard_normal(1 << 17)


def host_scale(probes) -> float:
    """Factor turning this host's seconds into seconds at the reference speed."""
    return PROBE_REF_S / statistics.fmean(p for burst, _ in probes for p in burst)


def _probe_setup(args) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    return rec["setup_s"], rec["probe_s"]


def _setup_probe_s() -> float:
    """Mean host probe right after a set-up, in the same interpreter."""
    return statistics.fmean(host_probe() for _ in range(SETUP_HOST_PROBES))


def run_batch(tasks, batch: int = 0, probes=None, estimates=None, deadline=None):
    """Run every task once, in order; returns (wall, per-task times, outcomes).

    With ``probes``, host probes run before each call (outside its time)
    for about PROBE_SHARE of the call's expected time, taken from
    ``estimates`` (seconds per call of each task, updated here), so the
    probes sample the host's speed evenly over the run.  Each call appends
    ``(its probe times, its own time)`` to ``probes``.  With a
    ``deadline`` the batch stops after the call that passes it.
    """
    times, outcomes = [], []
    for i, task in enumerate(tasks):
        calls = task.calls(batch)
        spent, outputs = 0.0, []
        for call in calls:
            if probes is not None:
                burst = max(1, round(PROBE_SHARE * estimates.get(i, 0.0) / PROBE_REF_S))
                burst = [host_probe() for _ in range(burst)]
            t0 = time.perf_counter()
            try:
                outputs.append(call())
            except Exception as exc:  # a failed call is recorded, and the loop goes on
                outputs.append(exc)
            took = time.perf_counter() - t0
            spent += took
            if probes is not None:
                probes.append((burst, took))
            if deadline is not None and time.perf_counter() >= deadline:
                break
        if estimates is not None:
            estimates[i] = spent / len(outputs)
        times.append(spent)
        fails = [o for o in outputs if isinstance(o, BaseException)]
        outcomes.append(fails[0] if fails else task.result(outputs))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return sum(times), times, outcomes


def _batches(tasks, seconds: float, probes: list) -> list:
    """Warm up for about WARMUP_S, then run timed batches for about
    ``seconds`` in all: another batch starts only if it is expected to end
    less than half a batch past the deadline.  The warm-up is batch 0,
    possibly cut short; the timed batches are numbered from 1."""
    start = time.perf_counter()
    estimates: dict[int, float] = {}
    gc.collect()
    warm = run_batch(tasks, 0, estimates=estimates, deadline=start + WARMUP_S)
    timed = []
    while True:
        gc.collect()
        timed.append(run_batch(tasks, len(timed) + 1, probes, estimates))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * sum(b[0] for b in timed) / len(timed) >= seconds:
            return warm, timed


def _gate(tasks, batches):
    import workloads

    attempted = failed = 0
    failures = []
    for i, (_, _, outcomes) in enumerate(batches):
        sc = workloads.score(tasks[: len(outcomes)], outcomes)
        attempted += sc.attempted
        failed += sc.failed
        failures += [dict(f, batch=i) for f in sc.failures]
    return attempted, failed, failures


def _untraced(args, tasks, setup_samples):
    probes: list[float] = []
    warm, timed = _batches(tasks, args.seconds, probes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failures = _gate(tasks, [warm, *timed])  # the warm-up is gated, not timed
    scale = host_scale(probes)
    per_task = [statistics.fmean(b[1][i] for b in timed) for i in range(len(tasks))]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "wall_s": statistics.fmean(b[0] for b in timed),
        "task_max_s": max(per_task),
    }
    metrics = {
        "setup_s": statistics.median(s * PROBE_REF_S / p for s, p in setup_samples),
        "wall_s": raw["wall_s"] * scale,
        "task_max_s": raw["task_max_s"] * scale,
        "peak_rss_mb": peak_mb,
        "pass_ratio": 1.0 - failed / attempted,
    }
    detail = {
        "host_scale": scale,
        "host_probes_and_call_s": probes,
        "unscaled": raw,
        "batch_wall_s": [b[0] for b in timed],
        "task_s": {t.name: [b[1][i] for b in timed] for i, t in enumerate(tasks)},
        "failures": failures,
    }
    return attempted, failed, metrics, detail


def _serial_checks(seeds) -> dict[str, float]:
    """Each verify check run one after another, untraced, summed over seeds."""
    from chaoslab import verify

    per_check: dict[str, float] = {}
    for seed in seeds:
        for check in verify.CHECKS:
            t0 = time.perf_counter()
            check.run(seed, verify.DEFAULT_CAPS)
            per_check[check.name] = per_check.get(check.name, 0.0) + time.perf_counter() - t0
    return per_check


def _pooled_suite(seed: int) -> float:
    """Time of the suite seeds of one batch with the verify thread pool on."""
    import workloads
    from chaoslab import verify

    os.environ["CHAOSLAB_THREADS"] = str(POOL_THREADS)
    try:
        t0 = time.perf_counter()
        for s in workloads.suite_seeds(seed, 0):
            verify.run_suite(seed=s, names=workloads.SUITE_CHECKS)
        return time.perf_counter() - t0
    finally:
        os.environ["CHAOSLAB_THREADS"] = "1"


def _traced(args, tasks):
    import workloads
    from spans import Tracer

    gc.collect()
    plain = run_batch(tasks)
    extras = {"verify.checks_serial_s": 0.0, "verify.pool_speedup": 0.0}
    extras.update({f"verify.check.{n}.s": 0.0 for n in VERIFY_TIMED_CHECKS})
    if args.workload == "verify_suite":
        per_check = _serial_checks(workloads.suite_seeds(args.seed, 0))
        serial = sum(per_check[n] for n in workloads.SUITE_CHECKS)
        extras["verify.checks_serial_s"] = serial
        extras["verify.pool_speedup"] = serial / _pooled_suite(args.seed)
        extras.update({f"verify.check.{n}.s": per_check[n] for n in VERIFY_TIMED_CHECKS})
    gc.collect()
    with Tracer() as tracer:
        traced = run_batch(tasks)
    tracer.finish_counts()
    extras["trace.overhead_s"] = traced[0] - plain[0]
    extras["trace.span_coverage"] = tracer.root_coverage() / traced[0]
    attempted, failed, failures = _gate(tasks, [plain, traced])

    summary = tracer.summary()

    def value(name: str) -> float:
        if name in extras:
            return extras[name]
        base, _, field = name.rpartition(".")
        if field in ("self_s", "calls") and base in summary:
            return summary[base][field]
        if field == "errors":
            return tracer.errors.get(base, 0)
        return tracer.counts.get(name, 0)

    metrics = {name: value(name) for name, _, _ in PER_LAYER}
    detail = {
        "untraced_wall_s": plain[0],
        "traced_wall_s": traced[0],
        "spans": summary,
        "counts": dict(tracer.counts),
        "failures": failures,
    }
    return attempted, failed, metrics, detail


def _llc_bytes() -> int | None:
    """Largest cache size of cpu0, read from sysfs (None where unavailable)."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            text = (index / "size").read_text().strip()
            size = int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20}[text[-1]] if text[-1] in "KM" else int(text)
            best = size if best is None else max(best, size)
    except (OSError, ValueError):
        return None
    return best


def _record(args, tasks, attempted, failed, metrics, detail, setup_samples) -> None:
    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "CHAOSLAB_THREADS": os.environ.get("CHAOSLAB_THREADS"),
            "verify_pool_threads": POOL_THREADS,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "last_level_cache_bytes": _llc_bytes(),
        },
        "tasks": [
            {
                "name": t.name,
                **t.point,
                # computed from n, not measured: the size of one 2**n float64 table
                "table_bytes_computed": 8 * 2 ** t.point["n"],
                "table_materialized": t.tabulates,
            }
            for t in tasks
        ],
        "setup_s_samples": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "detail": detail,
    }
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "chaoslab" / "__init__.py").is_file():
        print(f"no chaoslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    _environment()
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, elapsed = _build(args, workdir)
            print(json.dumps({"setup_s": elapsed, "probe_s": _setup_probe_s()}))
            return 0
        setup_samples = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
        tasks, elapsed = _build(args, workdir)
        setup_samples.append((elapsed, _setup_probe_s()))
        if args.trace:
            attempted, failed, values, detail = _traced(args, tasks)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            attempted, failed, values, detail = _untraced(args, tasks, setup_samples)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _record(args, tasks, attempted, failed, values, detail, setup_samples)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
