"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from chaoslab import CapacityError, ChaosVector, RademacherModel, integral_table, random_kernel  # noqa: E402
from chaoslab import moments  # noqa: E402
from spans import Tracer  # noqa: E402


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_oracle_matches_enumeration():
    rng = __import__("numpy").random.default_rng(5)
    for m in (1, 2, 3):
        f = random_kernel(m, 8, rng, normalized=True, density=0.7)
        model = RademacherModel(tuple(float(p) for p in rng.uniform(0.1, 0.9, 8)))
        want = moments.moment(integral_table(f, model), 4, model)
        skew = dict(enumerate(model.skew.tolist()))
        got = workloads.oracle_fourth_moment(f.to_subset_coeffs(), skew)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_gate_counts_a_wrong_result_and_a_raise(tmp_path):
    good, perturbed, raising = workloads.build("sparse_moments", 3, tmp_path)[:3]
    outcomes = [
        good.run(),
        perturbed.run() * (1.0 + 1e-6),
        CapacityError("too big", "factorized_support_cap", 60, 61),
    ]
    sc = workloads.score([good, perturbed, raising], outcomes)
    assert (sc.attempted, sc.failed) == (3, 2)
    assert [f["task"] for f in sc.failures] == [perturbed.name, raising.name]
    assert "CapacityError" in sc.failures[1]["reasons"][0]


def test_exact_law_gate_reads_the_cli_report(tmp_path):
    task = workloads.build("exact_law", 1, tmp_path)[-1]  # matched pairs, the cheapest
    code, text = task.run()
    assert task.check((code, text)) == []
    bad = re.sub(r'"variance": [^,\n]+', '"variance": 0.5', text, count=1)
    assert any("variance" in r for r in task.check((code, bad)))
    assert task.check((1, text)) == ["CLI exit code 1"]


def test_verify_sweep_draws_fresh_seeds_per_batch(tmp_path):
    (task,) = workloads.build("verify_suite", 7, tmp_path)
    seeds = [list(workloads.suite_seeds(7, b)) for b in range(3)]
    assert len({s for batch in seeds for s in batch}) == 3 * workloads.SUITE_SEEDS_PER_BATCH
    assert [c.keywords["seed"] for c in task.calls(1)] == seeds[1]
    assert workloads.build("verify_suite", 7, tmp_path)[0].calls(1)[0].keywords == task.calls(1)[0].keywords


def test_host_scale_cancels_a_uniform_slowdown():
    calls = [([0.002, 0.002], 1.0), ([0.002], 0.5)]
    slow = [([2 * p for p in burst], 2 * t) for burst, t in calls]
    fast_s = sum(t for _, t in calls) * run.host_scale(calls)
    assert math.isclose(sum(t for _, t in slow) * run.host_scale(slow), fast_s)
    assert math.isclose(run.host_scale(calls), run.PROBE_REF_S / 0.002)


def test_tracer_nests_spans_and_restores_functions():
    from chaoslab import malliavin

    original = moments.var_gamma_normalized
    F = ChaosVector.from_kernel(random_kernel(2, 6, 1, normalized=True))
    with Tracer() as tracer:
        assert moments.gamma is malliavin.gamma and hasattr(moments.gamma, "__wrapped__")
        moments.var_gamma_normalized(F, RademacherModel.symmetric(6))
    assert moments.var_gamma_normalized is original
    summary = tracer.summary()
    top = summary["moments.var_gamma_normalized"]
    assert top["calls"] == 1 and 0.0 <= top["self_s"] < top["s"]
    assert summary["malliavin.gamma"]["calls"] == 1
    assert summary["chaos.integral_table"]["calls"] >= 1
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["moments.var_gamma_normalized"]


def _traced_counts(seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_suite", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_work_counts_repeat_across_traced_runs():
    first, second = _traced_counts(4), _traced_counts(4)
    assert first == second
    assert first["chaos.table_cells"] > 0 and first["moments.fourth_moment_symmetric.pairs"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_sources(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_law", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
