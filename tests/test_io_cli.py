import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from chaoslab import Kernel, RademacherModel, integral_table, random_kernel, variance
from chaoslab import cli, io
from chaoslab.construct import matched_pairs_kernel, product_chaos_sequence
from chaoslab.distance import (
    exact_distribution,
    integral_law,
    kolmogorov_to_normal,
    normal_distances,
    wasserstein_to_normal,
)
from chaoslab.moments import even_moments, moment
from chaoslab.errors import FormatError
from chaoslab.kernels import SupportPlan
from chaoslab.model import PROB_FLOOR
from conftest import random_model


@pytest.fixture
def fair_pair(tmp_path, rng):
    f = random_kernel(2, 5, rng, normalized=True)
    model = RademacherModel.symmetric(5)
    kpath = tmp_path / "kernel.json"
    mpath = tmp_path / "model.json"
    io.dump_json(io.kernel_to_dict(f), kpath)
    io.dump_json(io.model_to_dict(model), mpath)
    return str(kpath), str(mpath), f, model


class TestFileFormats:
    def test_kernel_round_trip(self, tmp_path, rng):
        f = random_kernel(3, 7, rng)
        path = tmp_path / "k.json"
        io.dump_json(io.kernel_to_dict(f), path)
        back = io.load_kernel(path)
        assert back.order == 3 and back.horizon == 7
        assert back.coeffs == f.coeffs

    def test_model_round_trip(self, tmp_path):
        m = RademacherModel((0.2, 0.5, 0.9))
        path = tmp_path / "m.json"
        io.dump_json(io.model_to_dict(m), path)
        assert io.load_model(path).probs == m.probs

    def test_homogeneous_shorthand(self, tmp_path):
        path = tmp_path / "m.json"
        io.dump_json({"homogeneous": 0.3, "n": 4}, path)
        m = io.load_model(path)
        assert m.probs == (0.3, 0.3, 0.3, 0.3)

    def test_malformed_entry_named(self, tmp_path):
        path = tmp_path / "k.json"
        io.dump_json(
            {"m": 2, "n": 4, "entries": [{"set": [0, 1], "value": 1.0},
                                         {"set": [1], "value": 2.0}]},
            path,
        )
        with pytest.raises(FormatError):
            io.load_kernel(path)

    def test_duplicate_subset_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        io.dump_json(
            {"m": 1, "n": 3, "entries": [{"set": [0], "value": 1.0},
                                         {"set": [0], "value": 2.0}]},
            path,
        )
        with pytest.raises(FormatError, match="entry 1"):
            io.load_kernel(path)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"m": 2.9, "n": 4.5, "entries": [{"set": [0.9, 2.2], "value": 1.0}]}, "'m'"),
            ({"m": 2, "n": 4.5, "entries": []}, "'n'"),
            ({"m": True, "n": 4, "entries": []}, "'m'"),
            ({"m": 2, "n": 4, "entries": [{"set": [0.9, 2.2], "value": 1.0}]}, "entry 0 'set'"),
            ({"m": 2, "n": 4, "entries": [{"set": [True, 2], "value": 1.0}]}, "entry 0 'set'"),
            ({"m": 2, "n": 4, "entries": [{"set": [0, 2], "value": "0.5"}]}, "entry 0 'value'"),
            ({"m": 2, "n": 4, "entries": [{"set": [0, 2], "value": True}]}, "entry 0 'value'"),
        ],
    )
    def test_kernel_fields_are_not_coerced(self, tmp_path, record, field):
        # int() truncated 2.9 to 2 and read true as 1; float() parsed "0.5"
        path = tmp_path / "k.json"
        io.dump_json(record, path)
        with pytest.raises(FormatError, match=re.escape(field)):
            io.load_kernel(path)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"homogeneous": 0.5, "n": 3.7}, "'n'"),
            ({"homogeneous": 0.5, "n": True}, "'n'"),
            ({"homogeneous": "0.5", "n": 3}, "'homogeneous'"),
            ({"probs": [0.5, "0.3"]}, "'probs' entry"),
            ({"probs": [0.5, False]}, "'probs' entry"),
        ],
    )
    def test_model_fields_are_not_coerced(self, tmp_path, record, field):
        path = tmp_path / "m.json"
        io.dump_json(record, path)
        with pytest.raises(FormatError, match=re.escape(field)):
            io.load_model(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"set": [0.9, 2], "value": 1.0}, "entry 0 'set': subset (0.9, 2)"),
            ({"set": [0, 2], "value": "0.5"}, "entry 0 'value': coefficient of (0, 2) is '0.5'"),
            ({"set": [0, 4], "value": 1.0}, "entry 0 'set': subset (0, 4) out of range"),
            ({"set": [0, 2], "value": 10**400}, "entry 0 'value': coefficient of (0, 2) is inf"),
        ],
    )
    def test_kernel_entry_errors_name_the_key(self, tmp_path, entry, message):
        path = tmp_path / "k.json"
        io.dump_json({"m": 2, "n": 4, "entries": [entry]}, path)
        with pytest.raises(FormatError, match=re.escape(message)):
            io.load_kernel(path)

    @pytest.mark.parametrize(
        "which, record",
        [
            ("model", 5),
            ("model", None),
            ("model", [0.5, 0.5]),
            ("kernel", 5),
            ("kernel", None),
            ("kernel", {"m": 1, "n": 2, "entries": 5}),
            ("kernel", {"m": 1, "n": 2, "entries": None}),
        ],
    )
    def test_malformed_file_is_a_file_error(self, tmp_path, capsys, which, record):
        paths = {"kernel": tmp_path / "k.json", "model": tmp_path / "m.json"}
        io.dump_json({"m": 1, "n": 2, "entries": [{"set": [0], "value": 1.0}]}, paths["kernel"])
        io.dump_json({"homogeneous": 0.5, "n": 2}, paths["model"])
        io.dump_json(record, paths[which])
        code = cli.main(["distance", "--kernel", str(paths["kernel"]), "--model", str(paths["model"])])
        assert code == 2
        assert capsys.readouterr().err.startswith("file error")

    def test_bad_json_has_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 2,,}')
        with pytest.raises(FormatError, match="line"):
            io.load_kernel(path)


class TestCli:
    def test_parser_is_built_once_and_main_is_reentrant(self, capsys, monkeypatch):
        real, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        base = ["counterexample", "--kind", "product", "-m", "2", "--json"]
        outs = []
        for argv in (base, base + ["-n", "3", "--seed", "5"], base):
            assert cli.main(argv) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert len(built) == 1
        # the defaults come back after a call that overrode them
        assert outs[0] == outs[2] and outs[0]["n"] == 4 and outs[1]["n"] == 3

    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["counterexample", "--kind", "product", "-m", "2", "-n", "3", "--json"]
        done = subprocess.run([sys.executable, "-m", "chaoslab", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert cli.main(argv) == done.returncode == 0
        assert done.stdout == capsys.readouterr().out
        missing = ["distance", "--kernel", "none.json", "--model", "none.json"]
        done = subprocess.run([sys.executable, "-m", "chaoslab", *missing], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2 and done.stderr.startswith("file error")

    def test_verify_passes_and_is_deterministic(self, capsys):
        assert cli.main(["verify", "--json", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["verify", "--json", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["failures"] == []
        assert all(c["passed"] for c in payload["checks"])

    def test_verify_seed_changes_report(self, capsys):
        cli.main(["verify", "--json", "--seed", "1"])
        a = capsys.readouterr().out
        cli.main(["verify", "--json", "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b

    @pytest.mark.parametrize(
        "broken", [lambda m: float(m), lambda m: math.nan], ids=["wrong", "nan"]
    )
    def test_verify_detects_broken_constant(self, capsys, monkeypatch, broken):
        import chaoslab.verify as verify_mod

        def strict(token):
            raise ValueError(f"non-JSON constant {token}")

        monkeypatch.setattr(verify_mod, "gamma_m", broken)
        rc = cli.main(["verify", "--json"])
        out = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert rc == 1
        assert "constants" in out["failures"]
        constants = next(c for c in out["checks"] if c["name"] == "constants")
        assert constants["passed"] is False
        if math.isnan(broken(2)):
            assert constants["residual"] is None

    def test_bound_reports_slack(self, fair_pair, capsys):
        kpath, mpath, *_ = fair_pair
        rc = cli.main(["bound", "--kernel", kpath, "--model", mpath,
                       "--distance", "both", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        # two JSON objects, one per distance
        chunks = out.strip().split("}\n{")
        assert len(chunks) == 2
        first = json.loads(chunks[0] + "}")
        assert first["slack"] >= 0

    def test_bound_suggests_normalize(self, tmp_path, rng, capsys):
        f = random_kernel(2, 5, rng).scale(4.0)
        model = RademacherModel.symmetric(5)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        for command in ("bound", "dejong"):  # one error path in ``main`` serves both
            rc = cli.main([command, "--kernel", str(kpath), "--model", str(mpath)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: input is not normalized"), command
            assert err.endswith("\nhint: pass --normalize to rescale the kernel\n"), command
            rc = cli.main(
                [command, "--kernel", str(kpath), "--model", str(mpath), "--normalize"]
            )
            assert rc == 0

    def test_counterexample_inhomogeneous_writes_model(self, tmp_path, capsys):
        out = tmp_path / "ex.json"
        rc = cli.main(
            ["counterexample", "--kind", "inhomogeneous", "-m", "1",
             "--out", str(out), "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["probability"] == pytest.approx(0.7886751345948129, rel=1e-12)
        model = io.load_model(str(out) + ".model.json")
        assert model.probs[0] == pytest.approx(0.7886751345948129)

    def test_counterexample_symmetric_trace(self, tmp_path, capsys):
        out = tmp_path / "sym.json"
        rc = cli.main(
            ["counterexample", "--kind", "symmetric", "-m", "2", "-n", "4",
             "--out", str(out), "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["residual"]) <= 1e-12
        assert report["fourth_moment"] == pytest.approx(3.0, abs=1e-10)
        stored = io.load_json(out)
        assert abs(stored["provenance"]["residual"]) <= 1e-12

    def test_counterexample_small_horizon_errors(self, capsys):
        rc = cli.main(["counterexample", "--kind", "symmetric", "-m", "2", "-n", "3"])
        assert rc == 2
        assert "n >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, says",
        [(["-n", "4", "--tol", "nan"], "finite and positive"),
         (["-n", "6", "--tol", "1e-300"], "last residual")],
    )
    def test_counterexample_bisection_failures_exit_2(self, capsys, argv, says):
        rc = cli.main(["counterexample", "--kind", "symmetric", "-m", "2", *argv])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and says in err

    def test_counterexample_above_enum_cap_names_it(self, capsys):
        rc = cli.main(["counterexample", "--kind", "product", "-m", "2", "-n", "30"])
        err = capsys.readouterr().err
        assert rc == 2 and "enum_cap=24" in err and "spans 30 coordinates" in err

    def test_moments_engines_agree(self, fair_pair, capsys):
        kpath, mpath, *_ = fair_pair
        rc = cli.main(["moments", "--kernel", kpath, "--model", mpath,
                       "--engine", "both", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine_agreement_residual"] <= 1e-9
        assert "fourth_moment_symmetric_fast" in report

    def test_moments_reports_support_and_overlapping_pairs(self, tmp_path, capsys, monkeypatch):
        # the 4 order-2 subsets through coordinate 0 on n = 5 meet pairwise
        # there: S = 4 and P = C(4, 2) = 6, where all S**2 pairs would be 16
        f = Kernel(2, 5, {(0, j): 0.25 for j in range(1, 5)})
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(RademacherModel.symmetric(5)), mpath)
        argv = ["moments", "--kernel", str(kpath), "--model", str(mpath), "--json"]
        outs = []
        for engine in ("both", "both", "factorized", "symmetric-fast"):
            assert cli.main(argv + ["--engine", engine]) == 0
            outs.append(capsys.readouterr().out)
        # each engine plans the support once, and the report reads that plan
        built = []
        init = SupportPlan.__init__
        monkeypatch.setattr(SupportPlan, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        # on fair coins ``both`` evaluates the one capped factorized plan for both names
        for engine, plans, out in (("both", 1, outs[0]), ("factorized", 1, outs[2]), ("symmetric-fast", 1, outs[3])):
            built.clear()
            assert cli.main(argv + ["--engine", engine]) == 0
            assert (len(built), capsys.readouterr().out) == (plans, out)
        assert outs[0] == outs[1]  # byte for byte
        for out in outs:
            report = json.loads(out)
            assert (report["support_size"], report["overlapping_pairs"]) == (4, 6)
        assert cli.main(argv + ["--engine", "enumerate"]) == 0
        assert "overlapping_pairs" not in json.loads(capsys.readouterr().out)

    def test_moments_calls_a_model_fair_only_at_exactly_one_half(self, tmp_path, capsys):
        # one ulp above 0.5 is a skewed model: symmetric-fast refuses it and
        # ``both`` runs the factorized engine alone
        f = Kernel(2, 3, {(0, 1): 0.5, (1, 2): -0.5})
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(RademacherModel((0.5, math.nextafter(0.5, 1.0), 0.5))), mpath)
        argv = ["moments", "--kernel", str(kpath), "--model", str(mpath), "--json", "--engine"]
        assert cli.main(argv + ["symmetric-fast"]) == 2
        assert capsys.readouterr().err == "error: symmetric-fast engine needs the fair-coin model\n"
        assert cli.main(argv + ["both"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "fourth_moment_factorized" in report and "fourth_moment_symmetric_fast" not in report

    def test_moments_both_past_the_support_cap_answers_by_enumeration(self, tmp_path, rng, capsys):
        # C(12, 2) = 66 support subsets, above factorized_support_cap = 60
        f = random_kernel(2, 12, rng, normalized=True)
        model = random_model(rng, 12)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        argv = ["moments", "--kernel", str(kpath), "--model", str(mpath), "--json", "--engine"]
        assert cli.main(argv + ["both"]) == 0
        second, fourth = even_moments(integral_table(f, model), model)
        assert json.loads(capsys.readouterr().out) == {
            "factorized_refused": "factorized_support_cap=60",
            "fourth_moment_enumerate": fourth,
            "horizon": 12,
            "order": 2,
            "second_moment": second,
            "support_size": 66,
        }
        assert cli.main(argv + ["factorized"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("capacity error (factorized_support_cap=60): support size 66")

    def test_moments_both_past_the_support_cap_on_fair_coins_adds_the_uncapped_plan(self, tmp_path, capsys):
        # the same 66 subsets on fair coins: ``symmetric-fast`` answers uncapped
        f = random_kernel(2, 12, 0, normalized=True)
        model = RademacherModel.symmetric(12)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        argv = ["moments", "--kernel", str(kpath), "--model", str(mpath), "--json", "--engine"]
        assert cli.main(argv + ["both"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli.main(argv + ["symmetric-fast"]) == 0
        fast = json.loads(capsys.readouterr().out)
        second, fourth = even_moments(integral_table(f, model), model)
        symmetric_fast = fast["fourth_moment_symmetric_fast"]
        assert (fast["support_size"], fast["overlapping_pairs"]) == (66, 660)
        assert report == {
            "engine_agreement_residual": max(fourth, symmetric_fast) - min(fourth, symmetric_fast),
            "factorized_refused": "factorized_support_cap=60",
            "fourth_moment_enumerate": fourth,
            "fourth_moment_symmetric_fast": symmetric_fast,
            "horizon": 12,
            "order": 2,
            "overlapping_pairs": 660,
            "second_moment": second,
            "support_size": 66,
        }
        assert math.isclose(symmetric_fast, fourth, rel_tol=1e-12)

    def test_distance_two_atom_value(self, tmp_path, capsys):
        f = Kernel(1, 1, {(0,): 1.0})
        model = RademacherModel.symmetric(1)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        rc = cli.main(["distance", "--kernel", str(kpath), "--model", str(mpath),
                       "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kolmogorov_distance"] == pytest.approx(0.34134474606854293)
        assert report["wasserstein_distance"] == pytest.approx(0.5353773215478796)

    def test_distance_variance_of_a_constant_is_zero(self, tmp_path, capsys):
        # E[F^2] of this constant is 4; its variance is 0
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(Kernel(0, 2, {(): 2.0})), kpath)
        io.dump_json(io.model_to_dict(RademacherModel((0.3, 0.5))), mpath)
        rc = cli.main(["distance", "--kernel", str(kpath), "--model", str(mpath), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["atoms"] == 1
        assert report["variance"] == 0.0

    def test_distance_and_counterexample_json_equal_the_library(self, fair_pair, capsys):
        kpath, mpath, f, model = fair_pair
        table = integral_table(f, model)
        law = exact_distribution(table, model)
        want = {
            "kolmogorov_distance": kolmogorov_to_normal(law),
            "wasserstein_distance": wasserstein_to_normal(law),
        }
        for which in ("both", "kolmogorov", "wasserstein"):
            rc = cli.main(["distance", "--kernel", kpath, "--model", mpath,
                           "--distance", which, "--json"])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            assert {k: v for k, v in report.items() if k in want} == (
                want if which == "both" else {f"{which}_distance": want[f"{which}_distance"]}
            )
            assert report["variance"] == variance(table, model)
        rc = cli.main(["counterexample", "--kind", "product", "-m", "2", "-n", "4", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        kern, model = product_chaos_sequence(2, 4)
        table = integral_table(kern, model)
        law = exact_distribution(table, model)
        assert report["variance"] == variance(table, model)
        assert report["fourth_moment"] == moment(table, 4, model)
        assert report["kolmogorov_distance"] == kolmogorov_to_normal(law)
        assert report["wasserstein_distance"] == wasserstein_to_normal(law)

    def test_dejong_reports_ratio(self, fair_pair, capsys):
        kpath, mpath, f, _ = fair_pair
        rc = cli.main(["dejong", "--kernel", kpath, "--model", mpath, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rho_sq_over_msq_sup_influence"] == pytest.approx(1.0, rel=1e-9)
        assert report["term_rho_squared"] == pytest.approx(
            4 * f.sup_influence(), rel=1e-9
        )

    def test_dejong_rejects_a_non_finite_kappa(self, fair_pair, capsys):
        kpath, mpath, *_ = fair_pair
        for kappa in ("nan", "inf"):
            rc = cli.main(["dejong", "--kernel", kpath, "--model", mpath, "--kappa-m", kappa])
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error: ") and "kappa_m" in err

    def test_bound_and_distance_report_the_route_moments(self, tmp_path, rng, capsys):
        # one kernel file through ``bound``, ``distance`` and ``dejong``: each
        # reports E[F^2], E[F^4] and the distances of ``integral_law`` bit for
        # bit, whether the support splits into n order-1 pieces, into matched
        # pairs, or not, at n = 1 and with p at the floor
        floor = RademacherModel((PROB_FLOOR, 0.3, 1.0 - PROB_FLOOR, 0.5, PROB_FLOOR))
        cases = [(random_kernel(1, n, rng, normalized=True), random_model(rng, n))
                 for n in (1, 3, 5, 7, 8, 9, 10, 11, 12)]
        cases += [matched_pairs_kernel(n) for n in (4, 10, 20)]
        cases += [(random_kernel(m, n, rng, normalized=True), random_model(rng, n))
                  for m, n in ((2, 6), (2, 9), (3, 8))]
        cases += [(random_kernel(m, 5, rng, normalized=True), floor) for m in (1, 2)]
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        argv = ["--kernel", str(kpath), "--model", str(mpath), "--json"]
        for kern, model in cases:
            io.dump_json(io.kernel_to_dict(kern), kpath)
            io.dump_json(io.model_to_dict(model), mpath)
            route = integral_law(kern, model)
            w1, dk = normal_distances(route.law)
            assert cli.main(["bound", *argv]) == 0
            text = capsys.readouterr().out
            first, end = json.JSONDecoder().raw_decode(text)
            for rep in (first, json.loads(text[end:])):
                assert (rep["variance"], rep["fourth_moment"]) == (route.variance, route.fourth)
            want = {"both": (w1, dk), "wasserstein": (w1, None), "kolmogorov": (None, dk)}
            for mode, (w, k) in want.items():
                assert cli.main(["distance", *argv, "--distance", mode]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report["variance"] == route.variance
                got = (report.get("wasserstein_distance"), report.get("kolmogorov_distance"))
                assert got == (w, k)
            assert cli.main(["dejong", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["exact_wasserstein"] == w1

    def test_capacity_error_names_cap(self, tmp_path, rng, capsys):
        f = random_kernel(2, 8, rng, normalized=True)
        model = RademacherModel.symmetric(8)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        rc = cli.main(["distance", "--kernel", str(kpath), "--model", str(mpath),
                       "--cap-enum", "6"])
        assert rc == 2
        assert "enum_cap" in capsys.readouterr().err

    def test_bound_and_distance_split_matched_pairs_past_the_horizon_cap(self, tmp_path, capsys):
        # 20 independent pieces of two coordinates: no 2**40 table is built
        kern, model = matched_pairs_kernel(40)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(kern), kpath)
        io.dump_json(io.model_to_dict(model), mpath)
        law = integral_law(kern, model).law
        w1, dk = normal_distances(law)
        assert cli.main(["bound", "--kernel", str(kpath), "--model", str(mpath), "--json"]) == 0
        text = capsys.readouterr().out
        first, end = json.JSONDecoder().raw_decode(text)
        by_kind = {rep["kind"]: rep for rep in (first, json.loads(text[end:]))}
        assert by_kind["wasserstein"]["exact_distance"] == w1
        assert by_kind["kolmogorov"]["exact_distance"] == dk
        assert by_kind["wasserstein"]["fourth_moment"] == pytest.approx(3.0 - 4.0 / 40, abs=1e-9)
        assert cli.main(["distance", "--kernel", str(kpath), "--model", str(mpath), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "atoms": len(law.atoms),
            "kolmogorov_distance": dk,
            "variance": pytest.approx(1.0, abs=1e-12),
            "wasserstein_distance": w1,
        }

    @pytest.mark.parametrize("command", ["bound", "distance"])
    def test_connected_kernel_above_the_cap_names_it(self, tmp_path, rng, capsys, command):
        f = random_kernel(2, 8, rng, normalized=True)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(RademacherModel.symmetric(8)), mpath)
        rc = cli.main([command, "--kernel", str(kpath), "--model", str(mpath), "--cap-enum", "6"])
        assert rc == 2
        assert "enum_cap" in capsys.readouterr().err

    def test_horizon_mismatch_is_file_error(self, tmp_path, rng, capsys):
        f = random_kernel(2, 5, rng)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(RademacherModel.symmetric(4)), mpath)
        rc = cli.main(["distance", "--kernel", str(kpath), "--model", str(mpath)])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    def test_bound_on_tuned_product_fixture(self, tmp_path, capsys):
        out = tmp_path / "tuned.json"
        assert cli.main(
            ["counterexample", "--kind", "inhomogeneous", "-m", "2",
             "--out", str(out), "--json"]
        ) == 0
        capsys.readouterr()
        rc = cli.main(
            ["bound", "--kernel", str(out), "--model", str(out) + ".model.json",
             "--distance", "kolmogorov", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slack"] >= 0
        # moment-matched family: the fourth-moment term is negligible
        assert report["term_fourth_moment"] <= 1e-4

    def test_bound_on_bounded_influence_fixture(self, tmp_path, capsys):
        from chaoslab.bounds import wasserstein_constants

        out = tmp_path / "spread.json"
        assert cli.main(
            ["counterexample", "--kind", "product", "-m", "2", "-n", "12",
             "--out", str(out), "--json"]
        ) == 0
        capsys.readouterr()
        rc = cli.main(
            ["bound", "--kernel", str(out), "--model", str(out) + ".model.json",
             "--distance", "wasserstein", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        # influence term C2(2) * sqrt(1/4) dominates the report
        assert report["term_influence"] == pytest.approx(
            wasserstein_constants(2)[1] * 0.5, rel=1e-12
        )
        assert report["term_influence"] > report["term_fourth_moment"]



KERNEL_FILE_COMMANDS = ["bound", "moments", "distance", "dejong"]


class TestKernelFileCommands:
    """The front end the four commands that read a kernel and a model share."""

    @pytest.fixture
    def raw_pair(self, tmp_path, rng):
        # unit variance only after --normalize
        f = random_kernel(2, 6, rng).scale(3.0)
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(random_model(rng, 6)), mpath)
        return f, ["--kernel", str(kpath), "--model", str(mpath)]

    @pytest.mark.parametrize("command", KERNEL_FILE_COMMANDS)
    def test_common_flags_follow_the_subcommand(self, command, raw_pair, capsys):
        _, files = raw_pair
        flags = ["--json", "--seed", "3", "--cap-enum", "10"]
        assert cli.main([*flags, command, "--normalize", *files]) == 0
        before = capsys.readouterr().out
        assert cli.main([command, "--normalize", *files, *flags]) == 0
        assert capsys.readouterr().out == before
        json.JSONDecoder().raw_decode(before)

    @pytest.mark.parametrize("command", KERNEL_FILE_COMMANDS)
    def test_a_low_enum_cap_refuses(self, command, raw_pair, capsys):
        _, files = raw_pair
        assert cli.main([command, "--normalize", "--cap-enum", "4", *files]) == 2
        assert "enum_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", KERNEL_FILE_COMMANDS)
    @pytest.mark.parametrize("m, value, probs", [
        (1, 1e77, (0.5, 0.5, 0.5)),  # each piece is finite, their fold is not
        (2, 1e154, (0.5, 0.3, 1e-6)),  # the one table's fourth powers are not
    ])
    def test_an_overflowing_fourth_moment_refuses(self, command, m, value, probs, tmp_path,
                                                  capsys):
        f = Kernel(m, 3, {s: value for s in combinations(range(3), m)})
        kpath, mpath = tmp_path / "k.json", tmp_path / "m.json"
        io.dump_json(io.kernel_to_dict(f), kpath)
        io.dump_json(io.model_to_dict(RademacherModel(probs)), mpath)
        assert cli.main([command, "--kernel", str(kpath), "--model", str(mpath)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: .* overflow the fourth moment\n", err)

    @pytest.mark.parametrize("command", KERNEL_FILE_COMMANDS)
    def test_normalize_is_normalizing_the_file_first(self, command, raw_pair, tmp_path, capsys):
        f, files = raw_pair
        assert cli.main([command, "--json", "--normalize", *files]) == 0
        flagged = capsys.readouterr().out
        npath = tmp_path / "normalized.json"
        io.dump_json(io.kernel_to_dict(f.normalized()), npath)
        assert cli.main([command, "--json", "--kernel", str(npath), *files[2:]]) == 0
        assert capsys.readouterr().out == flagged
