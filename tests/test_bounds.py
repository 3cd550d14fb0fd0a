import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaoslab import (
    Caps,
    CapacityError,
    ChaosVector,
    DomainError,
    Kernel,
    RademacherModel,
    basis_kernel,
    constant_table,
    conditional_expectation,
    gamma_m,
    integral_table,
    random_kernel,
    to_table,
    zero_kernel,
)
from chaoslab import bounds
from chaoslab.bounds import (
    abstract_bounds,
    dejong_bound,
    degenerate_order,
    hoeffding_decompose,
    kolmogorov_constants,
    rho_squared,
    theorem_bounds,
    theorem_bound_kolmogorov,
    theorem_bound_wasserstein,
    wasserstein_constants,
)
from chaoslab.construct import (
    inhomogeneous_counterexample,
    matched_pairs_kernel,
    product_chaos_sequence,
)
from chaoslab.distance import (
    exact_distribution,
    independent_pieces,
    integral_law,
    kolmogorov_to_normal,
    normal_distances,
    wasserstein_to_normal,
)
from chaoslab.moments import moment, quartic_gradient_sum
from conftest import random_model

# high-precision references (40-digit evaluation, rounded)
C1_1 = 1.3989422804014326779
C2_1 = 3.0136793263309343851
C1_2 = 2.1795522506863386829
DEJONG_FOURTH_COEFF = 2.1312178941361986892


class TestConstants:
    def test_gamma_values(self):
        assert gamma_m(1) == 2.0
        assert gamma_m(2) == 72.0
        assert gamma_m(3) == 7920.0

    def test_gamma_strictly_increasing(self):
        vals = [gamma_m(m) for m in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_wasserstein_constants_order_one(self):
        c1, c2 = wasserstein_constants(1)
        assert abs(c1 - C1_1) <= 1e-12
        assert abs(c2 - C2_1) <= 1e-12

    def test_wasserstein_constant_order_two(self):
        assert abs(wasserstein_constants(2)[0] - C1_2) <= 1e-12

    def test_kolmogorov_constants_order_one(self):
        k1, k2, k3, k4 = kolmogorov_constants(1)
        assert k1 == pytest.approx(1.5, abs=1e-12)
        assert k2 == pytest.approx(0.5, abs=1e-12)
        assert k3 == pytest.approx((1 + 2 * math.sqrt(3)) / 2 * math.sqrt(2), abs=1e-12)

    def test_kolmogorov_constant_order_two(self):
        assert kolmogorov_constants(2)[1] == pytest.approx(
            math.sqrt(10) / 4, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_m(0)
        with pytest.raises(DomainError):
            wasserstein_constants(0)


class TestTheoremBounds:
    def test_tuned_product_order_one_reduces_to_influence_term(self):
        model, kern = inhomogeneous_counterexample(1, "+")
        F = ChaosVector.from_kernel(kern)
        rep = theorem_bound_wasserstein(F, model)
        # fourth moment is exactly 3, so only the influence term remains,
        # and the single-coordinate kernel has sup-influence 1
        assert rep.terms["fourth_moment"] <= 1e-5
        assert rep.terms["influence"] == pytest.approx(C2_1, rel=1e-9)
        assert rep.slack is not None and rep.slack >= 0.0
        repk = theorem_bound_kolmogorov(F, model)
        assert repk.slack >= 0.0
        assert repk.exact_distance >= 0.1

    def test_bounded_influence_family(self):
        kern, model = product_chaos_sequence(2, 12)
        F = ChaosVector.from_kernel(kern)
        rep = theorem_bound_wasserstein(F, model)
        assert math.isfinite(rep.bound_value)
        assert rep.sup_influence == pytest.approx(0.25, rel=1e-12)
        assert rep.terms["influence"] == pytest.approx(
            wasserstein_constants(2)[1] * 0.5, rel=1e-12
        )
        assert rep.slack >= 0.0

    def test_slack_nonnegative_on_random_instances(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 11))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            assert theorem_bound_wasserstein(F, model).slack >= 0.0
            assert theorem_bound_kolmogorov(F, model).slack >= 0.0

    def test_rejects_unnormalized(self, rng):
        model = random_model(rng, 6)
        F = ChaosVector.from_kernel(random_kernel(2, 6, rng).scale(3.0))
        with pytest.raises(DomainError, match="second moment"):
            theorem_bound_wasserstein(F, model)

    def test_shared_computation_matches_named_bounds(self, rng):
        for _ in range(6):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 11))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            rw, rk = theorem_bounds(F, model)
            assert (rw.kind, rk.kind) == ("wasserstein", "kolmogorov")
            assert rw == theorem_bound_wasserstein(F, model)
            assert rk == theorem_bound_kolmogorov(F, model)
            # the reports read the independent pieces of the kernel; an
            # order-1 kernel is n pieces, a dense one is one piece over the
            # whole horizon and must give the enumeration's numbers exactly
            route = integral_law(F.kernel(m), model)
            var, fourth = route.variance, route.fourth
            for rep in (rw, rk):
                assert (rep.variance, rep.fourth_moment) == (var, fourth)
                assert rep.sup_influence == F.kernel(m).sup_influence()
                assert rep.slack == rep.bound_value - rep.exact_distance
            assert (rw.exact_distance, rk.exact_distance) == normal_distances(route.law)
            table = to_table(F, model)
            law = exact_distribution(table, model)
            enumerated = (
                moment(table, 2, model), moment(table, 4, model),
                wasserstein_to_normal(law), kolmogorov_to_normal(law),
            )
            got = (var, fourth, rw.exact_distance, rk.exact_distance)
            if len(independent_pieces(F.kernel(m))) == 1:
                assert got == enumerated
            else:
                # sums of n piece terms against sums over 2**n outcomes
                assert got == pytest.approx(enumerated, rel=1e-12, abs=1e-14)

    def test_shared_computation_rejects_bad_input(self, rng):
        model = random_model(rng, 6)
        with pytest.raises(DomainError, match="second moment"):
            theorem_bounds(ChaosVector.from_kernel(random_kernel(2, 6, rng).scale(3.0)), model)
        mixed = ChaosVector(6, (zero_kernel(0, 6), random_kernel(1, 6, rng), random_kernel(2, 6, rng)))
        with pytest.raises(DomainError, match="pure multiple integral"):
            theorem_bounds(mixed, model)

    def test_report_serialization(self, rng):
        model = random_model(rng, 6)
        F = ChaosVector.from_kernel(random_kernel(2, 6, rng, normalized=True))
        data = theorem_bound_wasserstein(F, model).to_dict()
        assert {"bound_value", "exact_distance", "slack", "fourth_moment"} <= set(data)


def _rss_growth_mb(script: str) -> float:
    """Run ``script`` in a fresh interpreter; it prints its ru_maxrss growth in MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return float(out)


def test_operator_terms_at_n16_hold_a_bounded_number_of_tables():
    # coordinates are streamed and the indicator sup sums on one rank table;
    # holding every per-coordinate table grew the peak by about 155 MB
    growth = _rss_growth_mb(
        """
        import resource
        import numpy as np
        from chaoslab import ChaosVector, RademacherModel, random_kernel
        from chaoslab.bounds import abstract_bounds
        from chaoslab.moments import kolmogorov_term
        rng = np.random.default_rng(7)
        model = RademacherModel(tuple(float(p) for p in rng.uniform(0.1, 0.9, 16)))
        F = ChaosVector.from_kernel(random_kernel(2, 16, rng, normalized=True))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        abstract_bounds(F, model)
        kolmogorov_term(F, model)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
        """
    )
    assert growth <= 16 * 2**16 * 8 / 2**20  # 16 tables of 2**16 floats: 8 MB


def test_theorem_bounds_on_matched_pairs_builds_no_horizon_table():
    # ten independent pieces of two coordinates: the inputs come from one
    # 2**2 table and a law of 11 atoms; one 2**20 table would be 8 MB
    n = 20
    kern, model = matched_pairs_kernel(n)
    F = ChaosVector.from_kernel(kern)
    tracemalloc.start()
    try:
        rw, rk = theorem_bounds(F, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # 1 MB, an eighth of one table
    law = exact_distribution(integral_table(kern, model), model)
    assert (rw.exact_distance, rk.exact_distance) == normal_distances(law)
    assert abs(rw.fourth_moment - (3.0 - 4.0 / n)) <= 1e-9
    assert abs(rw.variance - 1.0) <= 1e-12


def test_theorem_bounds_at_n20_holds_a_bounded_number_of_tables():
    # one table of 2**20 floats is 8 MB; with about 10**6 distinct atoms the
    # growth measured 7.1 tables (10.4 before the law dropped its stable sort
    # and freed the sort temporaries before copying atoms and probabilities),
    # and the cap adds 25%
    growth = _rss_growth_mb(
        """
        import resource
        import numpy as np
        from chaoslab import ChaosVector, RademacherModel, random_kernel
        from chaoslab.bounds import theorem_bounds
        rng = np.random.default_rng(7)
        model = RademacherModel(tuple(float(p) for p in rng.uniform(0.2, 0.8, 20)))
        F = ChaosVector.from_kernel(random_kernel(2, 20, rng, normalized=True))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        theorem_bounds(F, model)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
        """
    )
    assert growth <= 8.9 * 8.0


def test_theorem_bounds_at_n22_holds_a_bounded_number_of_tables():
    # one table of 2**22 floats is 32 MB; on fair coins the growth above
    # the post-import peak measured 5.75 to 6.0 tables
    growth = _rss_growth_mb(
        """
        import resource
        from chaoslab import ChaosVector, RademacherModel, random_kernel
        from chaoslab.bounds import theorem_bounds
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        F = ChaosVector.from_kernel(random_kernel(2, 22, 0, normalized=True))
        theorem_bounds(F, RademacherModel.symmetric(22))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
        """
    )
    assert growth <= 7 * 32.0


class TestAbstractBounds:
    def test_single_fair_coordinate_has_unit_field(self):
        model = RademacherModel.symmetric(2)
        F = ChaosVector.from_kernel(basis_kernel((0,), 2))
        terms = abstract_bounds(F, model)
        assert terms["gamma_deviation_abs"] == pytest.approx(0.0, abs=1e-13)
        assert terms["gamma_deviation_var"] == pytest.approx(0.0, abs=1e-13)

    def test_chains_and_domination(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 10))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            terms = abstract_bounds(F, model)
            rw = theorem_bound_wasserstein(F, model)
            rk = theorem_bound_kolmogorov(F, model)
            assert terms["wasserstein_line1"] <= terms["wasserstein_line2"] + 1e-12
            assert terms["kolmogorov_line1"] <= terms["kolmogorov_line2"] + 1e-12
            assert rw.exact_distance <= terms["wasserstein_line1"] + 1e-12
            assert rk.exact_distance <= terms["kolmogorov_line1"] + 1e-12
            # single-order specializations are sandwiched by the theorem bound
            assert terms["wasserstein_line1"] <= terms["wasserstein_single_order"] + 1e-12
            assert terms["wasserstein_single_order"] <= rw.bound_value + 1e-12
            assert terms["kolmogorov_single_order"] <= rk.bound_value + 1e-12

    def test_entries_are_plain_floats(self, rng):
        # the per-coordinate divisions by model.pq[k] yield numpy scalars
        model = random_model(rng, 5)
        normalized = ChaosVector.from_kernel(random_kernel(2, 5, rng, normalized=True))
        kernels = (zero_kernel(0, 5), random_kernel(1, 5, rng), random_kernel(2, 5, rng))
        mixed = ChaosVector(5, kernels)
        assert "kolmogorov_single_order" in abstract_bounds(normalized, model)
        for F in (normalized, ChaosVector.from_kernel(random_kernel(3, 5, rng)), mixed):
            assert all(type(v) is float for v in abstract_bounds(F, model).values())
        assert type(quartic_gradient_sum(normalized, model)) is float

    def test_rejects_non_centered(self, rng):
        model = random_model(rng, 4)
        with pytest.raises(DomainError):
            abstract_bounds(ChaosVector.constant(1.0, 4), model)

    def test_constant_field_has_zero_deviation_variance(self):
        # Gamma0(F, -L^-1 F) = 1 at every outcome of this sum of coordinates;
        # the uncentered variance came out near -1e-17 and sqrt raised
        model = RademacherModel.symmetric(7)
        F = ChaosVector.from_kernel(Kernel(1, 7, {(i,): 1.0 / math.sqrt(7) for i in range(7)}))
        terms = abstract_bounds(F, model)
        assert 0.0 <= terms["gamma_deviation_var"] <= 1e-30

    def test_conditional_weight_sum_is_twice_the_field(self, rng):
        # sum_k (D_kF)^2 (q_k on X_k=+1, p_k on X_k=-1) / (p_k q_k) equals
        # 2 Gamma0(F, F) pointwise; the middle bound term relies on it
        from chaoslab.malliavin import d, gamma0
        from chaoslab import to_table

        model = random_model(rng, 6)
        F = ChaosVector.from_kernel(random_kernel(2, 6, rng, normalized=True))
        t = to_table(F, model)
        idx = np.arange(2**6)
        acc = np.zeros(2**6)
        for k in range(6):
            cond = np.where((idx >> k) & 1, 1 - model.probs[k], model.probs[k])
            acc += d(t, k, model).values ** 2 * cond / model.pq[k]
        g0 = gamma0(t, t, model)
        assert np.abs(acc - 2.0 * g0.values).max() <= 1e-11 * (1 + np.abs(acc).max())


class TestHoeffding:
    def test_constant_has_only_empty_component(self, rng):
        model = random_model(rng, 4)
        H = hoeffding_decompose(constant_table(3.0, 4), model)
        assert set(H.components) == {()}
        assert H.component(()).values[0] == 3.0

    def test_multiple_integral_components(self, rng):
        model = random_model(rng, 6)
        f = random_kernel(2, 6, rng, normalized=True)
        W = integral_table(f, model)
        H = hoeffding_decompose(W, model)
        a = f.to_subset_coeffs()
        for J in H.components:
            t = H.component(J)
            if len(J) == 2:
                y = np.ones(2**6)
                for i in J:
                    y = y * model.y_table(i)
                assert np.abs(t.values - a.get(J, 0.0) * y).max() <= 1e-12
            elif J != ():
                assert t.max_abs() <= 1e-12

    def test_reconstruction_random_functional(self, rng):
        model = random_model(rng, 6)
        W = __import__("chaoslab").ValueTable(6, rng.standard_normal(64))
        H = hoeffding_decompose(W, model)
        assert np.abs(H.reconstruct().values - W.values).max() <= 1e-9

    def test_conditioning_annihilates_unless_contained(self, rng):
        model = random_model(rng, 5)
        W = __import__("chaoslab").ValueTable(5, rng.standard_normal(32))
        H = hoeffding_decompose(W, model)
        checked = 0
        keys = [J for J in H.components if J]
        for _ in range(100):
            J = keys[int(rng.integers(len(keys)))]
            K = tuple(
                sorted(
                    int(i)
                    for i in rng.choice(5, size=int(rng.integers(0, 5)), replace=False)
                )
            )
            if set(J) <= set(K):
                continue
            checked += 1
            ce = conditional_expectation(H.component(J), model, set(K))
            assert ce.max_abs() <= 1e-10
        assert checked > 50

    def test_energies_need_no_tables(self, rng, monkeypatch):
        def no_moment(*args, **kwargs):
            raise AssertionError("the Hoeffding route took a moment of a table")

        monkeypatch.setattr(bounds, "even_moments", no_moment)
        model = random_model(rng, 7)
        f = random_kernel(2, 7, rng, normalized=True)
        H = hoeffding_decompose(integral_table(f, model), model)
        assert all(isinstance(c, float) for c in H.components.values())
        assert degenerate_order(H) == 2
        assert rho_squared(H) == pytest.approx(4.0 * f.sup_influence(), rel=1e-10)

    def test_dejong_bound_computes_the_orders_once(self, rng, monkeypatch):
        model = random_model(rng, 8)
        W = integral_table(random_kernel(2, 8, rng, normalized=True), model)
        want = dejong_bound(W, model)
        calls, subset_orders = [], bounds.subset_orders

        def counted(n):
            calls.append(n)
            return subset_orders(n)

        monkeypatch.setattr(bounds, "subset_orders", counted)
        rep = dejong_bound(W, model)
        assert calls == [8]
        assert (rep.order, rep.terms["rho_squared"]) == (want.order, want.terms["rho_squared"])

    def test_mixed_orders_are_not_degenerate(self, rng):
        model = random_model(rng, 5)
        F = ChaosVector(5, (zero_kernel(0, 5), random_kernel(1, 5, rng), random_kernel(2, 5, rng)))
        with pytest.raises(DomainError, match="single order"):
            degenerate_order(hoeffding_decompose(to_table(F, model), model))

    def test_decomposition_memory_at_n12(self):
        # one coefficient per component, no 2**n table per subset (those
        # took about 130 MB at this size); measured in a fresh process
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from chaoslab import RademacherModel, integral_table, random_kernel
            from chaoslab.bounds import hoeffding_decompose, rho_squared
            rng = np.random.default_rng(7)
            model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 12)))
            W = integral_table(random_kernel(2, 12, rng, normalized=True), model)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            H = hoeffding_decompose(W, model)
            rho_squared(H)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(len(H.components), (after - before) / 1024.0)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout.split()
        assert int(out[0]) == 2**12
        assert float(out[1]) < 5.0

    def test_route_memory_at_n18_stays_off_the_component_dict(self):
        # the energies and rho**2 come off the coefficient array: ru_maxrss
        # grows by about 3 tables of 2**18 floats, where the dict over all
        # 2**18 subsets took 24.5 tables (49 MB); measured in a fresh process
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from chaoslab import RademacherModel, integral_table, random_kernel
            from chaoslab.bounds import hoeffding_decompose, rho_squared
            rng = np.random.default_rng(7)
            model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 18)))
            W = integral_table(random_kernel(2, 18, rng, normalized=True), model)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            H = hoeffding_decompose(W, model)
            rho_squared(H)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / (8 * 2**18), "components" in H.__dict__)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout.split()
        assert float(out[0]) <= 6.0
        assert out[1] == "False"

    def test_component_dict_is_capped_by_stroock_cap(self, rng):
        model = random_model(rng, 15)
        H = hoeffding_decompose(integral_table(random_kernel(1, 15, rng), model), model)
        assert H.dependent == tuple(range(15))
        with pytest.raises(CapacityError, match="stroock_cap") as info:
            H.components
        assert (info.value.cap_name, info.value.cap_value, info.value.requested) == (
            "stroock_cap", 14, 15
        )
        assert degenerate_order(H) == 1
        small = hoeffding_decompose(H.reconstruct(), model, Caps(stroock_cap=15))
        assert len(small.components) == 2**15


class TestDeJong:
    def test_rho_of_single_subset_is_variance(self, rng):
        model = random_model(rng, 5)
        f = Kernel(2, 5, {(1, 3): 0.5})
        W = integral_table(f, model)
        H = hoeffding_decompose(W, model)
        from chaoslab.moments import moment

        var = moment(W, 2, model)
        assert rho_squared(H) == pytest.approx(var, rel=1e-12)

    def test_rho_equals_scaled_sup_influence(self, rng):
        for _ in range(5):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(m + 1, 8))
            model = random_model(rng, n)
            f = random_kernel(m, n, rng, normalized=True)
            H = hoeffding_decompose(integral_table(f, model), model)
            assert rho_squared(H) == pytest.approx(
                math.factorial(m) ** 2 * f.sup_influence(), rel=1e-10
            )

    def test_bounded_influence_family_rho_constant_in_n(self):
        vals = []
        for n in (8, 10, 12):
            kern, model = product_chaos_sequence(2, n)
            H = hoeffding_decompose(integral_table(kern, model), model)
            vals.append(rho_squared(H))
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)
        assert vals[1] == pytest.approx(vals[2], rel=1e-10)

    def test_tuned_product_first_term_vanishes(self):
        model, kern = inhomogeneous_counterexample(2, "+")
        rep = dejong_bound(integral_table(kern, model), model)
        assert rep.terms["fourth_moment"] <= 1e-5
        assert rep.constants["c_fourth"] == pytest.approx(
            DEJONG_FOURTH_COEFF, abs=1e-12
        )

    def test_exploratory_wasserstein_domination_recorded(self, rng):
        # kappa is a free configuration constant; with the default value the
        # bound happened to dominate on every instance we looked at, but this
        # stays an observation, not a contract
        dominated = []
        for _ in range(5):
            n = int(rng.integers(4, 8))
            model = random_model(rng, n)
            f = random_kernel(2, n, rng, normalized=True)
            W = integral_table(f, model)
            rep = dejong_bound(W, model, kappa_m=1.0)
            dw = wasserstein_to_normal(exact_distribution(W, model))
            dominated.append(dw <= rep.bound_value)
        assert isinstance(dominated[0], bool)

    def test_bound_above_stroock_cap(self, rng):
        # n = 16 > stroock_cap: the bound never builds the component dict
        model = random_model(rng, 16)
        f = random_kernel(2, 16, rng, normalized=True)
        rep = dejong_bound(integral_table(f, model), model)
        assert rep.order == 2
        assert rep.terms["rho_squared"] == pytest.approx(4.0 * f.sup_influence(), rel=1e-10)

    def test_kappa_validation(self, rng):
        model = random_model(rng, 5)
        f = random_kernel(2, 5, rng, normalized=True)
        W = integral_table(f, model)
        for kappa_m in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="kappa_m"):
                dejong_bound(W, model, kappa_m=kappa_m)

    def test_rejects_unnormalized(self, rng):
        model = random_model(rng, 5)
        f = random_kernel(2, 5, rng)
        with pytest.raises(DomainError, match="normalized"):
            dejong_bound(integral_table(f.scale(2.0), model), model)
