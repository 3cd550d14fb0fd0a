import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import DomainError, RademacherModel, integral_table
from chaoslab.construct import inhomogeneous_counterexample
from chaoslab import distance
from chaoslab.distance import (
    _PHI_ERR,
    _PHI_NUMPY,
    DistributionTable,
    empirical_distances,
    exact_distribution,
    from_weighted_values,
    kolmogorov_to_normal,
    normal_cdf,
    normal_distances,
    wasserstein_to_normal,
)
from chaoslab.erfc import ERFC_ULPS, erfc
from chaoslab.kernels import basis_kernel
from chaoslab.model import sample_y_matrix
from conftest import oracle_kolmogorov, random_chaos, random_model

# frozen oracle values (quadrature / high-precision references)
DW_FAIR_SIGN = 0.5353773215478796  # adaptive quadrature of |CDF - Phi|
DK_THREE_ATOM = 1.0 / 6.0  # atoms at Phi^-1(1/6), 0, Phi^-1(5/6), probs 1/3
PHI_196 = 0.97500210485177956586  # 40-digit computation, rounded


class TestDistributionTable:
    def test_constant_law(self):
        model = RademacherModel((0.4, 0.6))
        from chaoslab import constant_table

        law = exact_distribution(constant_table(2.0, 2), model)
        assert list(law.atoms) == [2.0]
        assert list(law.probs) == [1.0]

    def test_fair_coordinate_law(self):
        model = RademacherModel.symmetric(1)
        law = exact_distribution(
            integral_table(basis_kernel((0,), 1), model), model
        )
        assert np.allclose(law.atoms, [-1.0, 1.0])
        assert np.allclose(law.probs, [0.5, 0.5])

    def test_two_point_asymmetric_law(self):
        model, kern = inhomogeneous_counterexample(1, "+")
        p = model.probs[0]
        q = 1 - p
        law = exact_distribution(integral_table(kern, model), model)
        assert np.allclose(law.atoms, [-math.sqrt(p / q), math.sqrt(q / p)])
        assert np.allclose(law.probs, [q, p])

    def test_merging_within_tolerance(self):
        law = from_weighted_values(
            np.array([1.0, 1.0 + 5e-13, 2.0]), np.array([0.25, 0.25, 0.5])
        )
        assert len(law.atoms) == 2
        assert law.probs[0] == pytest.approx(0.5)

    def test_chained_sub_tolerance_steps_merge(self):
        # each step is below the merge tolerance, the whole chain is not
        law = from_weighted_values(
            np.array([1.6e-12, 0.0, 0.8e-12, 1.0]), np.full(4, 0.25)
        )
        assert len(law.atoms) == 2
        assert law.atoms[0] == 0.0
        assert law.probs[0] == pytest.approx(0.75)

    def test_merge_gap_scales_with_the_largest_value(self):
        # 1e-11 apart: two atoms at scale 1, one at scale 1e5
        law = from_weighted_values(np.array([0.0, 1e-11, 1.0]), np.full(3, 1 / 3))
        assert len(law.atoms) == 3
        law = from_weighted_values(np.array([0.0, 1e-11, 1e5]), np.full(3, 1 / 3))
        assert list(law.atoms) == [0.0, 1e5]
        assert law.probs[0] == pytest.approx(2 / 3)

    def test_non_finite_values_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                from_weighted_values(np.array([0.0, bad, 1.0]), np.full(3, 1 / 3))
        with pytest.raises(DomainError, match="non-empty"):
            from_weighted_values(np.array([]), np.array([]))

    def test_validation(self):
        with pytest.raises(DomainError):
            DistributionTable(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            DistributionTable(np.array([0.0]), np.array([0.7]))
        # a shifted law takes its arrays without a copy, still checked
        with pytest.raises(DomainError, match="strictly increasing"):
            DistributionTable(np.array([0.0, 1e-20]), np.array([0.5, 0.5])).shift(1.0)

    def test_arrays_read_only_and_levels_summed_once(self):
        atoms, probs = np.array([-1.0, 1.0]), np.array([0.25, 0.75])
        law = DistributionTable(atoms, probs)
        atoms[0] = probs[0] = 0.5  # the public constructor copied its input
        assert list(law.atoms) == [-1.0, 1.0] and list(law.probs) == [0.25, 0.75]
        built = from_weighted_values(np.array([1.0, -1.0, 1.0]), np.array([0.25, 0.25, 0.5]))
        for table in (law, built, built.shift(2.0)):
            assert table.cdf_levels is table.cdf_levels
            assert list(table.cdf_levels) == [0.25, 1.0]
            for a in (table.atoms, table.probs, table.cdf_levels):
                assert not a.flags.writeable


class TestKolmogorov:
    def test_three_atom_oracle(self):
        atoms = np.array([NormalDist().inv_cdf(1 / 6), 0.0, NormalDist().inv_cdf(5 / 6)])
        law = DistributionTable(atoms, np.array([1 / 3, 1 / 3, 1 / 3]))
        assert kolmogorov_to_normal(law) == pytest.approx(DK_THREE_ATOM, abs=1e-12)

    def test_fair_sign(self):
        law = DistributionTable(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert kolmogorov_to_normal(law) == pytest.approx(
            normal_cdf(1.0) - 0.5, abs=1e-14
        )

    def test_tuned_two_point_law_far_from_normal(self):
        model, kern = inhomogeneous_counterexample(1, "+")
        law = exact_distribution(integral_table(kern, model), model)
        assert kolmogorov_to_normal(law) >= 0.18

    def test_bounds_zero_one(self, rng):
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 7)))
            t = __import__("chaoslab").to_table(
                random_chaos(rng, model.n, centered=False), model
            )
            dk = kolmogorov_to_normal(exact_distribution(t, model))
            assert 0.0 <= dk <= 1.0


def fair_sign_sum_law(seed: int, n: int) -> DistributionTable:
    """The law of sum_k c_k eps_k with fair signs and unit variance: 2**n
    atoms, symmetric, so the gaps at x and -x agree up to rounding."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 1.5, n)
    c /= math.sqrt(float(c @ c))
    signs = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    return from_weighted_values(signs @ c, np.full(2**n, 0.5**n))


class TestKolmogorovRecheck:
    """Above ``_PHI_NUMPY`` atoms Phi comes from the numpy ``erfc``, and
    ``_gap`` re-evaluates ``normal_cdf`` at the atoms whose gap is within
    2 ``_PHI_ERR`` of the block maximum, so dK stays the atom loop's."""

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_ties_above_the_crossover(self, seed):
        law = fair_sign_sum_law(seed, 11 + seed % 2)
        assert len(law.atoms) >= _PHI_NUMPY
        w1, dk = normal_distances(law)
        assert dk == kolmogorov_to_normal(law) == oracle_kolmogorov(law)
        assert w1 == wasserstein_to_normal(law)

    def test_any_phi_within_the_bound_gives_the_exact_maximum(self, monkeypatch):
        # Phi moved by 0.9 _PHI_ERR against every atom of the exact maximum
        # and toward every other atom: a candidate margin below 1.8
        # _PHI_ERR misses the maximum and returns a smaller gap
        law = fair_sign_sum_law(0, 11)
        atoms, levels = law.atoms, law.cdf_levels
        exact = distance._exact_cdf_array(atoms)
        before = np.concatenate(([0.0], levels[:-1]))
        after_side = levels - exact >= exact - before
        gaps = np.maximum(levels - exact, exact - before)
        dk = oracle_kolmogorov(law)
        lower = np.where(gaps == dk, 1.0, -1.0)
        moved = exact + 0.9 * _PHI_ERR * np.where(after_side, lower, -lower)
        assert np.count_nonzero(gaps == dk) < len(atoms)
        monkeypatch.setattr(distance, "_phi_blocks", lambda a: iter([(0, moved)]))
        assert kolmogorov_to_normal(law) == dk
        assert normal_distances(law)[1] == dk


class TestWasserstein:
    def test_point_mass_at_zero_is_mean_absolute_normal(self):
        law = DistributionTable(np.array([0.0]), np.array([1.0]))
        assert wasserstein_to_normal(law) == pytest.approx(
            math.sqrt(2 / math.pi), abs=1e-14
        )

    def test_fair_sign_matches_quadrature_oracle(self):
        law = DistributionTable(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert wasserstein_to_normal(law) == pytest.approx(DW_FAIR_SIGN, abs=1e-9)

    def test_shift_changes_by_at_most_the_shift(self, rng):
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 7)))
            t = __import__("chaoslab").to_table(
                random_chaos(rng, model.n, centered=False), model
            )
            law = exact_distribution(t, model)
            base = wasserstein_to_normal(law)
            c = float(rng.uniform(-2, 2))
            assert wasserstein_to_normal(law.shift(c)) <= base + abs(c) + 1e-11

    def test_far_atoms_after_the_level_reaches_one_add_nothing(self):
        # once the CDF level is 1.0 the segments integrate 1 - Phi, which
        # vanishes far out; the form L (b - a) - (G(b) - G(a)) would cancel
        # terms of size 1e5 and leave about 3e-12
        fair = DistributionTable(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        law = DistributionTable(
            np.array([-1.0, 1.0, 1e5, 2e5]), np.array([0.5, 0.5, 1e-30, 1e-30])
        )
        assert list(law.cdf_levels[1:]) == [1.0, 1.0, 1.0]
        assert abs(wasserstein_to_normal(law) - wasserstein_to_normal(fair)) <= 1e-15

    @given(st.floats(-3, 3), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_two_atom_laws_nonnegative(self, center, split):
        law = DistributionTable(
            np.array([center - 1.0, center + 1.0]), np.array([split, 1 - split])
        )
        assert wasserstein_to_normal(law) >= 0.0


def test_distances_of_a_large_law_add_no_table_sized_memory():
    # the blocked walk keeps its elementwise temporaries to one block; one
    # object array over all 2**20 atoms grew the peak by about 58 MB
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        from chaoslab.distance import DistributionTable, kolmogorov_to_normal, wasserstein_to_normal
        size = 2**20
        law = DistributionTable(np.linspace(-6.0, 6.0, size), np.full(size, 1.0 / size))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kolmogorov_to_normal(law)
        wasserstein_to_normal(law)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert float(out) < 8.0


class TestEmpirical:
    def test_rejects_small_samples(self):
        with pytest.raises(DomainError):
            empirical_distances(np.zeros(10))

    def test_deterministic_on_fixed_input(self):
        samples = np.concatenate([np.full(600, -1.0), np.full(600, 1.0)])
        a = empirical_distances(samples)
        b = empirical_distances(samples)
        assert a == b

    def test_dkw_envelope_on_exact_laws(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            model = random_model(rng, n)
            t = __import__("chaoslab").to_table(
                random_chaos(rng, n, centered=False), model
            )
            law = exact_distribution(t, model)
            dk = kolmogorov_to_normal(law)
            N = 100_000
            draws = sample_y_matrix(model, int(rng.integers(2**31)), N)
            idx = np.zeros(N, dtype=np.int64)
            for k in range(n):
                idx |= (draws[:, k] > 0).astype(np.int64) << k
            dk_hat, dw_hat, half = empirical_distances(t.values[idx])
            assert abs(dk_hat - dk) <= 3 * half
            assert dw_hat >= 0.0

    def test_normal_samples_shrinking_distance(self):
        gen = np.random.default_rng(4)
        small, *_ = empirical_distances(gen.standard_normal(2_000))
        big, *_ = empirical_distances(gen.standard_normal(200_000))
        assert big < small
        assert big < 0.01


class TestNormalCdf:
    def test_exact_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_reference_value(self):
        assert abs(normal_cdf(1.96) - PHI_196) <= 1e-12

    @given(st.floats(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-15

    def test_monotone_on_grid(self):
        xs = np.linspace(-8, 8, 4001)
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_quantile_inverts(self):
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert normal_cdf(NormalDist().inv_cdf(p)) == pytest.approx(p, abs=1e-12)


def erfc_grid(rng) -> np.ndarray:
    """Every range boundary of ``erfc`` (2**-56, 0.25, 0.84375, 1.25,
    1/0.35 and its high-word cut, 6, 28) on both signs with its 40 nearest
    floats on each side and 200 points within 0.1%; where the tail
    underflows (26.5, 27.2); the whole line; magnitudes from 1e-300 up;
    and signed zeros, infinities and NaN."""
    cuts = [2.0**-56, 0.25, 0.84375, 1.25, 1 / 0.35, float.fromhex("0x1.6db6dp+1"),
            6.0, 26.5, 27.2, 28.0]
    pts = [np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300])]
    for c in cuts:
        for x in (c, -c):
            up, down = [x], [x]
            for _ in range(40):
                up.append(np.nextafter(up[-1], math.inf))
                down.append(np.nextafter(down[-1], -math.inf))
            pts += [np.array(up + down), x * (1.0 + rng.uniform(-1e-3, 1e-3, 200))]
    pts.append(rng.uniform(-30.0, 30.0, 20000))
    pts.append(rng.uniform(-6.0, 6.0, 20000))
    pts.append(np.exp(rng.uniform(-690.0, 3.4, 5000)) * rng.choice([-1.0, 1.0], 5000))
    return np.concatenate(pts)


class TestNumpyErfc:
    def test_within_the_ulp_bound_of_math_erfc(self):
        x = erfc_grid(np.random.default_rng(20))
        got = erfc(x)
        want = np.array([math.erfc(v) for v in x.tolist()])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        ulps = np.abs(got[~nan].view(np.int64) - want[~nan].view(np.int64))
        assert ulps.max() <= ERFC_ULPS
        assert np.abs(got[~nan] - want[~nan]).max() <= np.finfo(float).eps
        if platform.libc_ver()[0] == "glibc":
            # no exponential below 1.25: glibc's polynomials in glibc's order
            no_exp = np.abs(x[~nan]) < 1.25
            assert np.array_equal(got[~nan][no_exp], want[~nan][no_exp])

    def test_phi_within_phi_err_with_headroom(self):
        x = np.sort(erfc_grid(np.random.default_rng(21)))
        x = x[np.isfinite(x)]
        assert len(x) >= _PHI_NUMPY
        want = np.array([normal_cdf(v) for v in x.tolist()])
        err = np.abs(distance._normal_cdf_array(x) - want).max()
        assert err <= np.finfo(float).eps <= _PHI_ERR / 40

    def test_input_order_does_not_change_a_value(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-8.0, 8.0, 5000)
        ascending = np.sort(x)
        assert np.array_equal(erfc(x), erfc(ascending)[np.argsort(np.argsort(x))])
        assert np.array_equal(erfc(ascending[::-1]), erfc(ascending)[::-1])
        assert erfc(np.array([])).shape == (0,)

    def test_below_the_crossover_phi_is_normal_cdf_bit_for_bit(self):
        x = np.sort(np.random.default_rng(23).normal(0.0, 3.0, _PHI_NUMPY - 1))
        assert distance._normal_cdf_array(x).tolist() == [normal_cdf(v) for v in x.tolist()]
