"""The benchmark tracer still finds every library function it wraps.

``perfbench/spans.py`` shims the functions named in its ``TARGETS`` by
attribute lookup, so renaming or removing one of them breaks the traced
benchmark run.  These tests install and remove the tracer against the
current library.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab import (
    ChaosVector, RademacherModel, bounds, integral_table, kernels, malliavin, moments, random_kernel,
)
from chaoslab.construct import matched_pairs_kernel
from conftest import random_chaos

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)


def resolve(target):
    *path, attr = target.owner.split(".")
    owner = importlib.import_module(f"chaoslab.{target.layer}")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def test_every_target_is_shimmed_and_restored(spans):
    originals = {t: getattr(*resolve(t)) for t in spans.TARGETS}
    exported = {name: getattr(chaoslab, name) for name in chaoslab.__all__}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert getattr(*resolve(target)) is not original, target.span
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert getattr(*resolve(target)) is original, target.span
    assert {name: getattr(chaoslab, name) for name in chaoslab.__all__} == exported


def test_traced_dejong_route_records_spans_and_counts(spans):
    rng = np.random.default_rng(3)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    W = integral_table(random_kernel(2, 6, rng, normalized=True), model)
    with spans.Tracer() as tracer:
        bounds.dejong_bound(W, model)
    names = set(tracer.summary())
    assert {"bounds.dejong_bound", "bounds.hoeffding_decompose", "bounds.rho_squared"} <= names
    assert tracer.counts["bounds.hoeffding_decompose.components"] == 2**6
    assert not tracer.errors


@pytest.fixture
def ranked(monkeypatch):
    """The sizes of the tables whose levels were ranked for an indicator sup,
    one entry per ranking, whichever module made it."""
    calls, original = [], moments._sup_above_levels

    def spy(values, flow):
        calls.append(len(values))
        return original(values, flow)

    monkeypatch.setattr(moments, "_sup_above_levels", spy)
    monkeypatch.setattr(bounds, "_sup_above_levels", spy)
    return calls


@pytest.mark.parametrize("call", ["abstract_bounds", "kolmogorov_term"])
def test_traced_operator_terms_rank_the_levels_once(spans, ranked, call):
    # kolmogorov_term ranks through sup_flip_pairing; abstract_bounds ranks the
    # flow of its own coordinate sweep, with no sup_flip_pairing span
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = ChaosVector.from_kernel(random_kernel(2, 6, rng, normalized=True))
    owner = bounds if call == "abstract_bounds" else moments
    with spans.Tracer() as tracer:
        getattr(owner, call)(F, model)
    names = set(tracer.summary())
    assert f"{owner.__name__.split('.')[-1]}.{call}" in names
    assert ("moments.sup_flip_pairing" in names) == (call == "kolmogorov_term")
    assert ranked == [2**6]
    assert not tracer.errors


def test_traced_single_order_lines_reuse_the_general_terms(spans, ranked):
    # -L^-1 F = F/m for a pure integral, so the single-order lines need no
    # second indicator sup and no second squared field
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = ChaosVector.from_kernel(random_kernel(2, 6, rng, normalized=True))
    with spans.Tracer() as tracer:
        terms = bounds.abstract_bounds(F, model)
    summary = tracer.summary()
    assert "kolmogorov_single_order" in terms
    assert ranked == [2**6]
    assert "moments.sup_flip_pairing" not in summary
    assert summary["malliavin.gamma0"]["calls"] == 1
    assert not tracer.errors


def test_traced_squared_field_of_f_with_itself_synthesizes_once(spans):
    # LF of a pure order-m integral is -m times F's table
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = ChaosVector.from_kernel(random_kernel(2, 6, rng))
    with spans.Tracer() as tracer:
        malliavin.gamma(F, F, model)
    assert tracer.summary()["chaos.to_table"]["calls"] == 1  # F alone
    assert not tracer.errors


def test_traced_squared_field_of_a_mixed_vector_still_synthesizes_lf(spans):
    # orders 1 and 2 share no eigenvalue: LF needs its own synthesis
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = random_chaos(rng, 6, top=2)
    with spans.Tracer() as tracer:
        malliavin.gamma(F, F, model)
    assert tracer.summary()["chaos.to_table"]["calls"] == 2  # F and LF
    assert not tracer.errors


@pytest.mark.parametrize("call", ["off_diagonal_defect", "tensor_square_residual"])
def test_traced_tensor_terms_skip_the_multiset_enumeration(spans, call):
    # both read the overlapping support pairs; symmetrized_tensor stays for
    # check_product_top_kernel only
    f = random_kernel(3, 8, np.random.default_rng(7))
    with spans.Tracer() as tracer:
        getattr(kernels, call)(f)
    names = set(tracer.summary())
    assert f"kernels.{call}" in names
    assert "kernels.symmetrized_tensor" not in names
    assert not tracer.errors


def test_traced_quartic_gradient_identity_synthesizes_f_once(spans):
    # the table of F serves both sides of the identity and the squared field,
    # and LF is -m times it
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = ChaosVector.from_kernel(random_kernel(2, 6, rng, normalized=True))
    with spans.Tracer() as tracer:
        moments.quartic_gradient_identity(F, model)
    assert tracer.summary()["chaos.to_table"]["calls"] == 1  # F alone
    assert not tracer.errors


def test_traced_abstract_bounds_on_a_pure_integral_synthesizes_once(spans):
    # -L^-1 F of a pure order-m integral is F's table times 1/m
    rng = np.random.default_rng(5)
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 6)))
    F = ChaosVector.from_kernel(random_kernel(3, 6, rng, normalized=True))
    with spans.Tracer() as tracer:
        bounds.abstract_bounds(F, model)
    assert tracer.summary()["chaos.to_table"]["calls"] == 1  # F alone
    assert not tracer.errors


def test_traced_bound_on_matched_pairs_builds_one_small_piece_table(spans):
    # ten pieces of two coordinates, all alike: one 2**2 table, no 2**20 one
    kern, model = matched_pairs_kernel(20)
    with spans.Tracer() as tracer:
        bounds.theorem_bounds(ChaosVector.from_kernel(kern), model)
    tracer.finish_counts()
    assert tracer.summary()["chaos.integral_table"]["calls"] == 1
    assert tracer.counts["chaos.table_cells"] == 4
    assert tracer.counts["distance.exact_distribution.values_in"] == 4
    assert not tracer.errors
