"""Outside-in tracing of chaoslab's layers for the traced benchmark run.

The library has no tracing of its own, so the benchmark wraps the public
functions of each layer module in timing shims.  A shim is installed on
the defining module and on every other ``chaoslab`` namespace that
imported the same function object (``from .chaos import to_table``), so a
call made from inside another layer is recorded as a child span of that
layer's span.  Spans stay in memory and are summarised at the end.

Self time is a span's duration minus the part of it that its child spans
cover (the union of their intervals, so children running in parallel
threads are not subtracted twice).  Spans opened by pool threads take the
innermost open span of the thread that started tracing as their parent.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = (
    "model", "kernels", "chaos", "malliavin", "moments", "distance",
    "bounds", "construct", "verify", "io", "cli",
)

Counter = Callable[[tuple, dict, Any], "int | Callable[[], int]"]


def _nonzero(coeffs) -> int:
    return sum(1 for v in coeffs.values() if v != 0.0)


def _pair_checks(args, kwargs, result) -> int:
    pairs = _nonzero(args[0]) ** 2
    return pairs * (pairs + 1) // 2


def _candidates(args, kwargs, result):
    f, g = args[0], args[1]
    # counted after the run so the set building is not charged to any span
    return lambda: len({tuple(sorted(a + b)) for a in f.coeffs for b in g.coeffs})


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives, the span name and its counters."""

    layer: str
    owner: str  # attribute path inside the layer module, e.g. "RademacherModel.weights"
    span: str
    counters: tuple[tuple[str, Counter], ...] = ()


def _t(layer, owner, span=None, **counters) -> Target:
    return Target(layer, owner, span or f"{layer}.{owner}", tuple(counters.items()))


TARGETS: tuple[Target, ...] = (
    _t("model", "RademacherModel.weights", "model.weights"),
    _t("kernels", "random_kernel"),
    _t("kernels", "symmetrized_tensor", **{"kernels.symmetrized_tensor.candidates": _candidates}),
    _t("kernels", "off_diagonal_defect"),
    _t("kernels", "tensor_square_residual"),
    _t("chaos", "integral_table", **{"chaos.table_cells": lambda a, k, r: 2 ** a[1].n}),
    _t("chaos", "to_table"),
    _t("chaos", "stroock_decompose"),
    _t("chaos", "basis_coefficients"),
    _t("chaos", "basis_synthesis"),
    _t("chaos", "multiply"),
    _t("chaos", "conditional_expectation"),
    _t("malliavin", "d"),
    _t("malliavin", "gamma"),
    _t("malliavin", "gamma0"),
    _t("malliavin", "ou_generator_pathwise"),
    _t("moments", "moment"),
    _t("moments", "fourth_moment_factorized",
       **{"moments.fourth_moment_factorized.pair_checks": _pair_checks}),
    _t("moments", "fourth_moment_symmetric",
       **{"moments.fourth_moment_symmetric.pairs": lambda a, k, r: _nonzero(a[0]) ** 2}),
    _t("moments", "var_projection_sum"),
    _t("moments", "var_gamma_normalized"),
    _t("moments", "quartic_gradient_sum"),
    _t("moments", "quartic_gradient_identity"),
    _t("moments", "quartic_gradient_bound"),
    _t("moments", "sup_flip_pairing"),
    _t("moments", "kolmogorov_term"),
    _t("moments", "kolmogorov_term_bound"),
    _t("distance", "exact_distribution", **{
        "distance.exact_distribution.values_in": lambda a, k, r: len(a[0].values),
        "distance.atoms_out": lambda a, k, r: len(r.atoms),
    }),
    _t("distance", "kolmogorov_to_normal"),
    _t("distance", "wasserstein_to_normal"),
    _t("bounds", "theorem_bound_wasserstein"),
    _t("bounds", "theorem_bound_kolmogorov"),
    _t("bounds", "abstract_bounds"),
    _t("bounds", "hoeffding_decompose",
       **{"bounds.hoeffding_decompose.components": lambda a, k, r: len(r.components)}),
    _t("bounds", "degenerate_order"),
    _t("bounds", "rho_squared"),
    _t("bounds", "dejong_bound"),
    _t("construct", "symmetric_counterexample"),
    _t("construct", "g_value"),
    _t("io", "load_kernel", "io.load"),
    _t("io", "load_model", "io.load"),
    _t("cli", "main"),
    _t("verify", "run_suite"),
    _t("verify", "Check.run", "verify.check"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: int


class Tracer:
    """Installs the shims, records spans and counts, and removes the shims."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.deferred: list[tuple[str, Callable[[], int]]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import chaoslab

        namespaces = [chaoslab] + [importlib.import_module(f"chaoslab.{m}") for m in LAYERS]
        for target in TARGETS:
            module = importlib.import_module(f"chaoslab.{target.layer}")
            *path, attr = target.owner.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            shim = self._shim(original, target)
            self._patch(owner, attr, original, shim)
            if path:
                continue  # methods are reached through their class only
            for ns in namespaces:
                if ns is not module and getattr(ns, attr, None) is original:
                    self._patch(ns, attr, original, shim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, original, shim) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, shim)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, fn, target: Target):
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(target.span, clock(), 0.0, parent, threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    self.errors[target.layer] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            for name, counter in target.counters:
                value = counter(args, kwargs, result)
                if callable(value):
                    self.deferred.append((name, value))
                else:
                    self.counts[name] += value
            return result

        return shim

    # -- summary ---------------------------------------------------------

    def finish_counts(self) -> None:
        for name, thunk in self.deferred:
            self.counts[name] += thunk()
        self.deferred.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            dur = span.end - span.start
            covered = _union(
                (max(c.start, span.start), min(c.end, span.end)) for c in children.get(id(span), ())
            )
            row = out[span.name]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - covered
        return dict(out)

    def root_coverage(self) -> float:
        """Seconds covered by spans of the tracing thread that have no parent."""
        return _union((s.start, s.end) for s in self.spans if s.parent is None and s.thread == self._main)


def _union(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
