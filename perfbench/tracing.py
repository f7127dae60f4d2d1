"""Spans around the calls into each mwls layer, recorded from outside.

`instrument` swaps the public callables for timing wrappers at the places
where the calling module looks them up, and puts the originals back on
exit; nothing in the package itself is changed.  Spans stay in memory, each
with its parent's id, and are written out when the benchmark ends.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import time
from typing import Callable

import numpy as np

import mwls.harness
import mwls.solver
from mwls.regression import LocalPolynomialEstimator


@dataclasses.dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrap fn in a span; count(args, result) -> dict adds counters.

        Counters are computed after the span has ended, so their cost falls
        on the parent's self time, not on the layer's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else -1, name, 0.0, 0.0, {})
            self.spans.append(span)
            self._open.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def dump(self) -> list[list]:
        return [[s.id, s.parent, s.name, s.start, s.end, s.counts] for s in self.spans]


def self_time(spans: list[Span], span: Span) -> float:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    without overlap.
    """
    return span.duration - sum(s.duration for s in spans if s.parent == span.id)


def _evaluate_counts(args, result) -> dict:
    estimator, points = args[0], args[1]
    pts = np.asarray(points, dtype=float).reshape(-1, estimator.basis.d)
    inside = np.all(np.abs(pts) <= estimator.basis.radius, axis=1)
    return {"rows": pts.shape[0], "inside": int(inside.sum())}


def _ols_counts(args, result) -> dict:
    occupied = np.any(result.coefficients != 0.0, axis=(1, 2))
    return {
        "rows": np.asarray(args[0]).shape[0],
        "occupied": int(occupied.sum()),
        "cells": result.basis.n_cells,
    }


def _path_counts(args, result) -> dict:
    return {"steps": result.X.shape[0] * (result.X.shape[1] - 1)}


def _oracle_counts(args, result) -> dict:
    return {"rows": np.asarray(result).shape[0]}


def traced_problem(tracer: Tracer, problem):
    """The problem with its driver, terminal and oracle callables wrapped."""
    bench = problem.bench
    driver = bench.driver
    if not driver.is_zero:
        driver = dataclasses.replace(driver, fn=tracer.wrap("solver.driver", driver.fn))
    terminal = dataclasses.replace(
        bench.terminal, fn=tracer.wrap("solver.terminal", bench.terminal.fn)
    )
    bench = dataclasses.replace(
        bench,
        driver=driver,
        terminal=terminal,
        y_oracle=tracer.wrap("harness.oracle", bench.y_oracle, _oracle_counts),
        z_oracle=tracer.wrap("harness.oracle", bench.z_oracle, _oracle_counts),
    )
    return dataclasses.replace(problem, bench=bench)


@contextlib.contextmanager
def instrument(tracer: Tracer, model_class: type):
    """Install the layer wrappers for the duration of the block."""
    patches = [
        (mwls.solver, "sample_cloud", "model.sample_cloud", None),
        (mwls.solver, "ols_fit", "regression.ols_fit", _ols_counts),
        (mwls.solver, "bounds_table", "constants.bounds_table", None),
        (mwls.harness, "ols_fit", "regression.ols_fit", _ols_counts),
        (mwls.harness, "sample_marginal", "model.sample_marginal", None),
        (mwls.harness, "global_error_bound", "constants.global_error_bound", None),
        (LocalPolynomialEstimator, "evaluate", "regression.evaluate", _evaluate_counts),
        (model_class, "sample_paths", "model.sample_paths", _path_counts),
        (model_class, "malliavin_weights", "model.malliavin_weights", None),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _total(spans, name, key=None):
    chosen = [s for s in spans if s.name == name]
    if key is None:
        return sum(s.duration for s in chosen)
    return sum(s.counts[key] for s in chosen)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced solve + estimate_errors pair."""
    calls = collections.Counter(s.name for s in spans)
    solve = next(s for s in spans if s.name == "solver.mwls_solve")
    errors = next(s for s in spans if s.name == "harness.estimate_errors")
    eval_rows = _total(spans, "regression.evaluate", "rows")
    return {
        "model.sample_cloud.s": _total(spans, "model.sample_cloud"),
        "model.sample_cloud.calls": calls["model.sample_cloud"],
        "model.sample_paths.s": _total(spans, "model.sample_paths"),
        "model.malliavin_weights.s": _total(spans, "model.malliavin_weights"),
        "model.path_steps": _total(spans, "model.sample_paths", "steps"),
        "model.sample_marginal.s": _total(spans, "model.sample_marginal"),
        "regression.evaluate.s": _total(spans, "regression.evaluate"),
        "regression.evaluate.calls": calls["regression.evaluate"],
        "regression.evaluate.rows": eval_rows,
        "regression.evaluate.inside_frac": (
            _total(spans, "regression.evaluate", "inside") / eval_rows
        ),
        "regression.ols_fit.s": _total(spans, "regression.ols_fit"),
        "regression.ols_fit.calls": calls["regression.ols_fit"],
        "regression.ols_fit.rows": _total(spans, "regression.ols_fit", "rows"),
        "regression.ols_fit.occupied_cell_frac": (
            _total(spans, "regression.ols_fit", "occupied")
            / _total(spans, "regression.ols_fit", "cells")
        ),
        "solver.mwls_solve.s": solve.duration,
        "solver.mwls_solve.self_s": self_time(spans, solve),
        "solver.callbacks.s": (
            _total(spans, "solver.driver") + _total(spans, "solver.terminal")
        ),
        "solver.driver.calls": calls["solver.driver"],
        "solver.terminal.calls": calls["solver.terminal"],
        "harness.estimate_errors.s": errors.duration,
        "harness.estimate_errors.self_s": self_time(spans, errors),
        "harness.oracle.s": _total(spans, "harness.oracle"),
        "harness.oracle.calls": calls["harness.oracle"],
        "harness.oracle.rows": _total(spans, "harness.oracle", "rows"),
        "constants.bounds_table.s": _total(spans, "constants.bounds_table"),
        "constants.global_error_bound.s": _total(spans, "constants.global_error_bound"),
    }


def phase_shares(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Share of each root span's time spent in each layer below it.

    Layers nest (sample_cloud holds sample_paths), so a layer's share is
    its total time over the spans of that name under the root, not its
    self time.
    """
    by_id = {s.id: s for s in spans}

    def root_of(span):
        while span.parent != -1:
            span = by_id[span.parent]
        return span

    shares: dict[str, dict[str, float]] = {}
    for root in (s for s in spans if s.parent == -1):
        shares[root.name] = {}
    for s in spans:
        if s.parent == -1:
            continue
        root = root_of(s)
        table = shares[root.name]
        table[s.name] = table.get(s.name, 0.0) + s.duration / root.duration
    return shares
