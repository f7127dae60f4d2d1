"""Backward least-squares solver for discrete BSDE dynamic programming.

The scheme runs backward in time.  At each index it draws a fresh simulation
cloud, assembles the weighted z-response and the plain y-response from the
terminal values and the previously fitted estimators, regresses both on
local-polynomial bases over the cloud's time-i states, and clamps the fits
to the a-priori envelopes from the constants pipeline.  The truncated
estimators feed the response sums of all earlier indices.  One helper,
`_driver_values`, gives every driver term f_k(X_k, y_{k+1}, z_k(X_k)).  The
terminal term of the z-response is centered, (phi(X_N) - phi(X_i)) H_N, a
control variate with the same conditional mean as the paper's phi(X_N) H_N
(see `_responses`).

A cloud depends only on its (seed, i) stream, never on a fit, so one
producer thread draws the clouds' random input, one stream over the indices
N - 1 .. 0: each index's states X_i, then the normals of its tail in
ceil(M_i / `_BLOCK_ROWS`) blocks of equal size (long numpy calls that release
the GIL).  Equal blocks, not full ones and a short remainder, size every
buffer of the index, drawn ahead or being built on, for the rows it needs
and no more: a 50 000-row cloud is 4 blocks of 12 500 rows, not 3 of 16 384
and one of 848.  It runs
`_DRAWS_AHEAD` items ahead of the calling thread, across index boundaries,
so index i - 1's first blocks are drawn while index i is fitted.  The caller
takes the items one by one; per block it builds the paths and weights and
writes the block's responses in place into its rows of the cloud's
response arrays; then it fits.  A Brownian block holds two buffers: its
normals, which become its increments and then its weights in place, and
its paths.  Its driver terms are added to the responses as they are
evaluated, so it holds no table of them.  That arithmetic is many short
numpy calls; split over two threads it would pass the GIL back and forth
thousands of times a solve.  So a solve holds the drawn X_i of the index
at work (kept as the index's marginal), its response arrays, one block of
paths and weights, and at most `_DRAWS_AHEAD` more items of random input,
whatever the cloud sizes; no whole cloud of normals, paths and weights is
held, and the results are those of whole clouds, bit for bit.
"""

from __future__ import annotations

import collections
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import BoundsTable, ProblemConstants, _check_terminal_constants, bounds_table
from .errors import NumericalError
from .grid import TimeGrid, _as_count, _count_at_least
from .model import MarkovModel, SimulationCloud, _cloud_block, _cloud_draws
from .model import sample_cloud  # noqa: F401  (the benchmark's tracer wraps it here)
from .regression import (
    _as_points,
    _times_columns,
    ols_fit,
    shared_designs,
    truncate_estimator,
)

__all__ = [
    "DriverSpec",
    "TerminalSpec",
    "MwlsSolution",
    "zero_driver",
    "problem_constants",
    "mwls_solve",
]

# Most rows per cloud block: the normals of a block are drawn into one
# buffer, and their paths, weights and responses are built at a time, so no
# whole cloud of normals, paths and weights is held.  A cloud of M rows is
# cut into ceil(M / _BLOCK_ROWS) blocks of equal size (`_equal_block_rows`).
_BLOCK_ROWS = 16384

# Items of random input (an index's X_i or one block of its normals) that
# the producer draws ahead of the one the caller works on.  The two threads
# are near parity on b3-deep (all of a solve's draws take about as long as
# the caller's work), so a shorter lead leaves the caller waiting: one
# ahead made the solve 30% slower, two 11%.
_DRAWS_AHEAD = 3


@dataclass(frozen=True)
class DriverSpec:
    """Driver of the backward equation together with its growth constants.

    Args:
        fn: map (i, x, y, z) -> values with x of shape (M, d), y of shape
            (M,), z of shape (M, q), returning shape (M,) (scalars
            broadcast).  None encodes the identically-zero driver.
        L_f: scale of the local Lipschitz bound L_f/(T-t_i)^{(1-theta_L)/2}
            in (y, z).
        C_f: scale of the zero-input bound C_f/(T-t_i)^{1-theta_C}.
        theta_L: Lipschitz time-regularity exponent in (0, 1].
        theta_C: zero-input time-regularity exponent in (0, 1].
    """

    fn: Callable | None
    L_f: float
    C_f: float
    theta_L: float = 1.0
    theta_C: float = 1.0

    def __post_init__(self) -> None:
        if self.L_f < 0.0 or self.C_f < 0.0:
            raise ValueError(
                f"driver constants must be >= 0, got L_f={self.L_f}, C_f={self.C_f}"
            )
        if not (math.isfinite(self.L_f) and math.isfinite(self.C_f)):
            raise ValueError(
                f"driver constants must be finite, got L_f={self.L_f}, C_f={self.C_f}"
            )
        for name in ("theta_L", "theta_C"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")

    @property
    def is_zero(self) -> bool:
        return self.fn is None


def zero_driver() -> DriverSpec:
    """The identically-zero driver."""
    return DriverSpec(fn=None, L_f=0.0, C_f=0.0, theta_L=1.0, theta_C=1.0)


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal condition xi = phi(X_N) with its bound and regularity.

    Args:
        fn: vectorized terminal map, (M, d) states -> (M,) values.
        C_xi: uniform bound on |phi| over the relevant state region.
        C_phi: optional conditional-oscillation scale of phi.
        theta_phi: optional fractional-smoothness exponent in (0, 1];
            supplied together with C_phi.
    """

    fn: Callable
    C_xi: float
    C_phi: float | None = None
    theta_phi: float | None = None

    def __post_init__(self) -> None:
        if self.fn is None:
            raise ValueError("terminal map fn is required")
        _check_terminal_constants(self.C_xi, self.C_phi, self.theta_phi)


def problem_constants(
    model: MarkovModel,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
) -> ProblemConstants:
    """Collect the scalar constants of a (model, grid, driver, terminal)."""
    return ProblemConstants(
        L_f=driver.L_f,
        C_f=driver.C_f,
        theta_L=driver.theta_L,
        theta_C=driver.theta_C,
        C_M=model.C_M,
        C_xi=terminal.C_xi,
        T=grid.T,
        R_pi=max(1.0, grid.r_pi),
        q=model.q,
        C_phi=terminal.C_phi,
        theta_phi=terminal.theta_phi,
    )


def _callback_values(values, m: int, i: int, k: int | None = None) -> np.ndarray:
    """Checked (m,) values of the terminal map (k None) or of the driver's
    sum term k in the response at time index i; a scalar broadcasts."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        values = np.full(m, float(values))
    values = values.reshape(-1)
    if k is None:
        source, label, at, term = "terminal map", "terminal", "", ""
    else:
        source, label, at, term = "driver", "driver", f" at k={k}", f", sum term k={k}"
    if values.shape[0] != m:
        raise ValueError(f"{source} returned {values.shape[0]} values for {m} states{at}")
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"non-finite {label} value in the response at time index {i}{term}"
        )
    return values


def _driver_values(driver: DriverSpec, i: int, k: int, x_k, y_next, z_fit, z_design):
    """Checked (m,) values of f_k(X_k, y_next, z_k(X_k)), the driver's sum term k
    at time index i, on the (m, d) states x_k; z_design is z_fit's design of x_k."""
    z_here = z_fit.evaluate(x_k, design=z_design)
    return _callback_values(driver.fn(k, x_k, y_next, z_here), x_k.shape[0], i, k)


def _check_response(values: np.ndarray, label: str, i: int) -> None:
    """NumericalError naming the first non-finite row of an (M,) or (M, q)
    response at time index i as its path."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
        raise NumericalError(
            f"non-finite {label} at time index {i}, path {int(np.argmax(bad))}"
        )


def _responses(
    cloud: SimulationCloud,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
    y_fits: Sequence,
    z_fits: Sequence,
    s_z: np.ndarray,
    s_y: np.ndarray,
) -> np.ndarray | None:
    """Write the z-response into s_z, the y-response less its k = i term into
    s_y, and return y_{i+1}(X_{i+1}).

    Per row the z-response is (phi(X_N) - phi(X_i)) H_N + sum over
    k = i+1 .. N-1 of f_k(X_k, y_{k+1}(X_{k+1}), z_k(X_k)) H_k Delta_k,
    shape (M, q); there is no weight at the regression index itself.  As
    E[H_N | F_i] = 0, the centering term phi(X_i) H_N leaves the response's
    conditional mean as it is and takes out the variance that X_i drives
    (the martingale control variate of Alanko and Avellaneda, 2013).  The
    y-response is phi(X_N) plus the same sum without the weights, shape
    (M,); `mwls_solve` adds its k = i term once z_fits[i] is fitted.

    The terminal terms are written first; then each driver term, in
    ascending k, is added to both sums as soon as it is evaluated, so no
    table of driver values is held.  One design of X_k serves y_k(X_k),
    which feeds term k-1, and z_k(X_k), which feeds term k.  So the driver
    is called in ascending k, and of several non-finite driver terms the
    one at the lowest k is reported.  The value returned is phi(X_N) when
    i = N-1, and None for the zero driver.
    """
    i, n = cloud.i, grid.N
    phi = _callback_values(terminal.fn(cloud.x_at(n)), cloud.M, i)
    phi_i = _callback_values(terminal.fn(cloud.x_at(i)), cloud.M, i)
    _times_columns(phi - phi_i, cloud.h_at(n), s_z)
    s_y[:] = phi
    if driver.is_zero:
        return None

    def designed(k: int):
        """z_k's design of X_k and y_k(X_k), from one design; phi(X_N) at N."""
        if k == n:
            return None, phi
        x_k = cloud.x_at(k)
        z_design, y_design = shared_designs(x_k, z_fits[k].basis, y_fits[k].basis)
        return z_design, y_fits[k].evaluate(x_k, design=y_design)[:, 0]

    z_design, y_first = designed(i + 1)
    term, scaled = np.empty(s_z.shape), np.empty(s_y.shape)
    for k in range(i + 1, n):
        next_design, y_next = designed(k + 1)
        f_k = _driver_values(driver, i, k, cloud.x_at(k), y_next, z_fits[k], z_design)
        _times_columns(f_k, cloud.h_at(k), term)
        term *= grid.steps[k]
        s_z += term
        s_y += np.multiply(f_k, grid.steps[k], out=scaled)
        z_design = next_design
    return y_first


@dataclass(frozen=True, eq=False)
class MwlsSolution:
    """Fitted, truncated estimators for all time indices plus run metadata.

    y_fits[i] and z_fits[i] are the truncated estimators for i = 0 .. N-1;
    the value at index N is the terminal map itself.  marginals[i] is the
    drawn X_i itself, the (M_i, d) states that the cloud of the index-i
    regressions starts from, not a copy, so empirical norms over the
    training measure can be recomputed without re-simulating; it is
    read-only.  factors[i] maps the geometry of each index-i basis to the
    per-cell Gram factors (`Design.factors`) of marginals[i] under it, as
    the index-i fits built them, so the fits of `estimate_errors` on the
    same marginal do not factorize them again; the read-only marginal keeps
    them current.  They are kept without the design rows or cells, about
    0.1 MB an index at 1024 cells of degree 1 in d = 2.
    bounds is the constants table for the run's basis dimensions and cloud
    sizes, interdependence columns included; the error bound of
    `estimate_errors` is evaluated from it.
    """

    grid: TimeGrid
    model: MarkovModel
    driver: DriverSpec
    terminal: TerminalSpec
    y_fits: tuple
    z_fits: tuple
    bounds: BoundsTable
    seed: int
    cloud_sizes: tuple
    marginals: tuple
    factors: tuple

    @property
    def N(self) -> int:
        return self.grid.N

    def _index(self, i, last: int) -> int:
        """i as an int by `_as_count` (an integral float will do), if it lies
        in 0 .. last; either ValueError names it."""
        index = _as_count(i, f"time index {i!r}")
        if not 0 <= index <= last:
            raise ValueError(f"time index {index} out of range [0, {last}]")
        return index

    def y_values(self, i: int, points) -> np.ndarray:
        """y estimator values at time index i (index N = terminal map)."""
        i = self._index(i, self.N)
        if i < self.N:
            return self.y_fits[i].evaluate(points)[:, 0]
        pts = _as_points(points, self.model.d)  # the rule every fit reads points by
        return _callback_values(self.terminal.fn(pts), pts.shape[0], i)

    def z_values(self, i: int, points) -> np.ndarray:
        """z estimator values at time index i = 0 .. N-1, shape (M, q)."""
        return self.z_fits[self._index(i, self.N - 1)].evaluate(points)


def _drawn_ahead(producer: ThreadPoolExecutor, stream, count: int):
    """The count items of stream, in order, each advanced on producer.

    `_DRAWS_AHEAD` advances are kept submitted beyond the item that the
    caller waits for, so the producer draws that many items ahead of the one
    the caller works on and no more.  Once the last one is submitted the
    producer is shut down without waiting, so its thread ends after that
    draw.
    """
    pending: collections.deque = collections.deque()
    for _ in range(count):
        pending.append(producer.submit(next, stream))
        if len(pending) > _DRAWS_AHEAD:
            yield pending.popleft().result()
    # a thread that starts while another ends can find the C allocator's arena
    # still taken and open a third, which keeps freed memory of its own; ending
    # here, not when the solve returns, keeps the helper of `estimate_errors`
    # from starting as this thread ends (one benchmark run in fifteen peaked
    # 7-16 MB higher)
    producer.shutdown(wait=False)
    while pending:
        yield pending.popleft().result()


def _equal_block_rows(m: int) -> int:
    """Rows per block when a cloud of m rows is cut into the fewest blocks of
    at most `_BLOCK_ROWS` rows, all of this size but the last, which is at
    most one row per block shorter."""
    return -(-m // -(-m // _BLOCK_ROWS))


def _per_index(value, n: int, label: str) -> list:
    """The n per-index entries of a scalar, or of a 1-entry or n-entry list,
    tuple or 1-D array."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = list(value)
    if not isinstance(value, (list, tuple)):
        return [value] * n
    if len(value) == 1:
        return list(value) * n
    if len(value) != n:
        raise ValueError(f"{label} has {len(value)} entries, expected {n} or 1")
    return list(value)


def _per_index_inputs(model: MarkovModel, n: int, y_basis, z_basis, cloud_sizes):
    """The y bases, z bases and cloud sizes of the n indices, each checked
    against the model and each cloud size against its basis dimensions."""
    y_bases = _per_index(y_basis, n, "y basis list")
    z_bases = _per_index(z_basis, n, "z basis list")
    sizes = _per_index(cloud_sizes, n, "cloud size list")
    for i in range(n):
        sizes[i] = _as_count(sizes[i], f"cloud size {sizes[i]!r} at time index {i}")
        if y_bases[i].out_dim != 1:
            raise ValueError(
                f"y basis at index {i} fits {y_bases[i].out_dim} components, expected 1"
            )
        if z_bases[i].out_dim != model.q:
            raise ValueError(
                f"z basis at index {i} fits {z_bases[i].out_dim} components, expected q={model.q}"
            )
        if y_bases[i].d != model.d or z_bases[i].d != model.d:
            raise ValueError(f"basis dimension at index {i} does not match d={model.d}")
        needed = max(y_bases[i].K, z_bases[i].K)
        if sizes[i] < needed:
            raise ValueError(
                f"cloud size {sizes[i]} at time index {i} is below the basis dimension {needed}"
            )
    return y_bases, z_bases, sizes


def mwls_solve(
    model: MarkovModel,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
    y_basis,
    z_basis,
    cloud_sizes,
    seed: int,
) -> MwlsSolution:
    """Run the backward two-stage regression scheme.

    Args:
        model: path/weight simulator.
        grid: time grid with N steps.
        driver, terminal: problem data.
        y_basis, z_basis: one basis used at every index, or per-index lists
            of length N (a 1-entry list broadcasts).  The z basis must fit q
            components, the y basis one.
        cloud_sizes: per-index cloud size M_i, each an integer (a float
            with an integral value will do), as a list, tuple or 1-D array
            of length N such as `TuningPlan.m`; a scalar or 1-entry list
            broadcasts.
        seed: root seed, a non-negative integer (an integral float will
            do); index i draws its cloud from the (seed, i) stream.

    At each index i = N-1 .. 0 the z response is fitted and truncated first,
    then the y response (whose k = i term reads the fresh z fit).  The
    drawn X_i, made read-only, is kept as the index's marginal, and each
    block's responses are written in place into the cloud's arrays while
    one producer thread draws the random input a few blocks ahead, into the
    next index's (see the module docstring).  An exception from either
    thread is raised here, once the producer thread has finished the draws
    already submitted (at most `_DRAWS_AHEAD`) and stopped.  Every term of
    a response is finite, so a non-finite response row is a sum that
    overflowed: a `NumericalError` names its time index and row as path.
    """
    n = grid.N
    seed = _count_at_least(seed, "seed", 0)
    y_bases, z_bases, sizes = _per_index_inputs(model, n, y_basis, z_basis, cloud_sizes)
    pc = problem_constants(model, grid, driver, terminal)
    table = bounds_table(
        pc, grid, k_y=[b.K for b in y_bases], k_z=[b.K for b in z_bases], m=sizes
    )

    y_fits: list = [None] * n
    z_fits: list = [None] * n
    marginals: list = [None] * n
    factors: list = [None] * n
    block_rows = [_equal_block_rows(m) for m in sizes]
    with ThreadPoolExecutor(max_workers=1) as producer:
        # one stream over the indices, so the lead runs on into the next
        # index's input; it is advanced on the producer thread only
        stream = itertools.chain.from_iterable(
            _cloud_draws(model, grid, i, sizes[i], seed, block_rows[i])
            for i in range(n - 1, -1, -1)
        )
        count = sum(  # X_i, its blocks
            1 + len(range(0, m, rows)) for m, rows in zip(sizes, block_rows)
        )
        drawn = _drawn_ahead(producer, stream, count)
        for i in range(n - 1, -1, -1):
            x_i = next(drawn)
            x_i.flags.writeable = False  # factors[i] are those of these points
            s_z, s_y = np.empty((sizes[i], model.q)), np.empty(sizes[i])
            y_next = None if driver.is_zero else np.empty(sizes[i])
            for row0 in range(0, sizes[i], block_rows[i]):
                rows = slice(row0, row0 + block_rows[i])
                # the block's normals are passed on, not held, so they are
                # freed with the block whose weights they become
                block = _cloud_block(model, grid, i, x_i[rows], next(drawn), row0)
                next_rows = _responses(
                    block, grid, driver, terminal, y_fits, z_fits, s_z[rows], s_y[rows]
                )
                if y_next is not None:
                    y_next[rows] = next_rows
            del block  # the last block's paths and weights, before the fits
            marginals[i] = x_i
            z_design, y_design = shared_designs(x_i, z_bases[i], y_bases[i])
            try:
                _check_response(s_z, "z-response", i)
                z_fits[i] = truncate_estimator(
                    ols_fit(s_z, z_bases[i], x_i, design=z_design), float(table.C_z[i])
                )
                if not driver.is_zero:
                    f_i = _driver_values(driver, i, i, x_i, y_next, z_fits[i], z_design)
                    s_y += f_i * grid.steps[i]
                _check_response(s_y, "y-response", i)
                y_fits[i] = truncate_estimator(
                    ols_fit(s_y, y_bases[i], x_i, design=y_design), float(table.C_y[i])
                )
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"regression failed at time index {i}: {exc}") from exc
            factors[i] = {design.geometry: design.factors for design in (z_design, y_design)}

    return MwlsSolution(
        grid=grid,
        model=model,
        driver=driver,
        terminal=terminal,
        y_fits=tuple(y_fits),
        z_fits=tuple(z_fits),
        bounds=table,
        seed=seed,
        cloud_sizes=tuple(sizes),
        marginals=tuple(marginals),
        factors=tuple(factors),
    )
