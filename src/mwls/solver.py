"""Backward least-squares solver for discrete BSDE dynamic programming.

The scheme runs backward in time.  At each index it draws a fresh simulation
cloud, assembles the weighted z-response and the plain y-response from the
terminal values and the previously fitted estimators, regresses both on
local-polynomial bases over the cloud's time-i states, and clamps the fits
to the a-priori envelopes from the constants pipeline.  The truncated
estimators feed the response sums of all earlier indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import BoundsTable, ProblemConstants, bounds_table
from .errors import NumericalError
from .grid import TimeGrid
from .model import MarkovModel, SimulationCloud, sample_cloud
from .regression import (
    LocalPolynomialEstimator,
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
        if self.C_xi < 0.0:
            raise ValueError(f"C_xi must be >= 0, got {self.C_xi}")
        if (self.C_phi is None) != (self.theta_phi is None):
            raise ValueError("C_phi and theta_phi must be supplied together")


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


def _require_fit(fits: Sequence, k: int, label: str) -> LocalPolynomialEstimator:
    if k >= len(fits) or fits[k] is None:
        raise ValueError(f"missing fitted {label} estimator at index {k}")
    return fits[k]


def _responses(
    cloud: SimulationCloud,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
    y_fits: Sequence,
    z_fits: Sequence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The z-response, the y-response less its k = i term, and y_{i+1}(X_{i+1}).

    Per row the z-response is phi(X_N) H_N + sum over k = i+1 .. N-1 of
    f_k(X_k, y_{k+1}(X_{k+1}), z_k(X_k)) H_k Delta_k, shape (M, q); there is
    no weight at the regression index itself.  The y-response is phi(X_N)
    plus the same sum without the weights, shape (M,); `_add_own_term` adds
    its k = i term once z_fits[i] is fitted.  The sums run in ascending k.
    The terms are evaluated from k = N-1 down: one design of X_k serves
    z_k(X_k) and y_k(X_k), and y_k(X_k) feeds term k-1.  The last value is
    phi(X_N) when i = N-1, and None for the zero driver.
    """
    i, n = cloud.i, grid.N
    x_n = cloud.x_at(n)
    phi = _callback_values(terminal.fn(x_n), x_n.shape[0], i)
    f_vals: dict[int, np.ndarray] = {}
    y_next = None if driver.is_zero else phi
    for k in () if driver.is_zero else range(n - 1, i, -1):
        x_k = cloud.x_at(k)
        z_fit = _require_fit(z_fits, k, "z")
        y_fit = _require_fit(y_fits, k, "y")
        z_design, y_design = shared_designs(x_k, z_fit.basis, y_fit.basis)
        z_here = z_fit.evaluate(x_k, design=z_design)
        f_vals[k] = _callback_values(driver.fn(k, x_k, y_next, z_here), x_k.shape[0], i, k)
        y_next = y_fit.evaluate(x_k, design=y_design)[:, 0]
    s_z = phi[:, None] * cloud.h_at(n)
    s_y = phi.copy()
    for k in sorted(f_vals):
        s_z = s_z + f_vals[k][:, None] * cloud.h_at(k) * grid.steps[k]
        s_y += f_vals[k] * grid.steps[k]
    return s_z, s_y, y_next


def _add_own_term(s_y, i, x_i, grid, driver, y_next, z_fits, z_design) -> None:
    """Add the k = i term f_i(X_i, y_{i+1}(X_{i+1}), z_i(X_i)) Delta_i to the
    y-response s_y in place; x_i holds the cloud's states X_i and z_design
    is z_fits[i]'s design of them."""
    if not driver.is_zero:
        z_here = _require_fit(z_fits, i, "z").evaluate(x_i, design=z_design)
        f_i = _callback_values(driver.fn(i, x_i, y_next, z_here), x_i.shape[0], i, i)
        s_y += f_i * grid.steps[i]


@dataclass(frozen=True, eq=False)
class MwlsSolution:
    """Fitted, truncated estimators for all time indices plus run metadata.

    y_fits[i] and z_fits[i] are the truncated estimators for i = 0 .. N-1;
    the value at index N is the terminal map itself.  marginals[i] holds the
    time-i states of the cloud used for the index-i regressions, so
    empirical norms over the training measure can be recomputed without
    re-simulating.  bounds is the constants table for the run's basis
    dimensions and cloud sizes, interdependence columns included.
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

    @property
    def N(self) -> int:
        return self.grid.N

    def y_values(self, i: int, points) -> np.ndarray:
        """y estimator values at time index i (index N = terminal map)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.model.d)
        if not 0 <= i <= self.N:
            raise ValueError(f"time index {i} out of range [0, {self.N}]")
        if i == self.N:
            return _callback_values(self.terminal.fn(pts), pts.shape[0], i)
        return self.y_fits[i].evaluate(pts)[:, 0]

    def z_values(self, i: int, points) -> np.ndarray:
        """z estimator values at time index i = 0 .. N-1, shape (M, q)."""
        if not 0 <= i < self.N:
            raise ValueError(f"time index {i} out of range [0, {self.N - 1}]")
        return self.z_fits[i].evaluate(points)


def _per_index(value, n: int, label: str) -> list:
    """The n per-index entries of a scalar, a 1-entry list or an n-entry list."""
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
    sizes = [int(m) for m in _per_index(cloud_sizes, n, "cloud size list")]
    for i in range(n):
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
        cloud_sizes: per-index cloud size M_i (a scalar or 1-entry list
            broadcasts).
        seed: root seed; index i draws its cloud from the (seed, i) stream.

    At each index i = N-1 .. 0 the z response is fitted and truncated first,
    then the y response (whose k = i term reads the fresh z fit).  Clouds
    are drawn per index and released once the responses are built; the fits
    read a copy of the cloud's X_i, kept as the index's marginal.
    """
    n = grid.N
    y_bases, z_bases, sizes = _per_index_inputs(model, n, y_basis, z_basis, cloud_sizes)
    pc = problem_constants(model, grid, driver, terminal)
    table = bounds_table(
        pc, grid, k_y=[b.K for b in y_bases], k_z=[b.K for b in z_bases], m=sizes
    )

    y_fits: list = [None] * n
    z_fits: list = [None] * n
    marginals: list = [None] * n
    for i in range(n - 1, -1, -1):
        cloud = sample_cloud(model, grid, i, sizes[i], seed)
        s_z, s_y, y_next = _responses(cloud, grid, driver, terminal, y_fits, z_fits)
        # a copy of X_i, so that the cloud is released before the fits
        x_i = marginals[i] = np.array(cloud.x_at(i))
        del cloud
        z_design, y_design = shared_designs(x_i, z_bases[i], y_bases[i])
        try:
            z_fits[i] = truncate_estimator(
                ols_fit(s_z, z_bases[i], x_i, design=z_design), float(table.C_z[i])
            )
            _add_own_term(s_y, i, x_i, grid, driver, y_next, z_fits, z_design)
            y_fits[i] = truncate_estimator(
                ols_fit(s_y, y_bases[i], x_i, design=y_design), float(table.C_y[i])
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"regression failed at time index {i}: {exc}") from exc

    return MwlsSolution(
        grid=grid,
        model=model,
        driver=driver,
        terminal=terminal,
        y_fits=tuple(y_fits),
        z_fits=tuple(z_fits),
        bounds=table,
        seed=int(seed),
        cloud_sizes=tuple(sizes),
        marginals=tuple(marginals),
    )
