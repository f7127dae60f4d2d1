"""Backward least-squares solver for discrete BSDE dynamic programming.

The scheme runs backward in time.  At each index it draws a fresh simulation
cloud, assembles the weighted z-response and the plain y-response from the
terminal values and the previously fitted estimators, regresses both on
local-polynomial bases over the cloud's time-i states, and clamps the fits
to the a-priori envelopes from the constants pipeline.  The truncated
estimators feed the response sums of all earlier indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import BoundsTable, ProblemConstants, bounds_table
from .errors import NumericalError
from .grid import TimeGrid
from .model import MarkovModel, SimulationCloud, sample_cloud
from .regression import (
    LocalPolynomialBasis,
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
    "build_z_response",
    "build_y_response",
    "mwls_solve",
    "evaluate_solution",
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


def _terminal_values(
    terminal: TerminalSpec, x_last: np.ndarray, i: int
) -> np.ndarray:
    values = np.asarray(terminal.fn(x_last), dtype=float)
    if values.ndim == 0:
        values = np.full(x_last.shape[0], float(values))
    values = values.reshape(-1)
    if values.shape[0] != x_last.shape[0]:
        raise ValueError(
            f"terminal map returned {values.shape[0]} values for {x_last.shape[0]} states"
        )
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"non-finite terminal value in the response at time index {i}"
        )
    return values


def _driver_values(
    driver: DriverSpec,
    k: int,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    i: int,
) -> np.ndarray:
    values = np.asarray(driver.fn(k, x, y, z), dtype=float)
    if values.ndim == 0:
        values = np.full(x.shape[0], float(values))
    values = values.reshape(-1)
    if values.shape[0] != x.shape[0]:
        raise ValueError(
            f"driver returned {values.shape[0]} values for {x.shape[0]} states at k={k}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"non-finite driver value in the response at time index {i}, sum term k={k}"
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
    with_y_next: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The z-response, the y-response less its k = i term, and y_{i+1}(X_{i+1}).

    The sums over k = i+1 .. N-1 of f_k(X_k, y_{k+1}(X_{k+1}), z_k(X_k))
    run in ascending k.  The terms are evaluated from k = N-1 down: one
    design of X_k serves z_k(X_k) and y_k(X_k), and y_k(X_k) feeds term
    k-1.  The last value is phi(X_N) when i = N-1, and None for the zero
    driver or when with_y_next is false.
    """
    i, n = cloud.i, grid.N
    phi = _terminal_values(terminal, cloud.x_at(n), i)
    f_vals: dict[int, np.ndarray] = {}
    y_next = None if driver.is_zero else phi
    for k in () if driver.is_zero else range(n - 1, i, -1):
        x_k = cloud.x_at(k)
        z_fit = _require_fit(z_fits, k, "z")
        # y_{i+1}(X_{i+1}) enters the y-response only
        y_fit = _require_fit(y_fits, k, "y") if with_y_next or k > i + 1 else None
        z_design, y_design = shared_designs(x_k, z_fit.basis, (y_fit or z_fit).basis)
        z_here = z_fit.evaluate(x_k, design=z_design)
        f_vals[k] = _driver_values(driver, k, x_k, y_next, z_here, i)
        y_next = None if y_fit is None else y_fit.evaluate(x_k, design=y_design)[:, 0]
    s_z = phi[:, None] * cloud.h_at(n)
    s_y = phi.copy()
    for k in sorted(f_vals):
        s_z = s_z + f_vals[k][:, None] * cloud.h_at(k) * grid.steps[k]
        s_y += f_vals[k] * grid.steps[k]
    return s_z, s_y, y_next


def _add_own_term(s_y, cloud, grid, driver, y_next, z_fits, z_design=None) -> None:
    """Add the k = i term f_i(X_i, y_{i+1}(X_{i+1}), z_i(X_i)) Delta_i to the
    y-response s_y in place; z_design, if given, is z_fits[i]'s design of X_i."""
    if not driver.is_zero:
        i, x_i = cloud.i, cloud.x_at(cloud.i)
        z_here = _require_fit(z_fits, i, "z").evaluate(x_i, design=z_design)
        s_y += _driver_values(driver, i, x_i, y_next, z_here, i) * grid.steps[i]


def build_z_response(
    cloud: SimulationCloud,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
    y_fits: Sequence,
    z_fits: Sequence,
) -> np.ndarray:
    """Weighted response for the z regression at the cloud's index i.

    Per row: phi(X_N) H_N + sum over k = i+1 .. N-1 of
    f_k(X_k, y_{k+1}(X_{k+1}), z_k(X_k)) H_k Delta_k, shape (M, q).  The sum
    starts at k = i+1 -- there is no weight at the regression index itself.
    """
    s_z, _, _ = _responses(
        cloud, grid, driver, terminal, y_fits, z_fits, with_y_next=False
    )
    return s_z


def build_y_response(
    cloud: SimulationCloud,
    grid: TimeGrid,
    driver: DriverSpec,
    terminal: TerminalSpec,
    y_fits: Sequence,
    z_fits: Sequence,
) -> np.ndarray:
    """Plain response for the y regression at the cloud's index i.

    Per row: phi(X_N) + sum over k = i .. N-1 of f_k Delta_k, shape (M,).
    The k = i term reads the z estimator of the same index, so z_fits[i]
    must already be fitted (z before y within each index).
    """
    _, s_y, y_next = _responses(cloud, grid, driver, terminal, y_fits, z_fits)
    _add_own_term(s_y, cloud, grid, driver, y_next, z_fits)
    return s_y


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
            return _terminal_values(self.terminal, pts, i)
        return self.y_fits[i].evaluate(pts)[:, 0]

    def z_values(self, i: int, points) -> np.ndarray:
        """z estimator values at time index i = 0 .. N-1, shape (M, q)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.model.d)
        if not 0 <= i < self.N:
            raise ValueError(f"time index {i} out of range [0, {self.N - 1}]")
        return self.z_fits[i].evaluate(pts)


def _per_index(value, n: int, label: str) -> list:
    """Broadcast a single spec to all indices or validate a per-index list."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"{label} list has {len(value)} entries, expected {n}")
        return list(value)
    return [value] * n


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
            of length N.  The z basis must fit q components, the y basis one.
        cloud_sizes: per-index cloud size M_i (scalar broadcasts).
        seed: root seed; index i draws its cloud from the (seed, i) stream.

    At each index i = N-1 .. 0 the z response is fitted and truncated first,
    then the y response (whose k = i term reads the fresh z fit).  Clouds
    are drawn per index and released after the two regressions.
    """
    n = grid.N
    y_bases = _per_index(y_basis, n, "y basis")
    z_bases = _per_index(z_basis, n, "z basis")
    sizes = [int(m) for m in _per_index(cloud_sizes, n, "cloud size")]
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

    pc = problem_constants(model, grid, driver, terminal)
    table = bounds_table(
        pc, grid, k_y=[b.K for b in y_bases], k_z=[b.K for b in z_bases], m=sizes
    )

    y_fits: list = [None] * n
    z_fits: list = [None] * n
    marginals: list = [None] * n
    for i in range(n - 1, -1, -1):
        cloud = sample_cloud(model, grid, i, sizes[i], seed)
        x_i = cloud.x_at(i)
        s_z, s_y, y_next = _responses(cloud, grid, driver, terminal, y_fits, z_fits)
        z_design, y_design = shared_designs(x_i, z_bases[i], y_bases[i])
        try:
            z_fits[i] = truncate_estimator(
                ols_fit(s_z, z_bases[i], x_i, design=z_design), float(table.C_z[i])
            )
            _add_own_term(s_y, cloud, grid, driver, y_next, z_fits, z_design)
            y_fits[i] = truncate_estimator(
                ols_fit(s_y, y_bases[i], x_i, design=y_design), float(table.C_y[i])
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"regression failed at time index {i}: {exc}") from exc
        marginals[i] = np.array(x_i)
        # x_i views the cloud: release both before the next cloud is drawn
        del cloud, x_i

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


def evaluate_solution(sol: MwlsSolution, i: int, x) -> tuple[float, np.ndarray | None]:
    """Query the solution at one point: (y value, z vector or None at i = N)."""
    if not 0 <= i <= sol.N:
        raise ValueError(f"time index {i} out of range [0, {sol.N}]")
    point = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, sol.model.d)
    if i == sol.N:
        return float(_terminal_values(sol.terminal, point, i)[0]), None
    y = float(sol.y_fits[i].evaluate(point)[0, 0])
    z = sol.z_fits[i].evaluate(point)[0]
    return y, z
