"""Benchmarks with exact oracles, error reports, tuning rules, and sweeps.

The benchmark problems are chosen so the discrete backward equation has a
closed-form or quadrature-exact solution: a martingale terminal (y = x,
z = 1), a smooth bounded terminal solved by Gaussian quadrature of the heat
kernel, a linear driver solved by backward substitution, and a Hölder
terminal for near-horizon behavior.  Error reports compare a fitted
solution against an oracle in the training measure and in fresh samples,
and evaluate the deterministic error bound alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import dep_errors, global_error_bound
from .grid import TimeGrid, make_theta_grid
from .model import MarkovModel, brownian_model, derive_seed, sample_marginal
from .regression import LocalPolynomialBasis, ols_fit, shared_designs
from .solver import (
    DriverSpec,
    MwlsSolution,
    TerminalSpec,
    _per_index_inputs,
    mwls_solve,
    problem_constants,
    zero_driver,
)

__all__ = [
    "Benchmark",
    "ErrorReport",
    "TuningPlan",
    "StudyTable",
    "register_benchmarks",
    "benchmark_b1",
    "benchmark_b2",
    "benchmark_b3",
    "benchmark_b4",
    "benchmark_zero",
    "estimate_errors",
    "tune_parameters",
    "convergence_study",
    "approximation_study",
]


@dataclass(frozen=True)
class Benchmark:
    """A solvable problem: model, driver, terminal, and exact value maps.

    The oracles take (grid, i, points) with points of shape (M, d) and
    return the exact y values (M,) and z values (M, q) of the discrete
    backward equation on that grid.
    """

    name: str
    model: MarkovModel
    driver: DriverSpec
    terminal: TerminalSpec
    y_oracle: Callable
    z_oracle: Callable
    description: str = ""


# ---------------------------------------------------------------------------
# benchmark problems

_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(96)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS / math.sqrt(2.0 * math.pi)


def _gauss_mean(fn: Callable, x: np.ndarray, scale: float) -> np.ndarray:
    """E[fn(x + scale*G)] for standard normal G, per row of x."""
    spread = x[:, None] + scale * _HERMITE_NODES[None, :]
    return fn(spread) @ _HERMITE_WEIGHTS


def _gauss_weighted_mean(fn: Callable, x: np.ndarray, scale: float) -> np.ndarray:
    """E[fn(x + scale*G) * G] for standard normal G, per row of x."""
    spread = x[:, None] + scale * _HERMITE_NODES[None, :]
    return (fn(spread) * _HERMITE_NODES[None, :]) @ _HERMITE_WEIGHTS


def benchmark_b1(x0_width: float = 5.0) -> Benchmark:
    """Zero driver, terminal phi(x) = x: exact values y_i(x) = x, z_i = 1."""
    model = brownian_model(d=1, x0=0.0, x0_width=x0_width)
    terminal = TerminalSpec(fn=lambda x: x[:, 0], C_xi=8.0, C_phi=1.0, theta_phi=1.0)

    def y_oracle(grid, i, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]

    def z_oracle(grid, i, pts):
        return np.ones((np.asarray(pts).reshape(-1, 1).shape[0], 1))

    return Benchmark(
        name="b1",
        model=model,
        driver=zero_driver(),
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description="martingale terminal phi(x)=x on a start box",
    )


def benchmark_b2(x0_width: float = 5.0) -> Benchmark:
    """Zero driver, terminal tanh(x): oracle by Gaussian quadrature."""
    model = brownian_model(d=1, x0=0.0, x0_width=x0_width)
    terminal = TerminalSpec(fn=lambda x: np.tanh(x[:, 0]), C_xi=1.0, C_phi=1.0, theta_phi=1.0)

    def y_oracle(grid, i, pts):
        x = np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]
        if i == grid.N:
            return np.tanh(x)
        return _gauss_mean(np.tanh, x, math.sqrt(grid.T - grid.points[i]))

    def z_oracle(grid, i, pts):
        x = np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]
        span = grid.T - grid.points[i]
        vals = _gauss_weighted_mean(np.tanh, x, math.sqrt(span)) / math.sqrt(span)
        return vals[:, None]

    return Benchmark(
        name="b2",
        model=model,
        driver=zero_driver(),
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description="bounded smooth terminal tanh(x), heat-kernel quadrature oracle",
    )


def _b3_coefficients(grid: TimeGrid, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Backward substitution for the linear driver f = alpha * y.

    With the martingale terminal phi(x) = x, the ansatz y_i(x) = c_i x
    closes the backward recursion: c_N = 1 and c_i = c_{i+1} (1 + alpha
    Delta_i).  The z values are constants z_i = 1 + alpha * sum over
    j = i+1 .. N-1 of c_{j+1} Delta_j.
    """
    n = grid.N
    c = np.ones(n + 1)
    for i in range(n - 1, -1, -1):
        c[i] = c[i + 1] * (1.0 + alpha * grid.steps[i])
    z_levels = np.ones(n)
    for i in range(n):
        tail = sum(c[j + 1] * grid.steps[j] for j in range(i + 1, n))
        z_levels[i] = 1.0 + alpha * tail
    return c, z_levels


def benchmark_b3(alpha: float = 0.5, x0_width: float = 5.0) -> Benchmark:
    """Linear driver f = alpha*y with terminal phi(x) = x; exact recursion."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    model = brownian_model(d=1, x0=0.0, x0_width=x0_width)
    driver = DriverSpec(
        fn=lambda k, x, y, z: alpha * y, L_f=abs(alpha), C_f=0.0, theta_L=1.0, theta_C=1.0
    )
    terminal = TerminalSpec(fn=lambda x: x[:, 0], C_xi=8.0, C_phi=1.0, theta_phi=1.0)

    last: list = [None]  # (grid, coefficients), replaced whole for threads

    def coefficients(grid):
        entry = last[0]
        if entry is None or entry[0] is not grid:
            entry = (grid, _b3_coefficients(grid, alpha))
            last[0] = entry
        return entry[1]

    def y_oracle(grid, i, pts):
        c, _ = coefficients(grid)
        return c[i] * np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]

    def z_oracle(grid, i, pts):
        _, z_levels = coefficients(grid)
        m = np.asarray(pts).reshape(-1, 1).shape[0]
        return np.full((m, 1), z_levels[i])

    return Benchmark(
        name="b3",
        model=model,
        driver=driver,
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description=f"linear driver f = {alpha}*y, backward-substitution oracle",
    )


def benchmark_b4(theta_phi: float = 0.5, cap: float = 1.0, x0_width: float = 5.0) -> Benchmark:
    """Hölder terminal phi(x) = min(|x|^theta_phi, cap) for near-horizon studies."""
    if not 0.0 < theta_phi < 1.0:
        raise ValueError(f"theta_phi must lie in (0, 1), got {theta_phi}")
    if cap <= 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    if not math.isfinite(cap):
        raise ValueError(f"cap must be finite, got {cap}")
    model = brownian_model(d=1, x0=0.0, x0_width=x0_width)

    def phi(values):
        return np.minimum(np.abs(values) ** theta_phi, cap)

    terminal = TerminalSpec(
        fn=lambda x: phi(x[:, 0]), C_xi=cap, C_phi=1.0, theta_phi=theta_phi
    )

    def y_oracle(grid, i, pts):
        x = np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]
        if i == grid.N:
            return phi(x)
        return _holder_quadrature(phi, x, math.sqrt(grid.T - grid.points[i]), cap, theta_phi)

    def z_oracle(grid, i, pts):
        x = np.asarray(pts, dtype=float).reshape(-1, 1)[:, 0]
        span = grid.T - grid.points[i]
        scale = math.sqrt(span)
        vals = _holder_quadrature(
            phi, x, scale, cap, theta_phi, weight_by_g=True
        ) / scale
        return vals[:, None]

    return Benchmark(
        name="b4",
        model=model,
        driver=zero_driver(),
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description=f"Hölder terminal min(|x|^{theta_phi}, {cap})",
    )


def _holder_quadrature(
    phi: Callable,
    x: np.ndarray,
    scale: float,
    cap: float,
    theta_phi: float,
    weight_by_g: bool = False,
) -> np.ndarray:
    """E[phi(x + scale*G)] (optionally * G) by adaptive quadrature.

    phi has kinks where |x + scale*g| hits 0 or the cap threshold; those g
    locations are passed as breakpoints so the integrator subdivides there.
    """
    from scipy.integrate import quad

    edge = cap ** (1.0 / theta_phi)
    out = np.empty(x.size)
    for row, center in enumerate(np.asarray(x, dtype=float)):
        kinks = sorted((v - center) / scale for v in (-edge, 0.0, edge))
        points = [g for g in kinks if -8.5 < g < 8.5]

        def integrand(g):
            value = phi(np.array([center + scale * g]))[0]
            if weight_by_g:
                value *= g
            return value * math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi)

        out[row], _ = quad(integrand, -8.5, 8.5, points=points, limit=200)
    return out


def benchmark_zero(x0_width: float = 5.0) -> Benchmark:
    """Zero driver and zero terminal: the solution vanishes identically."""
    model = brownian_model(d=1, x0=0.0, x0_width=x0_width)
    terminal = TerminalSpec(fn=lambda x: np.zeros(x.shape[0]), C_xi=0.0)

    def y_oracle(grid, i, pts):
        return np.zeros(np.asarray(pts).reshape(-1, 1).shape[0])

    def z_oracle(grid, i, pts):
        return np.zeros((np.asarray(pts).reshape(-1, 1).shape[0], 1))

    return Benchmark(
        name="zero",
        model=model,
        driver=zero_driver(),
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description="identically-zero data and solution",
    )


def register_benchmarks() -> dict[str, Callable[..., Benchmark]]:
    """Factories for the built-in benchmark problems, keyed by id."""
    return {
        "b1": benchmark_b1,
        "b2": benchmark_b2,
        "b3": benchmark_b3,
        "b4": benchmark_b4,
        "zero": benchmark_zero,
    }


# ---------------------------------------------------------------------------
# error reports


@dataclass(frozen=True)
class ErrorReport:
    """Measured errors of a solution against an oracle, plus bound columns.

    emp_* are root-mean-square errors over the training marginals (the
    empirical norms of the run itself); fresh_* estimate the same norms
    under the true time-i laws from fresh, independent samples, with
    fresh_*_se their Monte Carlo standard errors.  e_app_* are fitted
    approximation-error estimates, dep_* the interdependence error terms,
    and bound_* the deterministic error-bound evaluation.  cost counts
    simulated path-steps, N * sum of cloud sizes.

    dep_* scale with the observation bounds Theta_y, Theta_z.  The e_dep_*
    columns of bounds.csv (BoundsTable.E_dep_*), and the interdependence
    terms inside bound_*, scale with the truncation levels C_y, C_z
    instead, so errors.csv and bounds.csv show different numbers under
    similar names.

    fresh_*_se treats the squared errors as well-behaved samples, and it
    understates the spread when a few fresh points land in edge cells that
    the training cloud leaves (nearly) empty: their squared errors are heavy
    tailed.  On b3 (N = 20, M = 50k, seed 5) fresh_y[2] reads 0.0407 +-
    0.0005 at fresh seed 5 and 0.0488 +- 0.0072 at fresh seed 6, where one
    point at x = 3.78 carries 31% of the squared error.
    """

    grid: TimeGrid
    emp_y: np.ndarray
    emp_z: np.ndarray
    fresh_y: np.ndarray
    fresh_z: np.ndarray
    fresh_y_se: np.ndarray
    fresh_z_se: np.ndarray
    e_app_y: np.ndarray
    e_app_z: np.ndarray
    dep_y: np.ndarray
    dep_z: np.ndarray
    bound_y: np.ndarray
    bound_z: np.ndarray
    cost: int
    fresh_m: int
    seed: int


def _rms(residual: np.ndarray) -> float:
    """Root mean square of rows; rows may be vectors (summed over components)."""
    sq = residual**2
    if sq.ndim > 1:
        sq = sq.sum(axis=1)
    return float(np.sqrt(np.mean(sq)))


def _norm_and_se(residual: np.ndarray) -> tuple[float, float]:
    """RMS norm of rows and the Monte Carlo standard error of that norm."""
    sq = residual**2
    if sq.ndim > 1:
        sq = sq.sum(axis=1)
    mean_sq = float(np.mean(sq))
    se_sq = float(np.std(sq)) / math.sqrt(sq.size)
    norm = math.sqrt(mean_sq)
    if norm > 1e-300:
        return norm, se_sq / (2.0 * norm)
    return norm, math.sqrt(se_sq)


def _oracle_values(oracle_fn, grid, i, pts, shape, label):
    values = np.asarray(oracle_fn(grid, i, pts), dtype=float)
    if values.size != int(np.prod(shape)):
        raise ValueError(
            f"{label} oracle returned shape {values.shape} at index {i}, expected {shape}"
        )
    values = values.reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} oracle returned non-finite values at index {i}")
    return values


def estimate_errors(
    sol: MwlsSolution,
    oracle,
    fresh_m: int = 100_000,
    seed: int | None = None,
) -> ErrorReport:
    """Measure a solution against exact value maps and evaluate the bound.

    Args:
        sol: fitted solution.
        oracle: object with y_oracle(grid, i, pts) and z_oracle(grid, i, pts).
        fresh_m: sample count for the fresh-sample (true-law) norm estimates;
            these use random streams disjoint from every solver cloud.
        seed: stream seed for the fresh samples (default: the run's seed).
    """
    if fresh_m < 1:
        raise ValueError(f"fresh_m must be >= 1, got {fresh_m}")
    grid, model = sol.grid, sol.model
    n, q = grid.N, model.q
    seed = sol.seed if seed is None else int(seed)

    emp_y = np.zeros(n)
    emp_z = np.zeros(n)
    fresh_y = np.zeros(n)
    fresh_z = np.zeros(n)
    fresh_y_se = np.zeros(n)
    fresh_z_se = np.zeros(n)
    e_app_y = np.zeros(n)
    e_app_z = np.zeros(n)
    for i in range(n):
        pts = sol.marginals[i]
        y_fit, z_fit = sol.y_fits[i], sol.z_fits[i]
        y_design, z_design = shared_designs(pts, y_fit.basis, z_fit.basis)
        oy = _oracle_values(oracle.y_oracle, grid, i, pts, (pts.shape[0],), "y")
        oz = _oracle_values(oracle.z_oracle, grid, i, pts, (pts.shape[0], q), "z")
        emp_y[i] = _rms(y_fit.evaluate(pts, design=y_design)[:, 0] - oy)
        emp_z[i] = _rms(z_fit.evaluate(pts, design=z_design) - oz)

        # approximation-error estimates: residual of fitting the oracle
        # itself on the same basis over the same cloud marginals
        app_y = ols_fit(oy, y_fit.basis, pts, design=y_design)
        app_z = ols_fit(oz, z_fit.basis, pts, design=z_design)
        e_app_y[i] = _rms(app_y.evaluate(pts, design=y_design)[:, 0] - oy)
        e_app_z[i] = _rms(app_z.evaluate(pts, design=z_design) - oz)

        del y_design, z_design  # one point set's designs alive at a time
        fresh_pts = sample_marginal(model, grid, i, fresh_m, seed).reshape(fresh_m, -1)
        y_design, z_design = shared_designs(fresh_pts, y_fit.basis, z_fit.basis)
        foy = _oracle_values(oracle.y_oracle, grid, i, fresh_pts, (fresh_m,), "y")
        foz = _oracle_values(oracle.z_oracle, grid, i, fresh_pts, (fresh_m, q), "z")
        fresh_y[i], fresh_y_se[i] = _norm_and_se(
            y_fit.evaluate(fresh_pts, design=y_design)[:, 0] - foy
        )
        fresh_z[i], fresh_z_se[i] = _norm_and_se(
            z_fit.evaluate(fresh_pts, design=z_design) - foz
        )

    k_y = np.array([fit.basis.K for fit in sol.y_fits], dtype=float)
    k_z = np.array([fit.basis.K for fit in sol.z_fits], dtype=float)
    m = np.asarray(sol.cloud_sizes, dtype=float)
    dep_y = np.asarray(dep_errors(sol.bounds.Theta_y, k_y, m))
    dep_z = np.asarray(dep_errors(sol.bounds.Theta_z, k_z, m, q=q))

    pc = problem_constants(model, grid, sol.driver, sol.terminal)
    bound_y, bound_z = global_error_bound(pc, grid, e_app_y, e_app_z, k_y, k_z, m)

    return ErrorReport(
        grid=grid,
        emp_y=emp_y,
        emp_z=emp_z,
        fresh_y=fresh_y,
        fresh_z=fresh_z,
        fresh_y_se=fresh_y_se,
        fresh_z_se=fresh_z_se,
        e_app_y=e_app_y,
        e_app_z=e_app_z,
        dep_y=dep_y,
        dep_z=dep_z,
        bound_y=bound_y,
        bound_z=bound_z,
        cost=int(grid.N * sum(sol.cloud_sizes)),
        fresh_m=int(fresh_m),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# parameter tuning


# Cloud sizes are stored as 64-bit integers.
_M_LIMIT = 2.0**63


@dataclass(frozen=True)
class TuningPlan:
    """Per-index discretization parameters from the balancing rules.

    delta_y/delta_z are cell edges for the y and z bases (both of degree l),
    m the per-index cloud sizes, R the basis half-width.  The complexity
    exponent states the predicted accuracy ~ cost^(-exponent) decay.
    """

    regime: str
    N: int
    kappa: float
    l: int
    d: int
    lam: float
    theta_pi: float | None
    grid: TimeGrid
    R: float
    delta_y: np.ndarray
    delta_z: np.ndarray
    m: np.ndarray

    @property
    def complexity_exponent(self) -> float:
        inner = 2.0 + self.d / self.l
        if self.regime == "smooth":
            return 1.0 / (inner + 2.0 / self.kappa)
        theta = self.theta_pi if self.theta_pi is not None else 1.0
        return 1.0 / (inner + (1.0 + max(self.d / (2.0 * theta), 1.0)) / self.kappa)


def tune_parameters(
    N: int,
    kappa: float,
    l: int,
    d: int,
    lam: float,
    regime: str,
    theta_pi: float | None = None,
    T: float = 1.0,
    grid: TimeGrid | None = None,
) -> TuningPlan:
    """Evaluate the balancing rules for basis sizes and cloud sizes.

    Smooth regime: delta_y = N^(-kappa/(l+1)), delta_z = N^(-kappa/l), and
    M = ceil((log(N+1))^(d+1) N^(kappa(2+d/l))), all uniform in i.  Hölder
    regime: the same scaled by sqrt(T-t_i) per index, with M_i additionally
    multiplied by (T-t_i)^(-d/2); the default grid concentrates points near
    the horizon with exponent theta_pi.  R = 2 kappa log(N+1) / lam in both.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    if l < 1:
        raise ValueError(f"l must be >= 1 (degree-l z basis), got {l}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if regime not in ("smooth", "holder"):
        raise ValueError(f"regime must be 'smooth' or 'holder', got {regime!r}")
    if regime == "holder":
        if theta_pi is None:
            raise ValueError("holder regime requires theta_pi")
        if not 0.0 < theta_pi <= 1.0:
            raise ValueError(f"theta_pi must lie in (0, 1], got {theta_pi}")
    if grid is None:
        grid = make_theta_grid(T, N, theta=theta_pi if regime == "holder" else 1.0)
    elif grid.N != N:
        raise ValueError(f"grid has {grid.N} steps, expected N={N}")

    log_n1 = math.log(N + 1.0)
    radius = 2.0 * kappa * log_n1 / lam
    base_dy = float(N) ** (-kappa / (l + 1.0))
    base_dz = float(N) ** (-kappa / l)
    try:
        base_m = log_n1 ** (d + 1.0) * float(N) ** (kappa * (2.0 + d / l))
    except OverflowError:
        base_m = math.inf

    ttg = grid.T - grid.points[:-1]
    if regime == "smooth":
        delta_y = np.full(N, base_dy)
        delta_z = np.full(N, base_dz)
        m_real = np.full(N, base_m)
    else:
        scale = np.sqrt(ttg)
        delta_y = scale * base_dy
        delta_z = scale * base_dz
        with np.errstate(over="ignore"):
            m_real = np.array([base_m * t ** (-d / 2.0) for t in ttg])
    if not np.all(m_real < _M_LIMIT):
        raise ValueError(
            f"cloud size out of range: N={N}, kappa={kappa}, l={l}, d={d}, "
            f"lambda={lam} give M={m_real.max():.3g}, above {_M_LIMIT:.3g}"
        )
    m = np.ceil(m_real).astype(int)

    for i in range(N):
        k_y = LocalPolynomialBasis(degree=l, delta=float(delta_y[i]), radius=radius, d=d).K
        k_z = LocalPolynomialBasis(degree=l, delta=float(delta_z[i]), radius=radius, d=d).K
        if m[i] < max(k_y, k_z):
            raise ValueError(
                f"plan is not self-consistent at index {i}: "
                f"M={m[i]} below basis dimension {max(k_y, k_z)}"
            )

    return TuningPlan(
        regime=regime,
        N=N,
        kappa=kappa,
        l=l,
        d=d,
        lam=lam,
        theta_pi=theta_pi,
        grid=grid,
        R=radius,
        delta_y=delta_y,
        delta_z=delta_z,
        m=m,
    )


# ---------------------------------------------------------------------------
# sweep studies


@dataclass(frozen=True)
class StudyTable:
    """One row per sweep point: the swept value, errors, and exact cost.

    slope_* are log-log slopes of the fresh-sample errors against the swept
    value; slope_emp_* the same for the training-measure errors.
    """

    parameter: str
    values: tuple
    emp_y: np.ndarray
    emp_z: np.ndarray
    fresh_y: np.ndarray
    fresh_z: np.ndarray
    costs: np.ndarray
    slope_y: float
    slope_z: float
    slope_emp_y: float
    slope_emp_z: float
    index: int
    reports: tuple


def convergence_study(
    benchmark: Benchmark,
    grid: TimeGrid,
    y_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    z_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    m_values: Sequence[int],
    seed: int,
    fresh_m: int = 20_000,
    index: int | None = None,
    threads: int | None = None,
) -> StudyTable:
    """Sweep the cloud size M: one solver run per value, errors and slopes.

    y_basis and z_basis are one basis for every index or per-index lists,
    as in `mwls_solve`; each value of m_values is used at every index.
    Each sweep point runs with its own derived seed, so points are
    independent and the study is reproducible regardless of thread count.
    The readout errors are taken at one time index (default: the middle);
    slopes are least-squares fits of log error against log M.
    """
    if len(m_values) < 2:
        raise ValueError("an M sweep needs at least two values")
    readout = grid.N // 2 if index is None else int(index)
    if not 0 <= readout < grid.N:
        raise ValueError(f"readout index {readout} out of range [0, {grid.N - 1}]")
    for m in m_values:  # all of them, before any point is solved
        _per_index_inputs(benchmark.model, grid.N, y_basis, z_basis, m)

    def run_point(point: int) -> ErrorReport:
        point_seed = derive_seed(seed, point)
        sol = mwls_solve(
            benchmark.model,
            grid,
            benchmark.driver,
            benchmark.terminal,
            y_basis,
            z_basis,
            cloud_sizes=int(m_values[point]),
            seed=point_seed,
        )
        return estimate_errors(sol, benchmark, fresh_m=fresh_m, seed=point_seed)

    workers = threads if threads else min(len(m_values), 4)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_point, range(len(m_values))))
    else:
        reports = [run_point(point) for point in range(len(m_values))]

    emp_y = np.array([r.emp_y[readout] for r in reports])
    emp_z = np.array([r.emp_z[readout] for r in reports])
    fresh_y = np.array([r.fresh_y[readout] for r in reports])
    fresh_z = np.array([r.fresh_z[readout] for r in reports])
    costs = np.array([r.cost for r in reports], dtype=int)
    logs = np.log(np.asarray(m_values, dtype=float))

    def _slope(errors: np.ndarray) -> float:
        return float(np.polyfit(logs, np.log(np.maximum(errors, 1e-300)), 1)[0])

    return StudyTable(
        parameter="m",
        values=tuple(int(v) for v in m_values),
        emp_y=emp_y,
        emp_z=emp_z,
        fresh_y=fresh_y,
        fresh_z=fresh_z,
        costs=costs,
        slope_y=_slope(fresh_y),
        slope_z=_slope(fresh_z),
        slope_emp_y=_slope(emp_y),
        slope_emp_z=_slope(emp_z),
        index=readout,
        reports=tuple(reports),
    )


def approximation_study(
    target: Callable,
    degree: int,
    deltas: Sequence[float],
    radius: float = 1.0,
    n_samples: int = 40_000,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Pure-fit sweep of the cell edge delta against a known target.

    Fits target(x) on dense uniform samples over [-radius, radius] for each
    delta and returns the RMS errors on a fine probe grid together with the
    log-log slope of error against delta.
    """
    if len(deltas) < 2:
        raise ValueError("a delta sweep needs at least two values")
    rng = np.random.default_rng(seed)
    probe = np.linspace(-radius * 0.999, radius * 0.999, 5001).reshape(-1, 1)
    exact = target(probe[:, 0])
    errors = np.empty(len(deltas))
    for idx, delta in enumerate(deltas):
        basis = LocalPolynomialBasis(degree=degree, delta=float(delta), radius=radius, d=1)
        pts = rng.uniform(-radius, radius, size=(n_samples, 1))
        fit = ols_fit(target(pts[:, 0]), basis, pts)
        errors[idx] = _rms(fit.evaluate(probe)[:, 0] - exact)
    slope = float(np.polyfit(np.log(np.asarray(deltas, float)), np.log(errors), 1)[0])
    return errors, slope
