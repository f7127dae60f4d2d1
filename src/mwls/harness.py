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

import functools
import math
from dataclasses import dataclass
from threading import Lock, Thread
from typing import Callable, Sequence

import numpy as np

from .constants import dep_errors, global_error_bound
from .errors import _ArgumentError
from .grid import TimeGrid, _as_count, _count_at_least, make_theta_grid
from .model import MarkovModel, brownian_model, derive_seed, sample_marginal
from .regression import LocalPolynomialBasis, _as_points, ols_fit, shared_designs
from .solver import (
    DriverSpec,
    MwlsSolution,
    TerminalSpec,
    _per_index_inputs,
    mwls_solve,
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

    The oracles take (grid, i, points) with points of shape (M, d), or M d
    coordinates in a 1-D array as the fits read them, and return the exact
    y values (M,) and z values (M, q) of the discrete backward equation on
    that grid.  They may be called from two threads at once:
    `estimate_errors` shares its parts with a helper thread, and the
    factory's per-grid factors are memoized by `functools.lru_cache`, which
    is thread-safe.

    One factory, `_brownian_benchmark`, builds all five registry
    problems from a terminal phi, its envelope constants and an expectation
    rule.  b1, b2, b4 and zero have the zero driver; b3 is b1's terminal
    with the linear driver alpha * y, whose oracles scale b1's.
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

def _brownian_benchmark(
    name: str, phi: Callable, mean: Callable, C_xi: float, x0_width: float, description: str,
    C_phi: float | None = None, theta_phi: float | None = None, alpha: float | None = None,
) -> Benchmark:
    """A problem with terminal phi(X_N) on the d = 1 Brownian model and the
    zero driver, or the linear driver f = alpha * y if alpha is given (even
    0), from phi on (M,) values and an expectation rule.

    mean(x, s, weighted) returns E[phi(x + s G)], or E[phi(x + s G) G] if
    weighted, per row of x, for standard normal G; the weighted mean is a
    new array, which the z oracle scales in place.  With a zero driver the
    exact values at s = sqrt(T - t_i) are m_i(x) = E[phi(x + s G)] and, by
    the integration-by-parts representation of Z that the Malliavin weights
    discretize (Ma and Zhang, 2002), z0_i(x) = E[phi(x + s G) G] / s.

    The linear driver scales both.  Its term in the y-response has
    E[alpha y_{k+1}(X_{k+1}) Delta_k | X_i] = alpha c_{k+1} Delta_k m_i, so
    y_i = c_i m_i with c_N = 1 and c_i = c_{i+1} (1 + alpha Delta_i).  By
    Gaussian integration by parts, E[g(X_{k+1}) (W_k - W_i) / (t_k - t_i) |
    X_i = x] is the x-derivative of E[g(X_{k+1}) | X_i = x], so each driver
    term of the z-response adds alpha c_{k+1} Delta_k z0_i, and z_i =
    (1 + alpha * sum over k = i+1 .. N-1 of c_{k+1} Delta_k) z0_i.  Without
    alpha both factors are 1.0 and multiply no bit away.  y at index N is
    phi itself; y has indices 0..N and z 0..N-1, and any other index is a
    ValueError.
    """
    slope = 0.0 if alpha is None else alpha

    @functools.lru_cache(maxsize=1)
    def factors(grid):
        """The y and z factors (c, z_levels) on grid, memoized for the last grid."""
        n = grid.N
        c = np.ones(n + 1)
        for i in range(n - 1, -1, -1):
            c[i] = c[i + 1] * (1.0 + slope * grid.steps[i])
        z_levels = np.ones(n)
        for i in range(n):
            tail = sum(c[j + 1] * grid.steps[j] for j in range(i + 1, n))
            z_levels[i] = 1.0 + slope * tail
        return c, z_levels

    def y_oracle(grid, i, pts):
        if not 0 <= i <= grid.N:
            raise ValueError(f"y has indices 0..{grid.N}, not {i}")
        x = _as_points(pts, 1)[:, 0]
        if i == grid.N:
            return phi(x)
        return factors(grid)[0][i] * mean(x, math.sqrt(grid.T - grid.points[i]), False)

    def z_oracle(grid, i, pts):
        if not 0 <= i < grid.N:
            terminal = "the terminal index " if i == grid.N else ""
            raise ValueError(f"z has indices 0..{grid.N - 1}, not {terminal}{i}")
        x = _as_points(pts, 1)[:, 0]
        scale = math.sqrt(grid.T - grid.points[i])
        z = mean(x, scale, True)
        z /= scale
        z *= factors(grid)[1][i]
        return z[:, None]

    driver = zero_driver() if alpha is None else DriverSpec(
        fn=lambda k, x, y, z: alpha * y, L_f=abs(alpha), C_f=0.0, theta_L=1.0, theta_C=1.0
    )
    return Benchmark(
        name=name,
        model=brownian_model(d=1, x0=0.0, x0_width=x0_width),
        driver=driver,
        terminal=TerminalSpec(lambda x: phi(x[:, 0]), C_xi, C_phi, theta_phi),
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description=description,
    )


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """96-point Gauss-Hermite rule for the standard normal: (nodes, weights).

    Built on first use: only the b2 oracles read it, and numpy.polynomial
    is not worth loading for the other problems.
    """
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(96)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def _gauss_mean(fn: Callable, x: np.ndarray, scale: float, weighted: bool) -> np.ndarray:
    """E[fn(x + scale*G)], times G inside if weighted, per row of x; G ~ N(0, 1).

    The rule's terms are added one node at a time, in ascending node order."""
    nodes, weights = _hermite_rule()
    out = np.zeros(x.shape[0])
    for node, weight in zip(nodes, weights):
        values = fn(x + scale * node)
        values *= weight * node if weighted else weight
        out += values
    return out


def _martingale_mean(x: np.ndarray, s: float, weighted: bool) -> np.ndarray:
    """The expectation rule of phi(x) = x: E[x + s G] = x, E[(x + s G) G] = s."""
    return np.full(x.shape, s) if weighted else x


def benchmark_b1(x0_width: float = 5.0) -> Benchmark:
    """Zero driver, terminal phi(x) = x: exact values y_i(x) = x, z_i = 1."""
    return _brownian_benchmark(
        "b1", lambda x: x, _martingale_mean,
        C_xi=8.0, C_phi=1.0, theta_phi=1.0, x0_width=x0_width,
        description="martingale terminal phi(x)=x on a start box",
    )


def benchmark_b2(x0_width: float = 5.0) -> Benchmark:
    """Zero driver, terminal tanh(x): oracle by Gaussian quadrature."""
    phi = np.tanh
    return _brownian_benchmark(
        "b2", phi, lambda x, s, weighted: _gauss_mean(phi, x, s, weighted),
        C_xi=1.0, C_phi=1.0, theta_phi=1.0, x0_width=x0_width,
        description="bounded smooth terminal tanh(x), heat-kernel quadrature oracle",
    )


def benchmark_b3(alpha: float = 0.5, x0_width: float = 5.0) -> Benchmark:
    """Linear driver f = alpha*y with b1's terminal phi(x) = x: exact values
    y_i(x) = c_i x and constant z_i, by the factory's backward substitution."""
    if not math.isfinite(alpha):
        raise _ArgumentError("alpha", f"alpha must be finite, got {alpha}")
    return _brownian_benchmark(
        "b3", lambda x: x, _martingale_mean,
        C_xi=8.0, C_phi=1.0, theta_phi=1.0, x0_width=x0_width,
        description=f"linear driver f = {alpha}*y, backward-substitution oracle", alpha=alpha,
    )


def benchmark_b4(theta_phi: float = 0.5, cap: float = 1.0, x0_width: float = 5.0) -> Benchmark:
    """Hölder terminal phi(x) = min(|x|^theta_phi, cap) for near-horizon studies."""
    if not 0.0 < theta_phi < 1.0:
        raise _ArgumentError("theta_phi", f"theta_phi must lie in (0, 1), got {theta_phi}")
    if cap <= 0.0:
        raise _ArgumentError("cap", f"cap must be positive, got {cap}")
    if not math.isfinite(cap):
        raise _ArgumentError("cap", f"cap must be finite, got {cap}")

    def phi(values):
        return np.minimum(np.abs(values) ** theta_phi, cap)

    return _brownian_benchmark(
        "b4", phi, lambda x, s, weighted: _holder_quadrature(phi, x, s, cap, theta_phi, weighted),
        C_xi=cap, C_phi=1.0, theta_phi=theta_phi, x0_width=x0_width,
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
    return _brownian_benchmark(
        "zero", lambda x: np.zeros(x.shape[0]), lambda x, s, weighted: np.zeros(x.shape[0]),
        C_xi=0.0, x0_width=x0_width, description="identically-zero data and solution",
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


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Measured errors of a solution against an oracle, plus bound columns.

    emp_* are root-mean-square errors over the training marginals (the
    empirical norms of the run itself); fresh_* estimate the same norms
    under the true time-i laws from fresh, independent samples, with
    fresh_*_se their Monte Carlo standard errors.  e_app_* are fitted
    approximation-error estimates, dep_* the interdependence error terms,
    and bound_* the deterministic error bound that `global_error_bound`
    evaluates from the solution's own table, sol.bounds.  cost is N * sum
    of cloud sizes, the steps of full-length paths from t_0 for every cloud
    row; the solve simulates only each cloud's tail, sum of M_i (N - i)
    steps, about half as many.

    dep_* scale with the observation bounds Theta_y, Theta_z.  The e_dep_*
    columns of bounds.csv (BoundsTable.E_dep_*), and the interdependence
    terms inside bound_*, scale with the truncation levels C_y, C_z
    instead, so errors.csv and bounds.csv show different numbers under
    similar names.

    fresh_*_se treats the squared errors as well-behaved samples, and it
    understates the spread when a few fresh points land in edge cells that
    the training cloud leaves (nearly) empty: their squared errors are heavy
    tailed.  On b3 (N = 20, M = 50k, seed 5) fresh_y[2] reads 0.0363 +-
    0.0005 at fresh seed 5 and 0.0834 +- 0.0337 at fresh seed 6, where one
    point at x = 3.785 carries 81% of the squared error.
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


def _row_squares(residual: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (M,) or (M, q) residual, with the bits
    of (residual**2).sum(axis=1).  numpy adds up to 7 components of a row in
    ascending order, so those are added one column at a time, in one pass
    over the M rows each; wider rows, which numpy sums pairwise, keep the
    row sum."""
    if residual.ndim == 1:
        return residual**2
    if residual.shape[1] >= 8:
        return (residual**2).sum(axis=1)
    sq = residual[:, 0] ** 2
    for a in range(1, residual.shape[1]):
        sq += residual[:, a] ** 2
    return sq


def _rms(residual: np.ndarray) -> float:
    """Root mean square of rows; rows may be vectors (summed over components)."""
    return float(np.sqrt(np.mean(_row_squares(residual))))


def _norm_and_se(residual: np.ndarray) -> tuple[float, float]:
    """RMS norm of rows and the Monte Carlo standard error of that norm."""
    sq = _row_squares(residual)
    mean_sq = float(np.mean(sq))
    se_sq = float(np.std(sq)) / math.sqrt(sq.size)
    norm = math.sqrt(mean_sq)
    if norm > 1e-300:
        return norm, se_sq / (2.0 * norm)
    return norm, math.sqrt(se_sq)


def _oracle_values(oracle_fn, grid, i, pts, shape, label):
    """The oracle's values at pts as an array of shape, (M,) or (M, q).  An
    (M, q) oracle may return (M,) when q = 1, and a y oracle (M, 1); any
    other shape, a transposed (q, M) among them, is a ValueError."""
    values = np.asarray(oracle_fn(grid, i, pts), dtype=float)
    m, width = shape[0], int(np.prod(shape[1:]))
    if values.shape != (m, width) and not (width == 1 and values.shape == (m,)):
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

    Each index has a training part (emp_* and e_app_*, over the run's own
    marginal) and a fresh part (fresh_* and fresh_*_se).  The training part
    rebuilds the marginal's designs but takes their Gram factors from
    sol.factors, so its oracle fits factorize nothing: the factors are
    those of the same points and geometry, and the bits are those of
    factorizing again.  The 2N parts form one list, in the order
    training(0), fresh(0), training(1), fresh(1), ...; the calling thread
    and one helper thread each take the next untaken part until none is
    left, so the oracles may be called from both at once.  Each part
    writes only its own index's entries, and the report has the bits of
    running the parts one after another.  Once a part has failed, no
    further part is taken; every part before it in the list was taken
    before it, so once the helper thread has stopped, the failure raised
    here is the first in that order.
    """
    fresh_m = _count_at_least(fresh_m, "fresh_m", 1)
    seed = sol.seed if seed is None else _count_at_least(seed, "seed", 0)
    grid, model = sol.grid, sol.model
    n, q = grid.N, model.q

    emp_y = np.zeros(n)
    emp_z = np.zeros(n)
    fresh_y = np.zeros(n)
    fresh_z = np.zeros(n)
    fresh_y_se = np.zeros(n)
    fresh_z_se = np.zeros(n)
    e_app_y = np.zeros(n)
    e_app_z = np.zeros(n)

    def training(i: int) -> None:
        """emp_* and e_app_* at index i, over the run's own marginal."""
        pts = sol.marginals[i]
        y_fit, z_fit = sol.y_fits[i], sol.z_fits[i]
        y_design, z_design = shared_designs(pts, y_fit.basis, z_fit.basis)
        for design in (y_design, z_design):
            design.adopt_factors(sol.factors[i][design.geometry])
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

    def fresh(i: int) -> None:
        """fresh_* and fresh_*_se at index i, over a fresh sample of X_i."""
        y_fit, z_fit = sol.y_fits[i], sol.z_fits[i]
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

    lock = Lock()
    untaken = 0  # rank of the next part: training(i) is 2i, fresh(i) 2i + 1
    failures: dict[int, BaseException] = {}  # by rank

    def take_parts() -> None:
        """Run the next untaken part until none is left or one has failed."""
        nonlocal untaken
        while True:
            with lock:
                if failures or untaken == 2 * n:
                    return
                rank, untaken = untaken, untaken + 1
            try:
                (fresh if rank % 2 else training)(rank // 2)
            except BaseException as exc:
                with lock:
                    failures[rank] = exc
                return

    # the helper ends as soon as it finds the list drained, not when the call
    # returns, so a thread started next (the producer of the next solve) does
    # not start as it ends and open a third malloc arena (see `_drawn_ahead`)
    helper = Thread(target=take_parts)
    helper.start()
    try:
        take_parts()
    finally:
        helper.join()
    if failures:
        raise failures[min(failures)]

    table = sol.bounds
    dep_y = np.asarray(dep_errors(table.Theta_y, table.K_y, table.M))
    dep_z = np.asarray(dep_errors(table.Theta_z, table.K_z, table.M, q=q))
    bound_y, bound_z = global_error_bound(table, e_app_y, e_app_z)

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


@dataclass(frozen=True, eq=False)
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
) -> TuningPlan:
    """Evaluate the balancing rules for basis sizes and cloud sizes.

    Smooth regime: delta_y = N^(-kappa/(l+1)), delta_z = N^(-kappa/l), and
    M = ceil((log(N+1))^(d+1) N^(kappa(2+d/l))), all uniform in i.  Hölder
    regime: the same scaled by sqrt(T-t_i) per index, with M_i additionally
    multiplied by (T-t_i)^(-d/2), on a grid that concentrates points near
    the horizon with exponent theta_pi, which only this regime takes.
    R = 2 kappa log(N+1) / lam in both; an R out of double range is an
    error of lam.  An error of one argument is an `_ArgumentError` that
    names it.
    """
    if kappa <= 0.0:
        raise _ArgumentError("kappa", f"kappa must be positive, got {kappa}")
    if not math.isfinite(kappa):
        raise _ArgumentError("kappa", f"kappa must be finite, got {kappa}")
    l = _as_count(l, f"l = {l!r}")
    if l < 1:
        raise _ArgumentError("l", f"l must be >= 1 (degree-l z basis), got {l}")
    d = _as_count(d, f"d = {d!r}")
    if d < 1:
        raise _ArgumentError("d", f"d must be >= 1, got {d}")
    if lam <= 0.0:
        raise _ArgumentError("lam", f"lambda must be positive, got {lam}")
    if not math.isfinite(lam):
        raise _ArgumentError("lam", f"lambda must be finite, got {lam}")
    if regime not in ("smooth", "holder"):
        raise _ArgumentError("regime", f"regime must be 'smooth' or 'holder', got {regime!r}")
    if regime == "holder":
        if theta_pi is None:
            raise _ArgumentError("theta_pi", "holder regime requires theta_pi")
        if not 0.0 < theta_pi <= 1.0:
            raise _ArgumentError("theta_pi", f"theta_pi must lie in (0, 1], got {theta_pi}")
    elif theta_pi is not None:
        raise _ArgumentError(
            "theta_pi", f"theta_pi applies to the holder regime only, got {theta_pi}"
        )
    grid = make_theta_grid(T, N, theta=theta_pi if regime == "holder" else 1.0)
    N = grid.N

    log_n1 = math.log(N + 1.0)
    radius = 2.0 * kappa * log_n1 / lam
    if not 0.0 < radius < math.inf:
        raise _ArgumentError("lam", "support half-width R = 2 kappa log(N+1) / lambda must "
                                    f"be positive and finite, got {radius}")
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
            from decimal import Decimal  # K, an int, may have hundreds of digits
            raise ValueError(
                f"plan is not self-consistent at index {i}: "
                f"M={m[i]} below basis dimension {Decimal(max(k_y, k_z)):.3g}"
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


@dataclass(frozen=True, eq=False)
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


def _log_log_slope(values: Sequence[float], errors: np.ndarray) -> float:
    """Least-squares slope of log error against log value; errors below
    1e-300, zero among them, are read as 1e-300."""
    logs = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(logs, np.log(np.maximum(errors, 1e-300)), 1)[0])


def _check_m_sweep(
    model: MarkovModel,
    N: int,
    y_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    z_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    m_values: Sequence[int],
) -> None:
    """Reject the cloud sizes of an M sweep before any point is solved:
    fewer than two distinct values, or any value the bases cannot fit."""
    if len(set(m_values)) < 2:
        raise ValueError("an M sweep needs at least two distinct values")
    for m in m_values:
        _per_index_inputs(model, N, y_basis, z_basis, m)


def convergence_study(
    benchmark: Benchmark,
    grid: TimeGrid,
    y_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    z_basis: LocalPolynomialBasis | Sequence[LocalPolynomialBasis],
    m_values: Sequence[int],
    seed: int,
    fresh_m: int = 20_000,
    index: int | None = None,
) -> StudyTable:
    """Sweep the cloud size M: one solver run per value, errors and slopes.

    y_basis and z_basis are one basis for every index or per-index lists,
    as in `mwls_solve`; each value of m_values is used at every index.
    The points are solved one after another, in sweep order, each with its
    own derived seed, so points are independent and the study is
    reproducible; the first failed point stops the sweep.  The readout
    errors are taken at one time index (default: the middle); slopes are
    least-squares fits of log error against log M.
    """
    fresh_m = _count_at_least(fresh_m, "fresh_m", 1)
    seed = _count_at_least(seed, "seed", 0)
    _check_m_sweep(benchmark.model, grid.N, y_basis, z_basis, m_values)
    readout = grid.N // 2 if index is None else _as_count(index, f"readout index {index!r}")
    if not 0 <= readout < grid.N:
        raise _ArgumentError("index", f"readout index {readout} out of range [0, {grid.N - 1}]")

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

    reports = [run_point(point) for point in range(len(m_values))]

    emp_y = np.array([r.emp_y[readout] for r in reports])
    emp_z = np.array([r.emp_z[readout] for r in reports])
    fresh_y = np.array([r.fresh_y[readout] for r in reports])
    fresh_z = np.array([r.fresh_z[readout] for r in reports])
    costs = np.array([r.cost for r in reports], dtype=int)

    return StudyTable(
        parameter="m",
        values=tuple(int(v) for v in m_values),
        emp_y=emp_y,
        emp_z=emp_z,
        fresh_y=fresh_y,
        fresh_z=fresh_z,
        costs=costs,
        slope_y=_log_log_slope(m_values, fresh_y),
        slope_z=_log_log_slope(m_values, fresh_z),
        slope_emp_y=_log_log_slope(m_values, emp_y),
        slope_emp_z=_log_log_slope(m_values, emp_z),
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
    if len(set(deltas)) < 2:
        raise ValueError("a delta sweep needs at least two distinct values")
    n_samples = _count_at_least(n_samples, "n_samples", 1)
    seed = _count_at_least(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    probe = np.linspace(-radius * 0.999, radius * 0.999, 5001).reshape(-1, 1)
    exact = target(probe[:, 0])
    errors = np.empty(len(deltas))
    for idx, delta in enumerate(deltas):
        basis = LocalPolynomialBasis(degree=degree, delta=float(delta), radius=radius, d=1)
        pts = rng.uniform(-radius, radius, size=(n_samples, 1))
        fit = ols_fit(target(pts[:, 0]), basis, pts)
        errors[idx] = _rms(fit.evaluate(probe)[:, 0] - exact)
    return errors, _log_log_slope(deltas, errors)
