"""The benchmark's workloads: problem, grid, bases, cloud sizes, and the
index-0 accuracy each run is held to.

Every workload has an exact oracle, so each run can be checked, and each one
puts most of its time into a different layer (see README.md):

- b3-deep: estimator evaluation during response assembly (N=20, 16 cells);
- bm2d-cells: the per-cell least-squares fits (d=2, 1024 cells);
- b4-oracle: the Hölder oracle inside `estimate_errors` (zero driver); it
  runs by hand only, since its time is too unsteady for BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mwls import (
    Benchmark,
    DriverSpec,
    LocalPolynomialBasis,
    TerminalSpec,
    TimeGrid,
    benchmark_b3,
    benchmark_b4,
    brownian_model,
    make_theta_grid,
)


@dataclass(frozen=True)
class Problem:
    """Everything `mwls_solve` and `estimate_errors` take apart from the seed."""

    bench: Benchmark
    grid: TimeGrid
    y_basis: LocalPolynomialBasis
    z_basis: LocalPolynomialBasis
    m: int
    fresh_m: int


@dataclass(frozen=True)
class Workload:
    """A named problem plus the ceilings on the index-0 fresh-sample errors.

    The ceilings are twice the largest index-0 error seen over seeds 1-10
    and 11-108 (b3-deep), 1-80 (bm2d-cells) or 1-16 (b4-oracle), rounded up,
    so a run fails them only when the fit is clearly off, not by Monte Carlo
    chance.  On b4-oracle z_0 is small (RMS 0.10) and the M=500 fit misses it
    by 0.13-0.22, so there the z ceiling only catches a blow-up.
    """

    name: str
    build: Callable[[], Problem]
    tol_y0: float
    tol_z0: float


# Driver coefficient of the bm2d problem: f = ALPHA * y.
ALPHA = 0.5


def _sum_of_coordinates(pts) -> np.ndarray:
    """s = x1 + x2 per row, shape (M, 1)."""
    p = np.asarray(pts, dtype=float).reshape(-1, 2)
    return (p[:, 0] + p[:, 1])[:, None]


def benchmark_bm2d() -> Benchmark:
    """Brownian d=2 with x0_width=8, driver f = ALPHA*y, terminal
    phi(x) = x1 + x2.

    The start box [-4, 4]^2 is the support of the bases used below, so every
    cell holds rows at every index (at least 14 of them over seeds 1-80).
    Paths that leave the support meet estimators that are zero there, which
    biases the fits near its edge: fresh_y[0] is 0.65-0.68 at every seed,
    against 5.3 for the RMS of y_0.  fresh_z[0] is 1.36-1.46 against 1.49
    for the RMS of z_0: with about 100 rows a cell, the weighted z responses
    leave the index-0 z fit mostly Monte Carlo noise.  With x0_width=5 the cells just outside
    the start box hold 1-5 rows from index 1 on, and at about one seed in 70
    (seed 41 of 11-83) a 3-row cell gets coefficients near 1e5 that the
    truncation level (2.4e11) does not clamp, which spoils the index-0 fit.

    The problem is b3 along s = x1 + x2.  The recursion y_i = (1 + ALPHA
    Delta_i) E[y_{i+1}(X_{i+1}) | X_i] is linear in the terminal, so
    y_i(x) = c_i s with b3's coefficients c_i.  Each weight component
    H^a_j = (W^a_j - W^a_i)/(t_j - t_i) has E[S_k H^a_j] = 1 for k >= j,
    the same as in d=1, so both z components equal b3's constant z_i.
    """
    x0_width = 8.0
    b3 = benchmark_b3(alpha=ALPHA, x0_width=x0_width)
    driver = DriverSpec(
        fn=lambda k, x, y, z: ALPHA * y, L_f=ALPHA, C_f=0.0, theta_L=1.0, theta_C=1.0
    )
    # |x1 + x2| is at most twice b3's envelope on the same start box, and
    # phi is sqrt(2)-Lipschitz in the Euclidean norm.
    terminal = TerminalSpec(
        fn=lambda x: x[:, 0] + x[:, 1], C_xi=16.0, C_phi=math.sqrt(2.0), theta_phi=1.0
    )

    def y_oracle(grid, i, pts):
        return b3.y_oracle(grid, i, _sum_of_coordinates(pts))

    def z_oracle(grid, i, pts):
        return b3.z_oracle(grid, i, _sum_of_coordinates(pts)) * np.ones((1, 2))

    return Benchmark(
        name="bm2d",
        model=brownian_model(d=2, x0=0.0, x0_width=x0_width),
        driver=driver,
        terminal=terminal,
        y_oracle=y_oracle,
        z_oracle=z_oracle,
        description=f"d=2 linear driver f = {ALPHA}*y, terminal x1+x2, b3 oracle along x1+x2",
    )


def _b3_deep() -> Problem:
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=4.0, d=1)
    return Problem(
        bench=benchmark_b3(alpha=0.5),
        grid=make_theta_grid(1.0, 20),
        y_basis=basis,
        z_basis=basis,
        m=50_000,
        fresh_m=50_000,
    )


def _bm2d_cells() -> Problem:
    return Problem(
        bench=benchmark_bm2d(),
        grid=make_theta_grid(1.0, 6),
        y_basis=LocalPolynomialBasis(degree=1, delta=0.25, radius=4.0, d=2),
        z_basis=LocalPolynomialBasis(degree=1, delta=0.25, radius=4.0, d=2, out_dim=2),
        m=100_000,
        fresh_m=50_000,
    )


def _b4_oracle() -> Problem:
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=4.0, d=1)
    return Problem(
        bench=benchmark_b4(theta_phi=0.5, cap=1.0),
        grid=make_theta_grid(1.0, 4, theta=0.5),
        y_basis=basis,
        z_basis=basis,
        m=500,
        fresh_m=100,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("b3-deep", _b3_deep, tol_y0=0.09, tol_z0=0.22),
        Workload("bm2d-cells", _bm2d_cells, tol_y0=1.4, tol_z0=3.0),
        Workload("b4-oracle", _b4_oracle, tol_y0=0.12, tol_z0=0.45),
    )
}
