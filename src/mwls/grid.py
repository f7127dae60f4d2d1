"""Time grids and the singular weighted step sums they control.

The solver and the constants pipeline repeatedly need sums of the form

    sum_j  Delta_j / (t_k - t_j)^(1-alpha)                          (single)
    sum_j  Delta_j / ((t_k - t_j)^(1-alpha) (t_j - t_i)^(1-beta))   (double)

whose uniform-in-grid bounds hold under a bound on consecutive step ratios.
`TimeGrid` caches the step and ratio metadata once; `weighted_step_sum`
evaluates the sums exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "make_theta_grid",
    "random_admissible_grid",
    "weighted_step_sum",
]


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_N = T of a time interval.

    Steps and the maximum consecutive step ratio are computed once at
    construction and cached; instances are immutable and safe to share
    across threads.
    """

    points: np.ndarray
    steps: np.ndarray = field(init=False, repr=False, compare=False)
    r_pi: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a time grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            j = int(np.argmin(np.isfinite(pts)))
            raise ValueError(f"grid points must be finite, got t_{j} = {pts[j]}")
        if pts[0] != 0.0:
            raise ValueError(f"a time grid must start at 0, got t_0 = {pts[0]}")
        steps = np.diff(pts)
        if not np.all(steps > 0.0):
            j = int(np.argmin(steps > 0.0))
            raise ValueError(
                f"grid points must be strictly increasing; step {j} "
                f"(t_{j + 1} - t_{j}) is {steps[j]}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "steps", steps)
        ratios = steps[1:] / steps[:-1]
        object.__setattr__(self, "r_pi", float(ratios.max()) if ratios.size else 1.0)

    @property
    def T(self) -> float:
        """Terminal time t_N."""
        return float(self.points[-1])

    @property
    def N(self) -> int:
        """Number of steps (the grid has N + 1 points)."""
        return self.points.size - 1


def make_theta_grid(T: float, N: int, theta: float = 1.0) -> TimeGrid:
    """Grid t_i = T - T (1 - i/N)^(1/theta).

    theta = 1 gives the uniform grid; theta < 1 concentrates points near T
    with non-increasing steps, so the step-ratio maximum is at most 1.

    Args:
        T: terminal time, > 0.
        N: number of steps, >= 1.
        theta: concentration exponent in (0, 1].
    """
    if T <= 0.0:
        raise ValueError(f"terminal time must be positive, got {T}")
    if not np.isfinite(T):
        raise ValueError(f"terminal time must be finite, got {T}")
    if N < 1:
        raise ValueError(f"need at least one time step, got N = {N}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    i = np.arange(N + 1, dtype=float)
    points = T - T * (1.0 - i / N) ** (1.0 / theta)
    points[0] = 0.0
    points[-1] = T
    return TimeGrid(points)


def random_admissible_grid(
    T: float, N: int, r_max: float, rng: np.random.Generator
) -> TimeGrid:
    """Random grid whose consecutive step ratios all lie in [1/r_max, r_max].

    Steps are built from multiplicative ratios drawn uniformly in
    [1/r_max, r_max] and rescaled to sum to T, which exercises the whole
    class of grids admissible under a given ratio bound.
    """
    if T <= 0.0:
        raise ValueError(f"terminal time must be positive, got {T}")
    if N < 1:
        raise ValueError(f"need at least one time step, got N = {N}")
    if r_max < 1.0:
        raise ValueError(f"the ratio bound must be >= 1, got {r_max}")
    ratios = rng.uniform(1.0 / r_max, r_max, size=N - 1)
    steps = np.concatenate([[1.0], np.cumprod(ratios)])
    steps *= T / steps.sum()
    points = np.concatenate([[0.0], np.cumsum(steps)])
    points[-1] = T
    return TimeGrid(points)


def weighted_step_sum(
    grid: TimeGrid,
    i: int,
    k: int,
    alpha: float,
    beta: float = 1.0,
    double: bool = False,
) -> float:
    """Exact value of the singular weighted step sums over the grid.

    Single form (default):   sum_{j=i}^{k-1}   Delta_j / (t_k - t_j)^(1-alpha)
    Double form:             sum_{j=i+1}^{k-1} Delta_j / ((t_k - t_j)^(1-alpha)
                                                          (t_j - t_i)^(1-beta))

    Args:
        grid: the time grid.
        i, k: indices with 0 <= i < k <= N.
        alpha, beta: positive exponents; beta is only used by the double form.
        double: select the double form.
    """
    if not 0 <= i < k <= grid.N:
        raise ValueError(f"need 0 <= i < k <= N = {grid.N}, got i = {i}, k = {k}")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"exponents must be positive, got alpha = {alpha}, beta = {beta}")
    t = grid.points
    if double:
        j = np.arange(i + 1, k)
        if j.size == 0:
            return 0.0
        terms = (
            grid.steps[j]
            * (t[k] - t[j]) ** (alpha - 1.0)
            * (t[j] - t[i]) ** (beta - 1.0)
        )
        return float(terms.sum())
    j = np.arange(i, k)
    return float((grid.steps[j] * (t[k] - t[j]) ** (alpha - 1.0)).sum())
