"""Tests for time grids and the singular weighted step sums."""

import re
import warnings

import numpy as np
import pytest

from mwls.grid import TimeGrid, make_theta_grid, random_admissible_grid, weighted_step_sum


def test_uniform_grid_points():
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert grid.N == 4
    assert grid.T == 1.0


def test_theta_grid_concentrates_near_horizon():
    # theta = 1/2: t_i = 1 - (1 - i/N)^2, so t_1 = 1 - (1/2)^2 = 0.75 for N = 2.
    grid = make_theta_grid(T=1.0, N=2, theta=0.5)
    np.testing.assert_allclose(grid.points, [0.0, 0.75, 1.0], rtol=1e-14)
    # Steps must shrink toward T for theta < 1.
    assert grid.steps[-1] < grid.steps[0]


def test_theta_grid_endpoints_exact():
    grid = make_theta_grid(T=0.7, N=13, theta=0.3)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 0.7


def test_theta_one_grid_has_unit_step_ratio():
    grid = make_theta_grid(T=2.0, N=64, theta=1.0)
    assert grid.r_pi <= 1.0 + 1e-12


def test_r_pi_exact_on_handcrafted_grid():
    # Steps 0.1, 0.2, 0.4: consecutive ratios 2 and 2.
    grid = TimeGrid(points=np.array([0.0, 0.1, 0.3, 0.7]))
    np.testing.assert_allclose(grid.r_pi, 2.0, rtol=1e-14)
    np.testing.assert_allclose(grid.steps, [0.1, 0.2, 0.4], rtol=1e-14)


def test_r_pi_single_step_grid():
    grid = TimeGrid(points=np.array([0.0, 1.0]))
    assert grid.r_pi == 1.0
    assert grid.N == 1


def test_grid_validation_errors():
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError, match="step 1"):
        TimeGrid(points=np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        make_theta_grid(T=-1.0, N=4)
    with pytest.raises(ValueError):
        make_theta_grid(T=1.0, N=0)
    with pytest.raises(ValueError):
        make_theta_grid(T=1.0, N=4, theta=0.0)
    with pytest.raises(ValueError):
        make_theta_grid(T=1.0, N=4, theta=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match="terminal time must be finite"):
                make_theta_grid(T=T, N=4)


@pytest.mark.parametrize(
    "points, message",
    [
        ([0.0, 0.5, np.inf], "t_2 = inf"),
        ([0.0, np.nan, 1.0], "t_1 = nan"),
        ([np.nan, 0.5, 1.0], "t_0 = nan"),
    ],
)
def test_grid_rejects_non_finite_points(points, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(ValueError, match="grid points must be finite") as err:
            TimeGrid(points=np.array(points))
    assert message in str(err.value)


def test_weighted_step_sum_alpha_one_is_plain_length():
    # alpha = 1 removes the singular factor: the sum telescopes to t_k - t_i.
    rng = np.random.default_rng(7)
    grid = random_admissible_grid(T=1.3, N=17, r_max=3.0, rng=rng)
    for i, k in [(0, 17), (3, 11), (10, 11)]:
        value = weighted_step_sum(grid, i, k, alpha=1.0)
        np.testing.assert_allclose(value, grid.points[k] - grid.points[i], rtol=1e-12)


def test_weighted_step_sum_uniform_half():
    # Uniform grid, alpha = 1/2: left-point sum of 1/sqrt(t_k - t_j) over
    # j = i..k-1 is below the bound 2 sqrt(t_k - t_i) = B(1/2, 1) (t_k-t_i)^(1/2).
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    value = weighted_step_sum(grid, 0, 4, alpha=0.5)
    expected = 0.25 * sum(1.0 / np.sqrt(1.0 - j * 0.25) for j in range(4))
    np.testing.assert_allclose(value, expected, rtol=1e-14)
    assert value <= 2.0 * np.sqrt(1.0)


def test_weighted_step_sum_double_form():
    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    # alpha = 2, beta = 3: smooth integrand, direct evaluation.
    t = grid.points
    i, k = 0, 5
    j = np.arange(i + 1, k)
    expected = np.sum(grid.steps[j] * (t[k] - t[j]) ** 1.0 * (t[j] - t[i]) ** 2.0)
    value = weighted_step_sum(grid, i, k, alpha=2.0, beta=3.0, double=True)
    np.testing.assert_allclose(value, expected, rtol=1e-14)
    # Bounded-integrand case: value <= (t_k - t_i)^(alpha+beta-1) directly.
    assert value <= (t[k] - t[i]) ** 4.0


def test_weighted_step_sum_double_empty_is_zero():
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    assert weighted_step_sum(grid, 2, 3, alpha=0.5, beta=0.5, double=True) == 0.0


def test_weighted_step_sum_argument_validation():
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    with pytest.raises(ValueError):
        weighted_step_sum(grid, 2, 2, alpha=0.5)
    with pytest.raises(ValueError):
        weighted_step_sum(grid, -1, 3, alpha=0.5)
    with pytest.raises(ValueError):
        weighted_step_sum(grid, 0, 5, alpha=0.5)
    with pytest.raises(ValueError):
        weighted_step_sum(grid, 0, 3, alpha=0.0)
    with pytest.raises(ValueError):
        weighted_step_sum(grid, 0, 3, alpha=0.5, beta=-1.0, double=True)


def test_random_admissible_grid_structure():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        r_max = float(rng.uniform(1.0, 5.0))
        T = float(rng.uniform(0.1, 3.0))
        grid = random_admissible_grid(T=T, N=n, r_max=r_max, rng=rng)
        assert grid.N == n
        assert grid.points[0] == 0.0
        assert grid.points[-1] == T
        assert np.all(grid.steps > 0.0)
        assert grid.r_pi <= r_max * (1.0 + 1e-12)


def test_random_admissible_grid_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_admissible_grid(T=1.0, N=4, r_max=0.5, rng=rng)
    with pytest.raises(ValueError, match=r"^terminal time T must be positive, got -1\.0$"):
        random_admissible_grid(T=-1.0, N=4, r_max=2.0, rng=rng)
    with pytest.raises(ValueError, match=r"^need at least one time step, got N = 0$"):
        random_admissible_grid(T=1.0, N=0, r_max=2.0, rng=rng)


@pytest.mark.parametrize("n, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'"), (np.nan, "nan")])
def test_step_counts_must_be_integers(n, shown):
    message = f"N = {shown} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_theta_grid(1.0, n)
    with pytest.raises(ValueError, match=re.escape(message)):
        random_admissible_grid(1.0, n, 2.0, np.random.default_rng(0))


def test_integral_step_counts_are_accepted():
    whole = make_theta_grid(1.0, 3, theta=0.6)
    for n in (3.0, np.int64(3), np.float64(3.0)):
        grid = make_theta_grid(1.0, n, theta=0.6)
        assert grid.points.tobytes() == whole.points.tobytes()
        drawn = random_admissible_grid(1.0, n, 2.0, np.random.default_rng(5))
        expected = random_admissible_grid(1.0, 3, 2.0, np.random.default_rng(5))
        assert drawn.points.tobytes() == expected.points.tobytes()
