"""Tests for benchmarks, error reports, tuning rules, and sweep studies."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import mwls.harness
from mwls.grid import make_theta_grid
from mwls.harness import (
    approximation_study,
    benchmark_b1,
    benchmark_b2,
    benchmark_b3,
    benchmark_b4,
    convergence_study,
    estimate_errors,
    register_benchmarks,
    tune_parameters,
)
from mwls.model import BrownianModel, sample_cloud
from mwls.regression import LocalPolynomialBasis
from mwls.solver import mwls_solve


def _linear_basis(delta=1.0, radius=4.0):
    return LocalPolynomialBasis(degree=1, delta=delta, radius=radius, d=1)


# ---------------------------------------------------------------------------
# benchmark oracles


def test_registry_contents():
    registry = register_benchmarks()
    assert set(registry) >= {"b1", "b2", "b3", "b4"}
    for name, factory in registry.items():
        bench = factory()
        assert bench.name == name


def test_zero_benchmark_everything_vanishes():
    bench = register_benchmarks()["zero"]()
    grid = make_theta_grid(1.0, 4)
    pts = np.array([[-2.0], [0.5]])
    np.testing.assert_array_equal(bench.y_oracle(grid, 1, pts), np.zeros(2))
    np.testing.assert_array_equal(bench.z_oracle(grid, 1, pts), np.zeros((2, 1)))
    assert bench.driver.is_zero and bench.terminal.C_xi == 0.0


def test_b1_oracle_fixture():
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 5)
    pts = np.array([[-1.3], [0.0], [2.2]])
    for i in (0, 2, 4):
        np.testing.assert_array_equal(bench.y_oracle(grid, i, pts), pts[:, 0])
        np.testing.assert_array_equal(bench.z_oracle(grid, i, pts), np.ones((3, 1)))


def test_b2_oracle_matches_monte_carlo():
    bench = benchmark_b2()
    grid = make_theta_grid(1.0, 4)
    i, x = 1, 0.4
    span = grid.T - grid.points[i]
    rng = np.random.default_rng(51)
    g = rng.standard_normal(1_000_000)
    samples_y = np.tanh(x + math.sqrt(span) * g)
    samples_z = samples_y * g / math.sqrt(span)
    pts = np.array([[x]])
    for oracle, samples in ((bench.y_oracle, samples_y), (bench.z_oracle, samples_z)):
        value = float(np.asarray(oracle(grid, i, pts)).ravel()[0])
        mc = float(np.mean(samples))
        se = float(np.std(samples)) / math.sqrt(samples.size)
        assert abs(value - mc) <= 3.0 * se


def test_b2_terminal_index_is_exact_map():
    bench = benchmark_b2()
    grid = make_theta_grid(1.0, 3)
    pts = np.array([[-0.8], [1.1]])
    np.testing.assert_allclose(bench.y_oracle(grid, grid.N, pts), np.tanh(pts[:, 0]))


def test_b3_with_zero_alpha_reduces_to_b1():
    bench = benchmark_b3(alpha=0.0)
    grid = make_theta_grid(1.0, 6, theta=0.7)
    pts = np.array([[-0.4], [1.7]])
    for i in range(grid.N):
        np.testing.assert_array_equal(bench.y_oracle(grid, i, pts), pts[:, 0])
        np.testing.assert_array_equal(bench.z_oracle(grid, i, pts), np.ones((2, 1)))


def test_b3_oracle_recursion_structure():
    alpha = 0.5
    bench = benchmark_b3(alpha=alpha)
    grid = make_theta_grid(1.0, 4)
    pts = np.array([[1.0]])
    # y factors satisfy c_i = c_{i+1} (1 + alpha * step_i) with c_N = 1
    factors = [float(bench.y_oracle(grid, i, pts)[0]) for i in range(grid.N)] + [1.0]
    for i in range(grid.N):
        assert factors[i] == pytest.approx(factors[i + 1] * (1.0 + alpha * grid.steps[i]), rel=1e-14)
    # the last z level is exactly 1 (empty driver tail)
    assert float(bench.z_oracle(grid, grid.N - 1, pts)[0, 0]) == 1.0


def test_b3_oracle_against_nested_monte_carlo():
    """Validate the backward-substitution oracle by brute-force nesting.

    Three time steps, one million leaf samples: inner conditional means are
    estimated per subtree, so the estimator is unbiased for the discrete
    backward equation without using the closed form being tested.
    """
    alpha, x = 0.5, 2.0
    grid = make_theta_grid(1.0, 3)
    step = grid.steps[0]
    bench = benchmark_b3(alpha=alpha)
    m1, m2, m3 = 200, 100, 50
    rng = np.random.default_rng(52)
    x1 = x + math.sqrt(step) * rng.standard_normal(m1)
    x2 = x1[:, None] + math.sqrt(step) * rng.standard_normal((m1, m2))
    x3 = x2[:, :, None] + math.sqrt(step) * rng.standard_normal((m1, m2, m3))

    grow = 1.0 + alpha * step
    y2_hat = grow * x3.mean(axis=2)                      # per (m1, m2) subtree
    y1_hat = grow * x3.mean(axis=(1, 2)) + alpha * step * y2_hat.mean(axis=1)
    contrib = (
        grow * x3.mean(axis=(1, 2))
        + alpha * step * (y1_hat + y2_hat.mean(axis=1))
    )
    estimate = float(np.mean(contrib))
    se = float(np.std(contrib)) / math.sqrt(m1)

    exact = float(bench.y_oracle(grid, 0, np.array([[x]]))[0])
    assert abs(exact - estimate) <= 3.0 * se
    # the tolerance separates the true factor from an off-by-one recursion
    wrong = exact / (1.0 + alpha * step)
    assert abs(wrong - estimate) > 3.0 * se


def test_b3_z_oracle_against_direct_monte_carlo():
    # z_0 = E[xi H_N + sum_j f_j H_j Delta_j] with the validated y ansatz
    alpha, x = 0.5, 1.5
    grid = make_theta_grid(1.0, 3)
    bench = benchmark_b3(alpha=alpha)
    step = grid.steps[0]
    rng = np.random.default_rng(53)
    m = 400_000
    dw = math.sqrt(step) * rng.standard_normal((m, 3))
    w = np.cumsum(dw, axis=1)
    x_path = x + w
    c2 = float(bench.y_oracle(grid, 2, np.array([[1.0]]))[0])
    h = w / (grid.points[1:] - grid.points[0])
    samples = (
        x_path[:, 2] * h[:, 2]
        + alpha * (c2 * x_path[:, 1] * h[:, 0] * grid.steps[1]
                   + 1.0 * x_path[:, 2] * h[:, 1] * grid.steps[2])
    )
    mc = float(np.mean(samples))
    se = float(np.std(samples)) / math.sqrt(m)
    exact = float(bench.z_oracle(grid, 0, np.array([[x]]))[0, 0])
    assert abs(exact - mc) <= 3.0 * se


def test_b4_oracle_matches_monte_carlo():
    bench = benchmark_b4(theta_phi=0.5, cap=1.0)
    grid = make_theta_grid(1.0, 4)
    rng = np.random.default_rng(54)
    g = rng.standard_normal(500_000)
    x = 0.3
    samples = np.minimum(np.sqrt(np.abs(x + g)), 1.0)
    pts = np.array([[x]])
    value = float(bench.y_oracle(grid, 0, pts)[0])
    mc = float(np.mean(samples))
    se = float(np.std(samples)) / math.sqrt(g.size)
    assert abs(value - mc) <= 3.0 * se


def test_b4_validation():
    with pytest.raises(ValueError, match="theta_phi"):
        benchmark_b4(theta_phi=1.5)
    with pytest.raises(ValueError, match="cap"):
        benchmark_b4(cap=0.0)


def test_b4_near_horizon_envelope():
    # on a grid concentrating near the horizon, |z| stays inside C_z
    bench = benchmark_b4(theta_phi=0.5, cap=1.0)
    grid = make_theta_grid(1.0, 8, theta=0.4)
    basis = _linear_basis(delta=0.5, radius=3.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=2000, seed=55,
    )
    probe = np.linspace(-2.9, 2.9, 59).reshape(-1, 1)
    for i in range(grid.N):
        assert np.max(np.abs(sol.z_values(i, probe))) <= sol.bounds.C_z[i] + 1e-12
    # the refined envelope grows near the horizon but stays finite
    assert np.all(np.isfinite(sol.bounds.C_z))
    assert sol.bounds.C_z[-1] > sol.bounds.C_z[0]


# ---------------------------------------------------------------------------
# error reports


def test_estimate_errors_against_self_is_zero():
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=500, seed=61,
    )
    self_oracle = SimpleNamespace(
        y_oracle=lambda g, i, pts: sol.y_values(i, pts),
        z_oracle=lambda g, i, pts: sol.z_values(i, pts),
    )
    report = estimate_errors(sol, self_oracle, fresh_m=2000)
    np.testing.assert_array_equal(report.emp_y, np.zeros(grid.N))
    np.testing.assert_array_equal(report.emp_z, np.zeros(grid.N))
    np.testing.assert_array_equal(report.fresh_y, np.zeros(grid.N))
    np.testing.assert_array_equal(report.fresh_z, np.zeros(grid.N))
    # the y values lie in the fitting space (the clamp at C_y never binds
    # here), so their refit residual vanishes; the z values are clamped at
    # C_z = 1, which leaves a small but genuine approximation residual
    assert np.max(report.e_app_y) <= 1e-10
    assert np.max(report.e_app_z) <= 0.05
    assert np.all(report.dep_y > 0.0) and np.all(report.dep_z > 0.0)


def test_estimate_errors_b1_report():
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 6)
    basis = _linear_basis(delta=1.0, radius=4.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=1500, seed=62,
    )
    report = estimate_errors(sol, bench, fresh_m=4000)

    for column in (
        report.emp_y, report.emp_z, report.fresh_y, report.fresh_z,
        report.e_app_y, report.e_app_z, report.dep_y, report.dep_z,
        report.bound_y, report.bound_z,
    ):
        assert np.all(np.isfinite(column)) and np.all(column >= 0.0)

    # measured errors never exceed the deterministic bound evaluation
    assert np.all(report.emp_y <= report.bound_y)
    assert np.all(report.emp_z <= report.bound_z)

    # true-law norms relate to empirical norms through the stated inequality
    slack = 3.0 * report.fresh_y_se
    assert np.all(report.fresh_y <= np.sqrt(2.0) * report.emp_y + report.dep_y + slack)
    slack_z = 3.0 * report.fresh_z_se
    assert np.all(report.fresh_z <= np.sqrt(2.0) * report.emp_z + report.dep_z + slack_z)

    assert report.cost == grid.N * sum(sol.cloud_sizes)

    # repeated estimation is bitwise reproducible
    again = estimate_errors(sol, bench, fresh_m=4000)
    np.testing.assert_array_equal(report.fresh_y, again.fresh_y)
    np.testing.assert_array_equal(report.fresh_z, again.fresh_z)


def test_estimate_errors_draws_brownian_fresh_states_without_paths(monkeypatch):
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=4.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=400, seed=64,
    )
    calls = []
    simulate = BrownianModel.sample_paths

    def counted(self, *args, **kwargs):
        calls.append(args)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(BrownianModel, "sample_paths", counted)
    estimate_errors(sol, bench, fresh_m=500)
    assert calls == []
    sample_cloud(bench.model, grid, 0, 10, seed=64)  # the counter does count
    assert len(calls) == 1


def test_estimate_errors_validation():
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=400, seed=63,
    )
    with pytest.raises(ValueError, match="fresh_m"):
        estimate_errors(sol, bench, fresh_m=0)
    bad = SimpleNamespace(
        y_oracle=lambda g, i, pts: np.zeros((pts.shape[0], 2)),
        z_oracle=bench.z_oracle,
    )
    with pytest.raises(ValueError, match="y oracle returned shape"):
        estimate_errors(sol, bad, fresh_m=100)
    nan_oracle = SimpleNamespace(
        y_oracle=lambda g, i, pts: np.full(pts.shape[0], np.nan),
        z_oracle=bench.z_oracle,
    )
    with pytest.raises(ValueError, match="non-finite"):
        estimate_errors(sol, nan_oracle, fresh_m=100)


# ---------------------------------------------------------------------------
# tuning rules


def test_tune_smooth_fixture():
    plan = tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth")
    log11 = math.log(11.0)
    assert plan.R == pytest.approx(log11, rel=1e-15)
    np.testing.assert_allclose(plan.delta_y, 10.0 ** (-0.25))
    np.testing.assert_allclose(plan.delta_z, 10.0 ** (-0.5))
    expected_m = math.ceil(log11**2 * 10.0**1.5)
    assert expected_m == 182
    assert np.all(plan.m == expected_m)
    assert plan.complexity_exponent == pytest.approx(1.0 / 7.0, rel=1e-15)
    # uniform default grid in the smooth regime
    np.testing.assert_allclose(plan.grid.points, np.linspace(0.0, 1.0, 11))


def test_tune_holder_scaling():
    n, kappa, l, d = 8, 1.0, 1, 1
    plan = tune_parameters(N=n, kappa=kappa, l=l, d=d, lam=1.0, regime="holder", theta_pi=0.5)
    ttg = plan.grid.T - plan.grid.points[:-1]
    base_m = math.log(n + 1.0) ** (d + 1) * n ** (kappa * (2.0 + d / l))
    for i in range(n):
        assert plan.m[i] == math.ceil(base_m * ttg[i] ** (-d / 2.0))
        assert plan.delta_y[i] == pytest.approx(math.sqrt(ttg[i]) * n ** (-kappa / (l + 1.0)))
        assert plan.delta_z[i] == pytest.approx(math.sqrt(ttg[i]) * n ** (-kappa / l))
    # cloud sizes grow toward the horizon
    assert np.all(np.diff(plan.m) >= 0) and plan.m[-1] > plan.m[0]
    # self-consistency against the induced basis dimensions
    for i in range(n):
        k_z = LocalPolynomialBasis(degree=l, delta=float(plan.delta_z[i]), radius=plan.R, d=d).K
        assert plan.m[i] >= k_z
    expected = 1.0 / ((2.0 + 1.0) + (1.0 + max(1.0 / (2.0 * 0.5), 1.0)) / kappa)
    assert plan.complexity_exponent == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("regime", [{"regime": "smooth"}, {"regime": "holder", "theta_pi": 0.5}])
@pytest.mark.parametrize("kappa", [5.0, 500.0])  # M near 4e225; a power past the float range
def test_tune_rejects_out_of_range_cloud_size(kappa, regime):
    with pytest.raises(ValueError, match="cloud size out of range: N=10, kappa="):
        tune_parameters(N=10, kappa=kappa, l=1, d=40, lam=1.0, **regime)


def test_tune_validation():
    with pytest.raises(ValueError, match="l must be >= 1"):
        tune_parameters(N=10, kappa=0.5, l=0, d=1, lam=1.0, regime="smooth")
    with pytest.raises(ValueError, match="kappa"):
        tune_parameters(N=10, kappa=0.0, l=1, d=1, lam=1.0, regime="smooth")
    with pytest.raises(ValueError, match="regime"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="mixed")
    with pytest.raises(ValueError, match="theta_pi"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="holder")
    with pytest.raises(ValueError, match="lambda"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=0.0, regime="smooth")
    with pytest.raises(ValueError, match="kappa must be finite, got inf"):
        tune_parameters(N=10, kappa=float("inf"), l=1, d=1, lam=1.0, regime="smooth")
    with pytest.raises(ValueError, match="lambda must be finite, got nan"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=float("nan"), regime="smooth")
    with pytest.raises(ValueError, match="not self-consistent at index 0"):
        tune_parameters(N=1, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth")
    grid = make_theta_grid(1.0, 5)
    with pytest.raises(ValueError, match="expected N=10"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth", grid=grid)


# ---------------------------------------------------------------------------
# sweep studies


def test_convergence_study_m_sweep():
    # narrow start box and wide basis support: the statistical error is the
    # only error source, so it must shrink with the cloud size
    bench = benchmark_b1(x0_width=3.0)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=5.0)
    study = convergence_study(
        bench, grid, basis, basis, m_values=[400, 1600, 6400],
        seed=71, fresh_m=3000, threads=1,
    )
    assert study.parameter == "m"
    assert study.index == 2
    assert study.slope_z < -0.25
    assert study.slope_emp_z < -0.25
    assert study.fresh_z[0] > study.fresh_z[-1]
    # exact cost bookkeeping: N * sum(M_i) per run
    np.testing.assert_array_equal(
        study.costs, [grid.N * grid.N * m for m in (400, 1600, 6400)]
    )

    # thread count must not change the results
    threaded = convergence_study(
        bench, grid, basis, basis, m_values=[400, 1600, 6400],
        seed=71, fresh_m=3000, threads=3,
    )
    np.testing.assert_array_equal(study.fresh_y, threaded.fresh_y)
    np.testing.assert_array_equal(study.fresh_z, threaded.fresh_z)
    np.testing.assert_array_equal(study.emp_y, threaded.emp_y)

    with pytest.raises(ValueError, match="at least two"):
        convergence_study(bench, grid, basis, basis, m_values=[400], seed=71)
    with pytest.raises(ValueError, match="readout index"):
        convergence_study(
            bench, grid, basis, basis, m_values=[400, 800], seed=71, index=9
        )


def test_convergence_study_checks_every_cloud_size_before_solving(monkeypatch):
    calls = []
    solve = mwls.harness.mwls_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mwls.harness, "mwls_solve", counted)
    basis = _linear_basis()  # K = 8 cells * 2 monomials
    with pytest.raises(ValueError, match="cloud size 1 at time index 0 .* dimension 16"):
        convergence_study(
            benchmark_b1(), make_theta_grid(1.0, 10), basis, basis,
            m_values=[200_000, 1], seed=0, fresh_m=100,
        )
    assert calls == []


def test_approximation_study_quadratic_rate():
    errors, slope = approximation_study(
        target=lambda x: np.sin(2.0 * x),
        degree=1,
        deltas=[0.8, 0.4, 0.2, 0.1],
        radius=1.0,
        n_samples=40_000,
        seed=72,
    )
    assert np.all(np.diff(errors) < 0.0)
    assert slope >= 1.7
