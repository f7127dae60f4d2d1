"""Tests for benchmarks, error reports, tuning rules, and sweep studies."""

import collections
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mwls.constants
import mwls.harness
import mwls.solver
from mwls.errors import NumericalError
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
from mwls.model import (
    STREAM_CLOUD,
    BrownianModel,
    _path_end,
    _time_major_normals,
    brownian_model,
    cloud_rng,
    derive_seed,
    sample_cloud,
)
from mwls.regression import Design, LocalPolynomialBasis
from mwls.solver import DriverSpec, TerminalSpec, mwls_solve


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


@pytest.mark.parametrize("name", sorted(register_benchmarks()))
def test_oracles_read_points_by_the_fits_rule(name):
    """Like the fits, an oracle takes (M, 1) points or M coordinates in a
    1-D array, and rejects points of any other width."""
    bench = register_benchmarks()[name]()
    grid = make_theta_grid(1.0, 4)
    pts = np.array([[-0.4], [0.3], [1.2]])
    for oracle in (bench.y_oracle, bench.z_oracle):
        np.testing.assert_array_equal(oracle(grid, 1, pts[:, 0]), oracle(grid, 1, pts))
        with pytest.raises(ValueError) as err:
            oracle(grid, 1, np.zeros((5, 2)))
        assert str(err.value) == "points have shape (5, 2), not (M, 1) for d = 1"


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


def test_b2_oracles_in_row_blocks_keep_the_bits_of_one_product():
    """The b2 rule evaluated over blocks of `_GAUSS_ROWS` rows gives, for y
    and z, the bits of one product over all rows, here three blocks and 37
    rows.  In a child process with one BLAS thread: with several, OpenBLAS
    sums the last rows of each thread's share in another order, so the one
    product's own bits depend on the thread count."""
    code = """
        import math

        import numpy as np

        from mwls.grid import make_theta_grid
        from mwls.harness import _GAUSS_ROWS, _hermite_rule, benchmark_b2

        bench, grid, i = benchmark_b2(), make_theta_grid(1.0, 4), 1
        m = 3 * _GAUSS_ROWS + 37
        pts = np.random.default_rng(52).normal(scale=2.0, size=(m, 1))
        nodes, weights = _hermite_rule()
        scale = math.sqrt(grid.T - grid.points[i])
        values = np.tanh(pts[:, 0][:, None] + scale * nodes[None, :])
        y = values @ weights
        z = (values * nodes[None, :]) @ weights / scale
        print(bench.y_oracle(grid, i, pts).tobytes() == y.tobytes())
        print(bench.z_oracle(grid, i, pts).tobytes() == z[:, None].tobytes())
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=Path(mwls.__file__).parents[1],  # so the child imports these sources
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True"]


def test_b2_oracles_hold_row_blocks_not_whole_clouds():
    bench, grid = benchmark_b2(), make_theta_grid(1.0, 4)
    pts = np.random.default_rng(53).normal(scale=2.0, size=(50_000, 1))
    bench.y_oracle(grid, 1, pts[:10])  # builds the rule
    tracemalloc.start()
    try:
        bench.y_oracle(grid, 1, pts)
        bench.z_oracle(grid, 1, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("name", sorted(register_benchmarks()))
def test_zero_driver_problems_share_one_contract(name):
    """One factory builds every registry problem: the zero driver, or for
    b3 the driver alpha * y with L_f = |alpha| even at alpha = 0, y at N the
    terminal map itself, and ValueErrors for z at N and for any index
    outside 0..N."""
    factory = register_benchmarks()[name]
    grid = make_theta_grid(1.0, 3, theta=0.5)
    pts = np.array([[-0.0], [0.0], [-0.7], [2.5], [9.0]])
    for alpha in (0.5, -1.3, 0.0) if name == "b3" else (None,):
        bench = factory() if alpha is None else factory(alpha=alpha)
        assert bench.driver.is_zero == (alpha is None)
        pc = mwls.solver.problem_constants(bench.model, grid, bench.driver, bench.terminal)
        assert pc.L_f == (0.0 if alpha is None else abs(alpha)) and pc.C_f == 0.0
        y_n = bench.y_oracle(grid, grid.N, pts)
        assert y_n.dtype == float and y_n.tobytes() == bench.terminal.fn(pts).tobytes()
        with pytest.raises(ValueError, match=r"^z has indices 0\.\.2, not the terminal index 3$"):
            bench.z_oracle(grid, grid.N, pts)
        for i in (-1, grid.N + 1):
            with pytest.raises(ValueError, match=rf"^y has indices 0\.\.3, not {i}$"):
                bench.y_oracle(grid, i, pts)
            with pytest.raises(ValueError, match=rf"^z has indices 0\.\.2, not {i}$"):
                bench.z_oracle(grid, i, pts)


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


@pytest.mark.parametrize("factory", [benchmark_b1, benchmark_b2, benchmark_b3])
def test_centered_solves_stay_within_the_restated_bounds(factory):
    """Criterion 7 with centered z-responses, on another grid and seed:
    bound_* dominates emp_*, and on every cloud the root mean square of the
    z-response, rebuilt from the final fits, stays within Theta_z, which
    bounds its conditional L2 norm."""
    bench = factory()
    grid = make_theta_grid(1.0, 8)
    basis = _linear_basis()
    m, seed = 2_000, 12
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=m, seed=seed,
    )
    rep = estimate_errors(sol, bench, fresh_m=2_000)
    assert np.all(rep.emp_y <= rep.bound_y) and np.all(rep.emp_z <= rep.bound_z)
    for i in range(grid.N):
        cloud = sample_cloud(bench.model, grid, i, m, seed)
        s_z, s_y = np.empty((m, 1)), np.empty(m)
        mwls.solver._responses(
            cloud, grid, bench.driver, bench.terminal, sol.y_fits, sol.z_fits, s_z, s_y
        )
        assert math.sqrt(float(np.mean(s_z**2))) <= sol.bounds.Theta_z[i]


def _full_path_draws(model, grid, i, M_i, seed, rows):
    """The index-i cloud's random input as it was drawn before clouds drew
    only their tails: the starts and (M_i, N, q) normals of the (seed, i)
    stream, with X_i the end of each row's path on its first i normals, and
    the tail normals in blocks of rows rows, yielded in that order."""
    rng = cloud_rng(seed, i, STREAM_CLOUD)
    starts = model._draw_start(M_i, rng)
    normals = _time_major_normals(rng, M_i, grid.N, model.q)
    yield _path_end(model, grid, i, starts, normals[:, :i])
    for r in range(0, M_i, rows):
        yield normals[r : r + rows, i:]


def test_tail_and_full_path_clouds_give_the_same_fresh_errors(monkeypatch):
    """With centered z-responses, b3 solves on tail clouds and on clouds cut
    from whole paths have the same fresh-sample errors: over seeds 1-10 the
    mean paired difference of the RMS over indices of fresh_y, and of
    fresh_z, lies within 2 of its standard errors.  Index 0 and the fresh
    samples are the same on both sides, so the runs are compared in pairs."""
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 8)
    basis = _linear_basis(delta=0.5)
    rms = lambda values: math.sqrt(float(np.mean(np.square(values))))
    errors = {}
    full_draws = []

    def counted_full_path_draws(*args):
        full_draws.append(args[2])
        return _full_path_draws(*args)

    for kind in ("tail", "full"):
        if kind == "full":
            monkeypatch.setattr(mwls.solver, "_cloud_draws", counted_full_path_draws)
        for seed in range(1, 11):
            sol = mwls_solve(
                bench.model, grid, bench.driver, bench.terminal, basis, basis,
                cloud_sizes=4_000, seed=seed,
            )
            rep = estimate_errors(sol, bench, fresh_m=4_000)
            errors[kind, seed] = (rms(rep.fresh_y), rms(rep.fresh_z))
    # every cloud of the "full" solves was drawn by the stand-in
    assert full_draws == list(range(grid.N - 1, -1, -1)) * 10
    for column in (0, 1):
        diff = np.array([errors["tail", s][column] - errors["full", s][column]
                         for s in range(1, 11)])
        assert abs(diff.mean()) <= 2.0 * diff.std(ddof=1) / math.sqrt(diff.size)


def test_a_solve_and_its_error_report_build_one_bounds_table(monkeypatch):
    """The bound of `estimate_errors` reads the solution's own table: the
    pair builds one table, with the bits of building it apart."""
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 20)
    basis = _linear_basis(delta=0.5, radius=4.0)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, home in (
        ("bounds_table", mwls.constants),
        ("c_gamma", mwls.constants),
        ("problem_constants", mwls.solver),
    ):
        original = getattr(home, name)
        for module in (mwls.constants, mwls.solver, mwls.harness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=1000, seed=5,
    )
    report = estimate_errors(sol, bench, fresh_m=1000)
    assert calls == {"bounds_table": 1, "c_gamma": 4, "problem_constants": 1}
    monkeypatch.undo()

    pc = mwls.solver.problem_constants(bench.model, grid, bench.driver, bench.terminal)
    k, m = np.full(grid.N, float(basis.K)), np.full(grid.N, 1000.0)
    table = mwls.constants.bounds_table(pc, grid, k, k, m)
    bound_y, bound_z = mwls.constants.global_error_bound(table, report.e_app_y, report.e_app_z)
    expected = {
        "bound_y": bound_y,
        "bound_z": bound_z,
        "dep_y": mwls.constants.dep_errors(table.Theta_y, k, m),
        "dep_z": mwls.constants.dep_errors(table.Theta_z, k, m, q=1),
    }
    for column, values in expected.items():
        assert getattr(report, column).tobytes() == values.tobytes(), column


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
    # a (1, M) or (q, M) stack has M q values but is transposed, not a column
    for label, transposed in (
        ("y", SimpleNamespace(
            y_oracle=lambda g, i, pts: bench.y_oracle(g, i, pts)[None, :],
            z_oracle=bench.z_oracle,
        )),
        ("z", SimpleNamespace(
            y_oracle=bench.y_oracle,
            z_oracle=lambda g, i, pts: bench.z_oracle(g, i, pts).T,
        )),
    ):
        expected = "(400,)" if label == "y" else "(400, 1)"
        with pytest.raises(ValueError, match=(
            f"^{label} oracle returned shape {re.escape('(1, 400)')} at index 0, "
            f"expected {re.escape(expected)}$"
        )):
            estimate_errors(sol, transposed, fresh_m=100)
    # at q = 2 the (2, M) stack of the two columns has the size of (M, 2)
    bench, grid, y_basis, z_basis = _d2_problem()
    sol = _solve(bench, grid, y_basis, z_basis, 2000, seed=63)
    stacked = SimpleNamespace(
        y_oracle=bench.y_oracle,
        z_oracle=lambda g, i, pts: np.stack([np.ones(pts.shape[0]), np.full(pts.shape[0], 2.0)]),
    )
    with pytest.raises(ValueError, match=(
        r"^z oracle returned shape \(2, 2000\) at index 0, expected \(2000, 2\)$"
    )):
        estimate_errors(sol, stacked, fresh_m=100)
    nan_oracle = SimpleNamespace(
        y_oracle=lambda g, i, pts: np.full(pts.shape[0], np.nan),
        z_oracle=bench.z_oracle,
    )
    with pytest.raises(ValueError, match="non-finite"):
        estimate_errors(sol, nan_oracle, fresh_m=100)


def test_estimate_errors_checks_fresh_m_and_seed_before_any_thread(monkeypatch):
    bench = benchmark_b1()
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    sol = mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, basis, basis,
        cloud_sizes=400, seed=63,
    )
    reference = estimate_errors(sol, bench, fresh_m=100, seed=4)
    opened = []
    monkeypatch.setattr(mwls.harness, "Thread", lambda target: opened.append(1))
    for fresh_m in (0, -3):
        with pytest.raises(ValueError, match=f"^fresh_m must be >= 1, got {fresh_m}$"):
            estimate_errors(sol, bench, fresh_m=fresh_m)
    for fresh_m in (100.5, True, "100", None):
        with pytest.raises(ValueError, match=f"^fresh_m {re.escape(repr(fresh_m))} is not an"):
            estimate_errors(sol, bench, fresh_m=fresh_m)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        estimate_errors(sol, bench, fresh_m=100, seed=-1)
    for seed in (1.5, True, "4"):
        with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an integer$"):
            estimate_errors(sol, bench, fresh_m=100, seed=seed)
    assert opened == []
    monkeypatch.undo()
    # numpy integers and integral floats are taken as ints, as for cloud sizes
    for fresh_m, seed in ((np.int64(100), np.uint8(4)), (100.0, 4.0)):
        same = estimate_errors(sol, bench, fresh_m=fresh_m, seed=seed)
        assert type(same.fresh_m) is int and type(same.seed) is int
        assert _report_bytes(same) == _report_bytes(reference)


# ---------------------------------------------------------------------------
# the parts of estimate_errors on the caller's thread and one helper


class _InlineThread:
    """Stands in for the helper thread: its target runs when it is started,
    on the caller's thread, before the caller takes any part."""

    def __init__(self, target):
        self.target = target

    def start(self):
        self.target()

    def join(self):
        pass


def _report_bytes(report) -> dict:
    """Every field of an ErrorReport, arrays as their raw bytes."""
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(report).items()
    }


def _b3_problem(n):
    bench = benchmark_b3(alpha=0.5, x0_width=3.0)
    basis = _linear_basis(delta=1.0, radius=3.0)
    return bench, make_theta_grid(1.0, n), basis, basis


def _d2_problem():
    """d = 2 Brownian motion, a driver that reads z, and closed-form maps that
    serve as oracles (they need not be exact for these checks)."""
    driver = DriverSpec(
        fn=lambda k, x, y, z: 0.3 * y + 0.2 * z[:, 0] - 0.1 * z[:, 1],
        L_f=0.5, C_f=0.0,
    )
    terminal = TerminalSpec(
        fn=lambda x: np.tanh(x[:, 0] + x[:, 1]), C_xi=1.0, C_phi=math.sqrt(2.0),
        theta_phi=1.0,
    )
    bench = SimpleNamespace(
        model=brownian_model(d=2, x0=0.0, x0_width=3.0),
        driver=driver,
        terminal=terminal,
        y_oracle=lambda g, i, pts: np.tanh(pts[:, 0] + pts[:, 1]),
        z_oracle=lambda g, i, pts: np.cosh(pts[:, :1] - pts) ** -2,
    )
    y_basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=2)
    z_basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=2, out_dim=2)
    return bench, make_theta_grid(1.0, 3), y_basis, z_basis


def _solve(bench, grid, y_basis, z_basis, m, seed):
    return mwls_solve(
        bench.model, grid, bench.driver, bench.terminal, y_basis, z_basis,
        cloud_sizes=m, seed=seed,
    )


def _rank(i, pts, fresh_m):
    """Rank of the part that calls an oracle at index i on pts: 2i for
    training(i) and 2i + 1 for fresh(i), whose points have fresh_m rows."""
    return 2 * i + (pts.shape[0] == fresh_m)


@pytest.mark.parametrize("problem", ["b3", "d2"])
def test_fresh_parts_run_on_one_helper_thread_with_the_same_bits(monkeypatch, problem):
    """Each of the 2N parts runs once, wholly on the caller's thread or on
    one helper thread; no thread is left, and the report has the bits of
    running every part on the caller's thread."""
    bench, grid, y_basis, z_basis = _b3_problem(4) if problem == "b3" else _d2_problem()
    m, fresh_m = 1500, 700  # oracle calls on training and fresh points differ in rows
    sol = _solve(bench, grid, y_basis, z_basis, m, seed=81)
    calls = []  # (rank, what, thread)

    def recorded(what, fn):
        def call(*args):
            if what == "marginal":  # (model, grid, i, M, seed), only in fresh(i)
                rank = 2 * args[2] + 1
            else:
                rank = _rank(args[1], args[2], fresh_m)
            calls.append((rank, what, threading.get_ident()))
            return fn(*args)

        return call

    oracle = SimpleNamespace(
        y_oracle=recorded("y", bench.y_oracle), z_oracle=recorded("z", bench.z_oracle)
    )
    monkeypatch.setattr(
        mwls.harness, "sample_marginal", recorded("marginal", mwls.harness.sample_marginal)
    )
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the interpreter far more often
    try:
        shipped = estimate_errors(sol, oracle, fresh_m=fresh_m, seed=82)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    ranks = range(2 * grid.N)
    assert sorted((rank, what) for rank, what, _ in calls) == sorted(
        [(rank, "y") for rank in ranks]
        + [(rank, "z") for rank in ranks]
        + [(rank, "marginal") for rank in ranks if rank % 2]
    )
    thread_of: dict = {}
    for rank, _, thread in calls:
        assert thread_of.setdefault(rank, thread) == thread
    assert len(set(thread_of.values()) - {threading.get_ident()}) <= 1

    monkeypatch.setattr(mwls.harness, "Thread", _InlineThread)
    inline = estimate_errors(sol, oracle, fresh_m=fresh_m, seed=82)
    assert _report_bytes(shipped) == _report_bytes(inline)


def _failing_oracle(bench, fresh_m, failures, slow=None):
    """bench's oracles, but the y oracle, the first one each part calls,
    raises failures[rank] in the parts that have one, the part of rank
    slow only after 50 ms; started lists the rank of each call."""
    started = []

    def y_oracle(grid, i, pts):
        rank = _rank(i, pts, fresh_m)
        started.append(rank)
        if rank in failures:
            if rank == slow:
                time.sleep(0.05)
            raise failures[rank]
        return bench.y_oracle(grid, i, pts)

    return SimpleNamespace(y_oracle=y_oracle, z_oracle=bench.z_oracle), started


@pytest.mark.parametrize(
    "fresh_fails_at, training_fails_at, raised",
    [(1, 2, "fresh"), (0, 0, "training"), (2, 1, "training")],
)
def test_estimate_errors_raises_the_first_failure_in_index_order(
    monkeypatch, fresh_fails_at, training_fails_at, raised
):
    """Of failures in the training and fresh parts, the first in the order
    training(0), fresh(0), training(1), ... is raised as is, and no thread
    is left.  Every part before it ran once; run inline, no part after it
    starts."""
    bench, grid, basis, _ = _b3_problem(4)
    m, fresh_m = 400, 300
    sol = _solve(bench, grid, basis, basis, m, seed=83)
    ranks = {"fresh": 2 * fresh_fails_at + 1, "training": 2 * training_fails_at}
    failures = {rank: RuntimeError(f"{kind} points") for kind, rank in ranks.items()}
    for worker in ("helper", "inline"):
        if worker == "inline":
            monkeypatch.setattr(mwls.harness, "Thread", _InlineThread)
        oracle, started = _failing_oracle(bench, fresh_m, failures)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            estimate_errors(sol, oracle, fresh_m=fresh_m)
        assert err.value is failures[ranks[raised]]
        assert threading.active_count() == before
        assert len(set(started)) == len(started)
        if worker == "inline":
            assert started == list(range(ranks[raised] + 1))
        else:
            assert set(range(ranks[raised] + 1)) <= set(started)


@pytest.mark.parametrize(
    "first", range(6), ids=[f"{('training', 'fresh')[r % 2]}({r // 2})" for r in range(6)]
)
def test_the_first_failing_part_is_raised_though_a_later_one_fails_sooner(first):
    """N = 3: every part from `first` on fails, the later ones at once and
    `first` only after a pause, so that one of them is mostly recorded
    first.  The exception raised is still that of `first`, as the same
    object, and no thread is left."""
    bench, grid, basis, _ = _b3_problem(3)
    m, fresh_m = 400, 300
    sol = _solve(bench, grid, basis, basis, m, seed=88)
    failures = {rank: RuntimeError(f"part {rank}") for rank in range(first, 6)}
    oracle, started = _failing_oracle(bench, fresh_m, failures, slow=first)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        estimate_errors(sol, oracle, fresh_m=fresh_m)
    assert err.value is failures[first]
    assert threading.active_count() == before
    assert len(set(started)) == len(started) and set(range(first + 1)) <= set(started)


def test_one_step_grid_solves_and_reports_with_the_same_bits(monkeypatch):
    """N = 1: the solve draws no cloud ahead, and the two threads share two
    parts."""
    bench, grid, basis, _ = _b3_problem(1)
    before = threading.active_count()
    sol = _solve(bench, grid, basis, basis, 600, seed=84)
    shipped = estimate_errors(sol, bench, fresh_m=500)
    assert threading.active_count() == before
    assert shipped.fresh_y.shape == shipped.emp_z.shape == (1,)
    assert np.all(np.isfinite(shipped.fresh_y)) and shipped.fresh_y[0] > 0.0
    monkeypatch.setattr(mwls.harness, "Thread", _InlineThread)
    inline = estimate_errors(sol, bench, fresh_m=500)
    assert _report_bytes(shipped) == _report_bytes(inline)


def test_the_helper_ends_once_the_fresh_parts_are_done():
    """While the caller is held in the first part it takes, the helper takes
    every other part, and its thread ends once the list is drained, not at
    the end of the call."""
    bench, grid, basis, _ = _b3_problem(3)
    sol = _solve(bench, grid, basis, basis, 400, seed=85)
    caller = threading.get_ident()
    ran, ended = [], []  # (rank, thread) per part; whether the helper ended

    def y_oracle(grid, i, pts):
        ran.append((_rank(i, pts, 300), threading.get_ident()))
        if threading.get_ident() == caller and not ended:
            deadline = time.monotonic() + 5.0
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.001)
            ended.append(threading.active_count() == before)
        return bench.y_oracle(grid, i, pts)

    before = threading.active_count()
    estimate_errors(sol, SimpleNamespace(y_oracle=y_oracle, z_oracle=bench.z_oracle), fresh_m=300)
    assert ended == [True]
    assert sorted(rank for rank, _ in ran) == list(range(2 * grid.N))
    assert [thread for _, thread in ran].count(caller) == 1


@pytest.mark.parametrize("problem", ["b3", "d2", "d2 with two geometries"])
def test_training_fits_reuse_the_gram_factors_of_the_solve(monkeypatch, problem):
    """A solve and its estimate_errors eigendecompose each index's Gram
    matrices once per basis geometry, in the solve, and the report has the
    bits of one whose training designs factorize them again."""
    bench, grid, y_basis, z_basis = _b3_problem(4) if problem == "b3" else _d2_problem()
    if problem == "d2 with two geometries":
        z_basis = dataclasses.replace(z_basis, delta=1.5)
    geometries = {y_basis.geometry, z_basis.geometry}
    eigh, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = _solve(bench, grid, y_basis, z_basis, 1500, seed=86)
    assert len(calls) == grid.N * len(geometries)
    for i in range(grid.N):
        assert set(sol.factors[i]) == geometries
        assert not sol.marginals[i].flags.writeable
    report = estimate_errors(sol, bench, fresh_m=700, seed=87)
    assert len(calls) == grid.N * len(geometries)
    monkeypatch.setattr(Design, "adopt_factors", lambda design, factors: None)
    again = estimate_errors(sol, bench, fresh_m=700, seed=87)
    assert len(calls) == 2 * grid.N * len(geometries)
    assert _report_bytes(report) == _report_bytes(again)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 8, 9, 16])
def test_row_norms_are_bitwise_the_axis_sum_forms(q):
    # magnitudes spread over decades, so a change in the order of the
    # component sums would move last bits
    rng = np.random.default_rng(70 + q)
    residual = rng.standard_normal((5003, q)) * np.exp(4.0 * rng.standard_normal((5003, q)))
    sq = (residual**2).sum(axis=1)
    assert mwls.harness._row_squares(residual).tobytes() == sq.tobytes()
    assert mwls.harness._row_squares(residual[:, 0]).tobytes() == (residual[:, 0] ** 2).tobytes()
    norm = math.sqrt(float(np.mean(sq)))
    assert mwls.harness._rms(residual) == float(np.sqrt(np.mean(sq)))
    se = float(np.std(sq)) / math.sqrt(sq.size) / (2.0 * norm)
    assert mwls.harness._norm_and_se(residual) == (norm, se)


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
    with pytest.raises(ValueError, match=r"^d must be >= 1, got 0$"):
        tune_parameters(N=10, kappa=0.5, l=1, d=0, lam=1.0, regime="smooth")
    with pytest.raises(ValueError, match=r"^theta_pi must lie in \(0, 1\], got 1\.5$"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="holder", theta_pi=1.5)
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
    with pytest.raises(ValueError, match="theta_pi applies to the holder regime only, got 0.5"):
        tune_parameters(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth", theta_pi=0.5)


@pytest.mark.parametrize("kappa, lam, radius", [(0.5, 1e-320, "inf"), (1e-320, 1e300, "0.0")])
def test_tune_names_lambda_when_the_support_half_width_is_out_of_range(kappa, lam, radius):
    # R = 2 kappa log(N+1) / lambda overflows to inf, or underflows to 0
    with pytest.raises(ValueError, match=f"/ lambda must be positive and finite, got {radius}$") as err:
        tune_parameters(N=4, kappa=kappa, l=1, d=1, lam=lam, regime="smooth")
    assert err.value.argument == "lam"


def test_tune_gives_a_huge_basis_dimension_in_three_digits():
    with pytest.raises(ValueError) as err:
        tune_parameters(N=4, kappa=0.5, l=1, d=2, lam=1e-300, regime="smooth")
    assert str(err.value) == (
        "plan is not self-consistent at index 0: M=67 below basis dimension 1.24e+602"
    )


@pytest.mark.parametrize("name", ["l", "d"])
def test_tune_takes_integer_degrees_and_dimensions(name):
    kwargs = dict(N=10, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth")
    for value, shown in ((1.5, "1.5"), (True, "True"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"{name} = {shown} is not an integer"):
            tune_parameters(**{**kwargs, name: value})
    plan = tune_parameters(**kwargs)
    for value in (1.0, np.int64(1)):
        other = tune_parameters(**{**kwargs, name: value})
        assert type(getattr(other, name)) is int
        np.testing.assert_array_equal(other.m, plan.m, strict=True)
        np.testing.assert_array_equal(other.delta_z, plan.delta_z, strict=True)


def test_tune_takes_an_integer_n_and_a_positive_finite_t():
    kwargs = dict(kappa=0.5, l=1, d=1, lam=1.0, regime="smooth")
    for n, shown in ((2.5, "2.5"), (True, "True"), ("10", "'10'")):
        with pytest.raises(ValueError, match=f"N = {shown} is not an integer"):
            tune_parameters(N=n, **kwargs)
    for t, message in ((-1.0, "terminal time must be positive, got -1.0"),
                       (0.0, "terminal time must be positive"),
                       (math.inf, "terminal time must be finite, got inf"),
                       (math.nan, "terminal time must be finite")):
        with pytest.raises(ValueError, match=message):
            tune_parameters(N=10, T=t, **kwargs)
    plan = tune_parameters(N=10, **kwargs)
    for n in (10.0, np.int64(10)):
        other = tune_parameters(N=n, **kwargs)
        assert type(other.N) is int and other.N == 10
        assert other.grid.points.tobytes() == plan.grid.points.tobytes()
        np.testing.assert_array_equal(other.m, plan.m, strict=True)


# ---------------------------------------------------------------------------
# sweep studies


def test_convergence_study_m_sweep():
    # narrow start box and wide basis support: the statistical error is the
    # only error source, so it must shrink with the cloud size
    bench = benchmark_b1(x0_width=3.0)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=5.0)
    study = convergence_study(
        bench, grid, basis, basis, m_values=[400, 1600, 6400], seed=71, fresh_m=3000,
    )
    assert study.parameter == "m"
    assert study.index == 2
    assert study.slope_z < -0.25
    assert study.slope_emp_z < -0.25
    assert study.fresh_z[0] > study.fresh_z[-1]
    # the cost column, N * sum(M_i) per run: the steps of full-length paths
    # for every cloud row, not the sum of M_i (N - i) tail steps simulated
    np.testing.assert_array_equal(
        study.costs, [grid.N * grid.N * m for m in (400, 1600, 6400)]
    )

    for m_values in ([400], [400, 400]):
        with pytest.raises(ValueError, match="at least two distinct values"):
            convergence_study(bench, grid, basis, basis, m_values=m_values, seed=71)
    with pytest.raises(ValueError, match="readout index"):
        convergence_study(
            bench, grid, basis, basis, m_values=[400, 800], seed=71, index=9
        )


def test_convergence_study_readout_index_must_be_an_integer(monkeypatch):
    monkeypatch.setattr(mwls.harness, "mwls_solve", None)  # nothing may be solved
    basis = _linear_basis(delta=1.0, radius=5.0)
    for index, shown in ((1.7, "1.7"), (True, "True"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"readout index {shown} is not an integer"):
            convergence_study(
                benchmark_b1(x0_width=3.0), make_theta_grid(1.0, 4), basis, basis,
                m_values=[400, 800], seed=71, index=index,
            )


def test_convergence_study_failed_point_stops_the_sweep(monkeypatch):
    """The first point fails: its exception reaches the caller as raised,
    no later point starts, and no thread is left."""
    failure = NumericalError("the first point fails")
    started = []
    solve = mwls.harness.mwls_solve

    def first_fails(*args, cloud_sizes, **kwargs):
        started.append(cloud_sizes)
        if cloud_sizes == 400:
            raise failure
        return solve(*args, cloud_sizes=cloud_sizes, **kwargs)

    monkeypatch.setattr(mwls.harness, "mwls_solve", first_fails)
    basis = _linear_basis(delta=1.0, radius=5.0)
    before = threading.active_count()
    with pytest.raises(NumericalError) as caught:
        convergence_study(
            benchmark_b1(x0_width=3.0), make_theta_grid(1.0, 4), basis, basis,
            m_values=[400, 800, 1600, 3200, 6400], seed=71, fresh_m=300,
        )
    assert caught.value is failure
    assert started == [400]
    assert threading.active_count() == before


def test_convergence_study_reports_are_the_points_solved_by_hand():
    """Point p of a sweep is mwls_solve and estimate_errors at the derived
    seed derive_seed(seed, p), bit for bit, and the table reads them."""
    bench = benchmark_b3(alpha=0.5, x0_width=3.0)
    grid = make_theta_grid(1.0, 4)
    y_basis = _linear_basis(delta=1.0, radius=4.0)
    z_basis = _linear_basis(delta=0.5, radius=4.0)
    m_values = [300, 900, 600]
    study = convergence_study(
        bench, grid, y_basis, z_basis, m_values=m_values, seed=73, fresh_m=500, index=1,
    )
    assert len(study.reports) == len(m_values)
    for point, m in enumerate(m_values):
        point_seed = derive_seed(73, point)
        sol = _solve(bench, grid, y_basis, z_basis, m, seed=point_seed)
        by_hand = estimate_errors(sol, bench, fresh_m=500, seed=point_seed)
        assert _report_bytes(study.reports[point]) == _report_bytes(by_hand)
        assert study.fresh_y[point] == by_hand.fresh_y[1]
        assert study.emp_z[point] == by_hand.emp_z[1]
        assert study.costs[point] == by_hand.cost


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


def test_convergence_study_checks_fresh_m_and_seed_before_solving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no point may be solved")

    monkeypatch.setattr(mwls.harness, "mwls_solve", never)
    basis = _linear_basis(delta=1.0, radius=5.0)
    for kwargs, message in (
        ({"fresh_m": 0}, "fresh_m must be >= 1, got 0"),
        ({"fresh_m": 2.5}, "fresh_m 2.5 is not an integer"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": "7"}, "seed '7' is not an integer"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_study(
                benchmark_b1(x0_width=3.0), make_theta_grid(1.0, 4), basis, basis,
                m_values=[400, 800], **{"seed": 71, "fresh_m": 300, **kwargs},
            )


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


def test_approximation_study_checks_n_samples_and_seed():
    for kwargs, message in (
        ({"n_samples": 2.5}, "n_samples 2.5 is not an integer"),
        ({"n_samples": 0}, "n_samples must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            approximation_study(np.sin, degree=1, deltas=[0.5, 0.25], **kwargs)


def test_approximation_study_needs_two_deltas():
    """Repeated deltas are one point: the M sweep's rule, checked before
    np.polyfit would warn of a rank-deficient fit."""
    for deltas in ([0.5], [0.5, 0.5], np.array([0.25, 0.25, 0.25])):
        with pytest.raises(ValueError, match="^a delta sweep needs at least two distinct values$"):
            approximation_study(np.sin, degree=1, deltas=deltas)


def test_approximation_study_slope_of_an_exact_fit_is_zero():
    """A target in the fitting space has zero error at every delta; the
    slope reads the errors floored at 1e-300, as the M sweep's slopes do."""
    errors, slope = approximation_study(lambda x: 0.0 * x, degree=1, deltas=[0.5, 0.25])
    np.testing.assert_array_equal(errors, [0.0, 0.0])
    assert abs(slope) < 1e-12  # polyfit's rounding on two equal logs
