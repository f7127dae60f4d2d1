"""Tests for the backward least-squares solver and its response assembly."""

import dataclasses
import gc
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

import mwls.solver
from mwls.constants import bounds_table
from mwls.errors import NumericalError
from mwls.grid import make_theta_grid
from mwls.harness import benchmark_b3, tune_parameters
from mwls.model import brownian_model, euler_sde_model, sample_cloud
from mwls.regression import LocalPolynomialBasis, LocalPolynomialEstimator
from mwls.solver import (
    DriverSpec,
    TerminalSpec,
    _driver_values,
    _responses,
    mwls_solve,
    problem_constants,
    zero_driver,
)


def _zero_estimator(basis):
    coef = np.zeros((basis.n_cells, basis.monomials, basis.out_dim))
    return LocalPolynomialEstimator(basis=basis, coefficients=coef)


def _identity_terminal(bound=8.0):
    """Phi(x) = first component, declared bound over the working region."""
    return TerminalSpec(fn=lambda x: x[:, 0], C_xi=bound, C_phi=1.0, theta_phi=1.0)


def _tanh_terminal():
    return TerminalSpec(fn=lambda x: np.tanh(x[:, 0]), C_xi=1.0, C_phi=1.0, theta_phi=1.0)


def _cloud_responses(cloud, grid, driver, terminal, y_fits, z_fits):
    """The z-response, the y-response less its k = i term, and y_{i+1}(X_{i+1})
    of a whole cloud, written into fresh arrays."""
    s_z, s_y = np.empty((cloud.M, cloud.H.shape[2])), np.empty(cloud.M)
    y_next = _responses(cloud, grid, driver, terminal, y_fits, z_fits, s_z, s_y)
    return s_z, s_y, y_next


def _with_own_term(s_y, cloud, grid, driver, y_next, z_fits):
    """Add the k = i term as mwls_solve does once z_fits[i] is fitted."""
    i = cloud.i
    if not driver.is_zero:
        s_y += _driver_values(driver, i, i, cloud.x_at(i), y_next, z_fits[i], None) * grid.steps[i]
    return s_y


def _z_response(cloud, grid, driver, terminal, y_fits, z_fits):
    s_z, _, _ = _cloud_responses(cloud, grid, driver, terminal, y_fits, z_fits)
    return s_z


def _y_response(cloud, grid, driver, terminal, y_fits, z_fits):
    """The y-response as mwls_solve assembles it, own k = i term included;
    z_fits[i] must be fitted (z before y within each index)."""
    _, s_y, y_next = _cloud_responses(cloud, grid, driver, terminal, y_fits, z_fits)
    return _with_own_term(s_y, cloud, grid, driver, y_next, z_fits)


# ---------------------------------------------------------------------------
# specs and constants assembly


def test_driver_and_terminal_validation():
    assert zero_driver().is_zero
    assert not DriverSpec(fn=lambda i, x, y, z: y, L_f=1.0, C_f=0.0).is_zero
    with pytest.raises(ValueError, match="driver constants"):
        DriverSpec(fn=None, L_f=-1.0, C_f=0.0)
    with pytest.raises(ValueError, match="driver constants must be finite"):
        DriverSpec(fn=None, L_f=np.nan, C_f=0.0)
    with pytest.raises(ValueError, match="driver constants must be finite"):
        DriverSpec(fn=None, L_f=0.0, C_f=np.inf)
    with pytest.raises(ValueError, match="theta_L"):
        DriverSpec(fn=None, L_f=0.0, C_f=0.0, theta_L=0.0)
    with pytest.raises(ValueError, match="theta_C"):
        DriverSpec(fn=None, L_f=0.0, C_f=0.0, theta_C=1.5)
    with pytest.raises(ValueError, match="C_xi"):
        TerminalSpec(fn=lambda x: x[:, 0], C_xi=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="C_xi must be finite"):
            TerminalSpec(fn=lambda x: x[:, 0], C_xi=bad)
        with pytest.raises(ValueError, match="C_phi must be finite"):
            TerminalSpec(fn=lambda x: x[:, 0], C_xi=1.0, C_phi=bad, theta_phi=1.0)
    with pytest.raises(ValueError, match="C_phi must be nonnegative"):
        TerminalSpec(fn=lambda x: x[:, 0], C_xi=1.0, C_phi=-1.0, theta_phi=1.0)
    for bad in (0.0, 2.0, np.nan):
        with pytest.raises(ValueError, match="theta_phi must lie in"):
            TerminalSpec(fn=lambda x: x[:, 0], C_xi=1.0, C_phi=1.0, theta_phi=bad)
    with pytest.raises(ValueError, match="together"):
        TerminalSpec(fn=lambda x: x[:, 0], C_xi=1.0, C_phi=1.0)
    with pytest.raises(ValueError, match="required"):
        TerminalSpec(fn=None, C_xi=1.0)


def test_problem_constants_assembly():
    model = brownian_model(d=2, x0=0.0)
    grid = make_theta_grid(2.0, 6, theta=0.5)
    driver = DriverSpec(fn=lambda i, x, y, z: y, L_f=0.4, C_f=0.1, theta_L=0.8, theta_C=0.9)
    terminal = _tanh_terminal()
    pc = problem_constants(model, grid, driver, terminal)
    assert pc.L_f == 0.4 and pc.C_f == 0.1
    assert pc.theta_L == 0.8 and pc.theta_C == 0.9
    assert pc.C_M == model.C_M and pc.q == model.q == 2
    assert pc.C_xi == 1.0 and pc.C_phi == 1.0 and pc.theta_phi == 1.0
    assert pc.T == 2.0
    assert pc.R_pi == max(1.0, grid.r_pi)


# ---------------------------------------------------------------------------
# response assembly


def _assert_literal_less_centering(resp, literal, centering):
    """resp is the paper's literal response less the centering term
    phi(X_i) H_N, to rounding."""
    scale = np.abs(literal).max() + np.abs(centering).max()
    np.testing.assert_allclose(resp + centering, literal, rtol=0.0, atol=1e-13 * scale)


def test_z_response_zero_driver_is_weighted_terminal():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 1, 50, seed=7)
    none_fits = [None] * grid.N
    resp = _z_response(cloud, grid, zero_driver(), _identity_terminal(), none_fits, none_fits)
    x_n, x_i, h_n = cloud.x_at(4)[:, 0], cloud.x_at(1)[:, 0], cloud.h_at(4)
    np.testing.assert_array_equal(resp, (x_n - x_i)[:, None] * h_n)
    _assert_literal_less_centering(resp, x_n[:, None] * h_n, x_i[:, None] * h_n)


def test_z_response_last_index_has_empty_driver_sum():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 3, 30, seed=8)

    def exploding(*args):
        raise AssertionError("driver must not be evaluated at the last index")

    driver = DriverSpec(fn=exploding, L_f=1.0, C_f=1.0)
    none_fits = [None] * grid.N
    resp = _z_response(cloud, grid, driver, _identity_terminal(), none_fits, none_fits)
    x_n, x_i, h_n = cloud.x_at(4)[:, 0], cloud.x_at(3)[:, 0], cloud.h_at(4)
    np.testing.assert_array_equal(resp, (x_n - x_i)[:, None] * h_n)
    _assert_literal_less_centering(resp, x_n[:, None] * h_n, x_i[:, None] * h_n)


def test_z_response_gaussian_identity():
    # terminal W_T weighted by (W_T - W_{t_i})/(T - t_i) has conditional mean 1
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 10)
    cloud = sample_cloud(model, grid, 2, 200_000, seed=9)
    none_fits = [None] * grid.N
    resp = _z_response(cloud, grid, zero_driver(), _identity_terminal(), none_fits, none_fits)
    mean = float(np.mean(resp[:, 0]))
    tol = 4.0 * float(np.std(resp[:, 0])) / np.sqrt(cloud.M)
    assert abs(mean - 1.0) <= tol


def test_y_response_zero_driver_is_terminal():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 1, 40, seed=10)
    none_fits = [None] * grid.N
    resp = _y_response(cloud, grid, zero_driver(), _identity_terminal(), none_fits, none_fits)
    np.testing.assert_array_equal(resp, cloud.x_at(4)[:, 0])


def test_y_response_constant_driver_is_riemann_sum():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 5)
    i = 1
    cloud = sample_cloud(model, grid, i, 25, seed=11)
    driver = DriverSpec(fn=lambda k, x, y, z: 0.7, L_f=0.0, C_f=0.7)
    terminal = TerminalSpec(fn=lambda x: np.zeros(x.shape[0]), C_xi=0.0)
    basis = LocalPolynomialBasis(degree=0, delta=1.0, radius=3.0, d=1)
    fits = [_zero_estimator(basis)] * grid.N
    resp = _y_response(cloud, grid, driver, terminal, fits, fits)
    np.testing.assert_allclose(resp, 0.7 * (grid.T - grid.points[i]), rtol=1e-12)


def test_z_response_at_q3_is_bitwise_the_broadcast_sum():
    """The z-response of a q = 3 cloud is the same sum built by (M, q)
    broadcasts in ascending k, and the literal sum less phi(X_i) H_N."""
    model = brownian_model(d=3, drift=[0.2, -0.1, 0.3], x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 5, theta=0.7)
    i = 1
    cloud = sample_cloud(model, grid, i, 4001, seed=14)
    rng = np.random.default_rng(15)
    fits = {}
    for out_dim in (1, 3):
        basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=3, out_dim=out_dim)
        coefficients = rng.normal(size=(basis.n_cells, basis.monomials, out_dim))
        fits[out_dim] = [LocalPolynomialEstimator(basis, coefficients)] * grid.N
    terms = {}

    def fn(k, x, y, z):
        terms[k] = 0.3 * y + z[:, 0] - z[:, 2]
        return terms[k]

    driver = DriverSpec(fn=fn, L_f=1.0, C_f=0.0)
    terminal = TerminalSpec(fn=lambda x: np.tanh(x.sum(axis=1)), C_xi=1.0)
    s_z = _z_response(cloud, grid, driver, terminal, fits[1], fits[3])
    phi_n, phi_i = terminal.fn(cloud.x_at(grid.N)), terminal.fn(cloud.x_at(i))
    h_n = cloud.h_at(grid.N)
    expected, literal = (phi_n - phi_i)[:, None] * h_n, phi_n[:, None] * h_n
    assert sorted(terms) == list(range(i + 1, grid.N))
    for k in sorted(terms):
        term = terms[k][:, None] * cloud.h_at(k) * grid.steps[k]
        expected += term
        literal += term
    assert s_z.tobytes() == expected.tobytes()
    _assert_literal_less_centering(s_z, literal, phi_i[:, None] * h_n)


def test_the_driver_reads_the_fits_of_its_own_sum_term():
    """Each driver call f_k(x, y, z) of the responses at index i gets, bit for
    bit, x = X_k, y = y_{k+1}(X_{k+1}) (phi(X_N) at k = N-1) and
    z = z_k(X_k), with fits that differ at every index; the value returned
    is y_{i+1}(X_{i+1}) (phi(X_N) at i = N-1)."""
    model = brownian_model(d=2, drift=[0.2, -0.1], x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 5, theta=0.7)
    rng = np.random.default_rng(16)
    y_basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=2)
    z_basis = dataclasses.replace(y_basis, out_dim=2)

    def random_fits(basis):
        return [
            LocalPolynomialEstimator(
                basis, rng.normal(size=(basis.n_cells, basis.monomials, basis.out_dim))
            )
            for _ in range(grid.N)
        ]

    y_fits, z_fits = random_fits(y_basis), random_fits(z_basis)
    calls = []

    def fn(k, x, y, z):
        calls.append((k, x.copy(), y.copy(), z.copy()))
        return 0.3 * y + z[:, 0] - z[:, 1]

    driver = DriverSpec(fn=fn, L_f=1.0, C_f=0.0)
    terminal = TerminalSpec(fn=lambda x: np.tanh(x[:, 0] - x[:, 1]), C_xi=1.0)

    def y_at(cloud, k):
        if k == grid.N:
            return terminal.fn(cloud.x_at(k))
        return y_fits[k].evaluate(cloud.x_at(k))[:, 0]

    for i in range(grid.N):
        cloud = sample_cloud(model, grid, i, 3001, seed=17 + i)
        calls.clear()
        _, _, y_next = _cloud_responses(cloud, grid, driver, terminal, y_fits, z_fits)
        assert sorted(k for k, *_ in calls) == list(range(i + 1, grid.N))
        for k, x, y, z in calls:
            assert x.tobytes() == cloud.x_at(k).tobytes()
            assert y.tobytes() == y_at(cloud, k + 1).tobytes()
            assert z.tobytes() == z_fits[k].evaluate(cloud.x_at(k)).tobytes()
        assert y_next.tobytes() == y_at(cloud, i + 1).tobytes()


def test_the_driver_is_called_once_a_sum_term_in_ascending_k():
    """Within one block the driver terms are evaluated in ascending k, each
    once, and added to the sums as they come; of several non-finite terms
    the one at the lowest k is reported."""
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 6, theta=0.7)
    basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=1)
    fits = [_zero_estimator(basis)] * grid.N
    order = []

    def fn(k, x, y, z):
        order.append(k)
        return 0.5 * y

    driver = DriverSpec(fn=fn, L_f=0.5, C_f=0.0)
    for i in range(grid.N):
        cloud = sample_cloud(model, grid, i, 200, seed=18 + i)
        order.clear()
        _cloud_responses(cloud, grid, driver, _tanh_terminal(), fits, fits)
        assert order == list(range(i + 1, grid.N))

    def bad_at_three_and_four(k, x, y, z):
        return np.full(x.shape[0], np.nan if k in (3, 4) else 0.0)

    cloud = sample_cloud(model, grid, 0, 200, seed=18)
    driver = DriverSpec(fn=bad_at_three_and_four, L_f=1.0, C_f=1.0)
    with pytest.raises(
        NumericalError,
        match=r"^non-finite driver value in the response at time index 0, sum term k=3, path 0$",
    ):
        _cloud_responses(cloud, grid, driver, _tanh_terminal(), fits, fits)


def test_response_builders_flag_nonfinite_driver_terms():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 0, 20, seed=13)
    basis = LocalPolynomialBasis(degree=0, delta=2.0, radius=3.0, d=1)
    fits = [_zero_estimator(basis)] * grid.N

    def bad_at_two(k, x, y, z):
        return np.full(x.shape[0], np.nan) if k == 2 else np.zeros(x.shape[0])

    driver = DriverSpec(fn=bad_at_two, L_f=1.0, C_f=1.0)
    with pytest.raises(
        NumericalError,
        match=r"^non-finite driver value in the response at time index 0, sum term k=2, path 0$",
    ):
        _z_response(cloud, grid, driver, _tanh_terminal(), fits, fits)


# ---------------------------------------------------------------------------
# the backward solve


def _linear_basis(delta=1.0, radius=4.0, out_dim=1):
    return LocalPolynomialBasis(degree=1, delta=delta, radius=radius, d=1, out_dim=out_dim)


@pytest.mark.parametrize(
    "driver, terminal, message",
    [
        (
            DriverSpec(fn=lambda k, x, y, z: np.zeros(x.shape[0] + (k == 2)), L_f=0.0, C_f=0.0),
            _tanh_terminal(),
            "driver returned 51 values for 50 states at k=2",
        ),
        (
            zero_driver(),
            TerminalSpec(fn=lambda x: np.zeros(3), C_xi=1.0),
            "terminal map returned 3 values for 50 states",
        ),
    ],
)
def test_solve_rejects_callbacks_of_another_length(driver, terminal, message):
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mwls_solve(
            model, grid, driver, terminal, _linear_basis(), _linear_basis(),
            cloud_sizes=50, seed=3,
        )


def test_an_overflowing_response_names_its_time_index_and_path():
    """Every terminal and driver value is finite, but a response sum
    overflows: the solve raises NumericalError naming the index and the
    first row that overflowed as its path, not ols_fit's ValueError."""
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    seed = 3
    # zero driver, terminal +-1.5e308: phi(X_N) - phi(X_2) overflows where
    # X_N and X_2 lie on either side of 0
    signs = TerminalSpec(fn=lambda x: np.where(x[:, 0] > 0.0, 1.5e308, -1.5e308), C_xi=1.5e308)
    cloud = sample_cloud(model, grid, 2, 2000, seed=seed)
    first = int(np.argmax((cloud.x_at(3)[:, 0] > 0.0) != (cloud.x_at(2)[:, 0] > 0.0)))
    assert first > 0
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match=f"^non-finite z-response at time index 2, path {first}$"
    ):
        mwls_solve(model, grid, zero_driver(), signs, basis, basis, cloud_sizes=2000, seed=seed)
    # one step, constant terminal 1e308: the y-response phi(X_1) + f_0 Delta_0
    # overflows where the driver is 1e308, at X_0 > 0.5, and its z-response
    # phi(X_1) - phi(X_0) is zero, so no fit overflows before it
    one_step = make_theta_grid(1.0, 1)
    driver = DriverSpec(
        fn=lambda k, x, y, z: np.where(x[:, 0] > 0.5, 1e308, 0.0), L_f=0.0, C_f=1e308
    )
    constant = TerminalSpec(fn=lambda x: np.full(x.shape[0], 1e308), C_xi=1e308)
    cloud = sample_cloud(model, one_step, 0, 2000, seed=seed)
    first = int(np.argmax(cloud.x_at(0)[:, 0] > 0.5))
    assert first > 0
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match=f"^non-finite y-response at time index 0, path {first}$"
    ):
        mwls_solve(model, one_step, driver, constant, basis, basis, cloud_sizes=2000, seed=seed)


def test_a_non_finite_terminal_value_names_its_path_in_the_whole_cloud():
    """The solve builds a cloud's responses block by block, and a non-finite
    terminal value names its row in the whole cloud: here the first state
    X_N above every one of the first block's, a row of the second block."""
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 2)
    basis = _linear_basis(delta=1.0, radius=3.0)
    m, seed = 20_000, 6  # two blocks of 10 000 rows
    cloud = sample_cloud(model, grid, 1, m, seed=seed)
    level = max(cloud.x_at(k)[:10_000, 0].max() for k in (1, 2))
    first = int(np.argmax(cloud.x_at(2)[:, 0] > level))
    assert first >= 10_000
    terminal = TerminalSpec(fn=lambda x: np.where(x[:, 0] > level, np.nan, 0.0), C_xi=1.0)
    with pytest.raises(
        NumericalError,
        match=f"^non-finite terminal value in the response at time index 1, path {first}$",
    ):
        mwls_solve(model, grid, zero_driver(), terminal, basis, basis, cloud_sizes=m, seed=seed)


def test_an_overflowing_fit_names_its_time_index():
    """Every response is finite, but the per-cell sums of a fit overflow:
    the solve raises NumericalError naming the index and the first cell
    whose coefficients are not finite, and returns no non-finite fit."""
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    # terminal 1.35e308 / 1.5e308 and a driver term 9e307 at k = 0 only:
    # the index-2 z-response phi(X_3) - phi(X_2), times the weights, is
    # finite row by row, and its sums over a cell's rows overflow
    driver = DriverSpec(fn=lambda k, x, y, z: 9e307 if k == 0 else 0.0, L_f=0.0, C_f=9e307)
    steps = TerminalSpec(fn=lambda x: np.where(x[:, 0] > 0.5, 1.5e308, 1.35e308), C_xi=1.5e308)
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError,
        match=r"^regression failed at time index 2: non-finite coefficients in cell 2$",
    ):
        mwls_solve(model, grid, driver, steps, basis, basis, cloud_sizes=2000, seed=3)
    # terminal +-1e307 and the zero driver: the responses are at most 2e307
    # times a weight, and the right-hand sums of the normal equations overflow
    signs = TerminalSpec(fn=lambda x: np.where(x[:, 0] > 0.0, 1e307, -1e307), C_xi=1e307)
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError,
        match=r"^regression failed at time index 2: non-finite coefficients in cell 1$",
    ):
        mwls_solve(model, grid, zero_driver(), signs, basis, basis, cloud_sizes=2000, seed=3)


def test_solve_zero_problem_gives_zero_estimators():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    terminal = TerminalSpec(fn=lambda x: np.zeros(x.shape[0]), C_xi=0.0)
    sol = mwls_solve(
        model, grid, zero_driver(), terminal,
        _linear_basis(), _linear_basis(), cloud_sizes=200, seed=21,
    )
    probe = np.linspace(-3.0, 3.0, 31).reshape(-1, 1)
    for i in range(grid.N):
        assert np.all(sol.y_values(i, probe) == 0.0)
        assert np.all(sol.z_values(i, probe) == 0.0)


def test_solve_identity_terminal_smoke():
    # zero driver, Phi(x) = x: exact values y_i(x) = x, z_i(x) = 1
    model = brownian_model(x0=0.0, x0_width=5.0)
    grid = make_theta_grid(1.0, 5)
    sol = mwls_solve(
        model, grid, zero_driver(), _identity_terminal(),
        _linear_basis(), _linear_basis(), cloud_sizes=5000, seed=22,
    )
    probe = np.linspace(-1.5, 1.5, 13).reshape(-1, 1)
    for i in range(grid.N - 1):
        assert np.max(np.abs(sol.y_values(i, probe) - probe[:, 0])) <= 0.25
        assert np.max(np.abs(sol.z_values(i, probe)[:, 0] - 1.0)) <= 0.35
    # truncation levels for this problem: C_y = 8, C_z = 1 at every index
    np.testing.assert_allclose(sol.bounds.C_y, 8.0)
    np.testing.assert_allclose(sol.bounds.C_z, 1.0)


def test_z_driver_shifts_y_by_the_exact_integral():
    """f = beta z with Phi(x) = x: the discrete solution is z_i = 1 and
    y_i(x) = x + beta (T - t_i), so the driver's z-argument, read at k = i
    and at every k > i, shifts y_i by beta (T - t_i).  Solving with f = 0 z
    on the same clouds cancels the Monte Carlo error of the terminal term;
    what is left is that of the z fits in the driver sum.  At interior cell
    midpoints the worst deviation over seeds 1-30 was 0.052 (at this seed),
    against an effect of 0.125-0.5; dropping the k = i term shifts it by
    beta Delta_i = 0.125."""
    beta = 0.5
    model = brownian_model(x0=0.0, x0_width=4.0)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=0.5, radius=3.0)
    sols = [
        mwls_solve(
            model, grid, DriverSpec(fn=lambda k, x, y, z, b=b: b * z[:, 0], L_f=beta, C_f=0.0),
            _identity_terminal(), basis, basis, cloud_sizes=20_000, seed=16,
        )
        for b in (beta, 0.0)
    ]
    midpoints = np.arange(-1.75, 2.0, 0.5).reshape(-1, 1)
    for i in range(grid.N):
        shift = sols[0].y_values(i, midpoints) - sols[1].y_values(i, midpoints)
        np.testing.assert_allclose(shift, beta * (grid.T - grid.points[i]), rtol=0, atol=0.08)


def test_solution_bounds_know_the_basis_dimensions_and_cloud_sizes():
    model = brownian_model(x0=0.0, x0_width=3.0)
    grid = make_theta_grid(1.0, 3)
    y_basis = LocalPolynomialBasis(degree=0, delta=1.0, radius=2.0, d=1)
    sizes = [200, 300, 400]
    sol = mwls_solve(
        model, grid, zero_driver(), _identity_terminal(),
        y_basis, _linear_basis(), cloud_sizes=sizes, seed=3,
    )
    pc = problem_constants(model, grid, zero_driver(), _identity_terminal())
    expected = bounds_table(pc, grid, k_y=[y_basis.K] * 3, k_z=[_linear_basis().K] * 3, m=sizes)
    for column in ("C_y", "C_z", "Theta_y", "Theta_z", "E_dep_Y", "E_dep_Z"):
        np.testing.assert_array_equal(getattr(sol.bounds, column), getattr(expected, column))
    assert np.all(sol.bounds.E_dep_Y > 0.0) and np.all(sol.bounds.E_dep_Z > 0.0)


def test_solve_is_deterministic():
    model = brownian_model(x0=0.0, x0_width=3.0)
    grid = make_theta_grid(1.0, 3)
    driver = DriverSpec(fn=lambda k, x, y, z: 0.2 * y + 0.1 * z[:, 0], L_f=0.3, C_f=0.0)
    runs = [
        mwls_solve(
            model, grid, driver, _tanh_terminal(),
            _linear_basis(delta=1.0, radius=3.0), _linear_basis(delta=1.0, radius=3.0),
            cloud_sizes=300, seed=23,
        )
        for _ in range(2)
    ]
    for i in range(grid.N):
        np.testing.assert_array_equal(
            runs[0].y_fits[i].coefficients, runs[1].y_fits[i].coefficients
        )
        np.testing.assert_array_equal(
            runs[0].z_fits[i].coefficients, runs[1].z_fits[i].coefficients
        )
        np.testing.assert_array_equal(runs[0].marginals[i], runs[1].marginals[i])


def test_solve_order_audit_and_response_envelope():
    """Rebuild every response from the final estimators and refit.

    Because the solve is backward, all estimators any index read were final
    by the time they were read; regenerating the index's cloud and refitting
    must therefore reproduce the stored coefficients bitwise.  This pins the
    exact dataflow: z uses terms k > i only, y additionally reads z at its
    own index.  The y responses must also respect their deterministic
    envelope Theta_y.  The d=2 case gives the y and z bases different cell
    edges, so the solver cannot share one design between them.
    """
    grid = make_theta_grid(1.0, 4)
    driver = DriverSpec(fn=lambda k, x, y, z: 0.2 * y + 0.1 * z[:, 0], L_f=0.3, C_f=0.0)
    terminal = _tanh_terminal()
    basis = _linear_basis(delta=1.0, radius=3.0)
    cases = [
        (brownian_model(x0=0.0, x0_width=3.0), basis, basis),
        (
            brownian_model(d=2, x0=0.0, x0_width=3.0),
            LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=2),
            LocalPolynomialBasis(degree=1, delta=1.5, radius=3.0, d=2, out_dim=2),
        ),
    ]
    m, seed = 500, 24

    from mwls.constants import obs_bounds
    from mwls.regression import ols_fit, truncate_estimator

    for model, y_basis, z_basis in cases:
        sol = mwls_solve(
            model, grid, driver, terminal, y_basis, z_basis, cloud_sizes=m, seed=seed
        )
        theta_y, _ = obs_bounds(problem_constants(model, grid, driver, terminal), grid)
        for i in range(grid.N):
            cloud = sample_cloud(model, grid, i, m, seed)
            np.testing.assert_array_equal(cloud.x_at(i), sol.marginals[i])
            s_z, s_y, y_next = _cloud_responses(
                cloud, grid, driver, terminal, sol.y_fits, sol.z_fits
            )
            refit_z = truncate_estimator(
                ols_fit(s_z, z_basis, cloud.x_at(i)), float(sol.bounds.C_z[i])
            )
            np.testing.assert_array_equal(refit_z.coefficients, sol.z_fits[i].coefficients)
            assert refit_z.level == sol.z_fits[i].level

            # the k = i term reads the z fit of the same index
            _with_own_term(s_y, cloud, grid, driver, y_next, sol.z_fits)
            refit_y = truncate_estimator(
                ols_fit(s_y, y_basis, cloud.x_at(i)), float(sol.bounds.C_y[i])
            )
            np.testing.assert_array_equal(refit_y.coefficients, sol.y_fits[i].coefficients)
            assert np.max(np.abs(s_y)) <= theta_y[i] + 1e-9


def test_solve_validation():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=2.0)  # K = 8
    with pytest.raises(ValueError, match="time index 1 is below the basis dimension"):
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(),
            basis, basis, cloud_sizes=[50, 3, 50, 50], seed=1,
        )
    with pytest.raises(ValueError, match="expected q=1"):
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(),
            basis, _linear_basis(out_dim=2), cloud_sizes=50, seed=1,
        )
    with pytest.raises(ValueError, match="expected 1"):
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(),
            _linear_basis(out_dim=2), basis, cloud_sizes=50, seed=1,
        )
    with pytest.raises(ValueError, match="4 entries|expected 4"):
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(),
            [basis] * 3, basis, cloud_sizes=50, seed=1,
        )
    wrong_d = LocalPolynomialBasis(degree=1, delta=1.0, radius=2.0, d=2)
    with pytest.raises(ValueError, match="does not match d=1"):
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(),
            wrong_d, basis, cloud_sizes=50, seed=1,
        )


def test_single_entry_lists_broadcast_like_scalars():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    args = (model, grid, zero_driver(), _tanh_terminal())
    scalar = mwls_solve(*args, basis, basis, cloud_sizes=60, seed=2)
    listed = mwls_solve(*args, [basis], [basis], cloud_sizes=[60], seed=2)
    assert listed.cloud_sizes == scalar.cloud_sizes == (60, 60, 60)
    for i in range(grid.N):
        np.testing.assert_array_equal(
            listed.y_fits[i].coefficients, scalar.y_fits[i].coefficients
        )


def test_cloud_sizes_must_be_integers():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    args = (model, grid, zero_driver(), _tanh_terminal(), basis, basis)
    for sizes, at in ((300.7, 0), ([300.5], 0), ([300, 300, 300.25], 2)):
        with pytest.raises(ValueError, match=f"cloud size 300.[0-9]+ at time index {at} is not"):
            mwls_solve(*args, cloud_sizes=sizes, seed=3)
    whole = mwls_solve(*args, cloud_sizes=300, seed=3)
    for sizes in (300.0, np.int64(300), [np.int32(300), 300.0, 300]):
        sol = mwls_solve(*args, cloud_sizes=sizes, seed=3)
        assert sol.cloud_sizes == (300, 300, 300)
        assert all(type(m) is int for m in sol.cloud_sizes)
        for fit, expected in zip(sol.y_fits, whole.y_fits, strict=True):
            assert fit.coefficients.tobytes() == expected.coefficients.tobytes()


def test_cloud_sizes_must_be_numbers_not_strings_or_bools():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    args = (model, grid, zero_driver(), _tanh_terminal(), basis, basis)
    cases = (
        ("300", "cloud size '300' at time index 0 is not an integer"),
        (True, "cloud size True at time index 0 is not an integer"),
        ([300, 300, "300"], "cloud size '300' at time index 2 is not an integer"),
        ([300, np.True_, 300], "cloud size np.True_ at time index 1 is not an integer"),
    )
    for sizes, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            mwls_solve(*args, cloud_sizes=sizes, seed=3)


def test_seed_must_be_a_nonnegative_integer():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    args = (model, grid, zero_driver(), _tanh_terminal(), basis, basis)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        mwls_solve(*args, cloud_sizes=100, seed=-1)
    for seed in (1.5, True, False, "3", None):
        with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an integer$"):
            mwls_solve(*args, cloud_sizes=100, seed=seed)
    assert threading.active_count() == before
    plain = mwls_solve(*args, cloud_sizes=100, seed=3)
    for seed in (np.uint64(3), 3.0):  # as for cloud sizes, an integral float will do
        sol = mwls_solve(*args, cloud_sizes=100, seed=seed)
        assert sol.seed == 3 and type(sol.seed) is int
        for fit, expected in zip(sol.z_fits, plain.z_fits, strict=True):
            assert fit.coefficients.tobytes() == expected.coefficients.tobytes()


# ---------------------------------------------------------------------------
# clouds streamed in blocks from the producer thread


def test_solve_does_not_depend_on_the_block_size(monkeypatch):
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=0.5, radius=4.0)
    # a d = 2 Brownian problem, whose kernels run column by column
    square = LocalPolynomialBasis(degree=1, delta=1.0, radius=3.0, d=2)
    driver_2d = DriverSpec(fn=lambda k, x, y, z: 0.5 * y - 0.2 * z[:, 1], L_f=0.6, C_f=0.0)
    problems = [
        (bench.model, grid, bench.driver, bench.terminal, basis, basis),
        (
            brownian_model(d=2, drift=[0.3, -0.2], x0=0.0, x0_width=3.0), grid, driver_2d,
            TerminalSpec(fn=lambda x: np.tanh(x[:, 0] - x[:, 1]), C_xi=1.0), square,
            dataclasses.replace(square, out_dim=2),
        ),
    ]
    block_rows = mwls.solver._BLOCK_ROWS
    m = 2 * block_rows + 38  # three blocks, the last two rows shorter
    for args in problems:
        monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", block_rows)
        streamed = mwls_solve(*args, cloud_sizes=m, seed=41)
        monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", m)
        whole = mwls_solve(*args, cloud_sizes=m, seed=41)
        for fits, reference in (
            (streamed.y_fits, whole.y_fits), (streamed.z_fits, whole.z_fits)
        ):
            for fit, expected in zip(fits, reference, strict=True):
                assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
                assert fit.level == expected.level
        for x_i, expected in zip(streamed.marginals, whole.marginals, strict=True):
            np.testing.assert_array_equal(x_i, expected, strict=True)


def test_marginals_are_the_drawn_states_read_only(monkeypatch):
    """marginals[i] is the X_i that the producer drew for index i, the
    array itself and bitwise, and it is read-only."""
    draw = mwls.solver._cloud_draws
    drawn = {}

    def kept_draw(model, grid, i, M_i, seed, rows):
        draws = draw(model, grid, i, M_i, seed, rows)
        drawn[i] = next(draws)
        yield drawn[i]
        yield from draws

    monkeypatch.setattr(mwls.solver, "_cloud_draws", kept_draw)
    monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", 64)  # many blocks a cloud
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=3.0)
    model = brownian_model(x0=0.0, x0_width=2.0)
    sol = mwls_solve(
        model, grid, DriverSpec(fn=lambda k, x, y, z: 0.2 * y, L_f=0.2, C_f=0.0),
        _tanh_terminal(), basis, basis, cloud_sizes=300, seed=46,
    )
    assert sorted(drawn) == list(range(grid.N))
    for i, x_i in enumerate(sol.marginals):
        assert x_i is drawn[i]
        np.testing.assert_array_equal(x_i, next(draw(model, grid, i, 300, 46, 300)), strict=True)
        assert not x_i.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x_i[0, 0] = 0.0


def test_a_failing_driver_stops_the_producer(monkeypatch):
    monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", 64)  # many blocks a cloud
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=3.0)
    failure = RuntimeError("driver failed at k=1")

    def fn(k, x, y, z):
        if k == 1:
            raise failure
        return 0.2 * y

    driver = DriverSpec(fn=fn, L_f=0.2, C_f=0.0)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        mwls_solve(
            brownian_model(x0=0.0, x0_width=2.0), grid, driver, _tanh_terminal(),
            basis, basis, cloud_sizes=1000, seed=42,
        )
    assert err.value is failure
    assert threading.active_count() == before


def test_a_failing_draw_reaches_the_caller(monkeypatch):
    """A block's error at index 0, raised after the later indices are
    fitted, is the one-block draw's error."""
    monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", 64)

    def sigma(t, x):  # singular at t = 0 only, so only the weights at i = 0 fail
        return np.full((x.shape[0], 1, 1), 0.0 if t == 0.0 else 1.0)

    model = euler_sde_model(b=None, sigma=sigma, x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=3.0)
    with pytest.raises(NumericalError) as expected:
        sample_cloud(model, grid, 0, 1000, seed=43)
    before = threading.active_count()
    with pytest.raises(NumericalError) as err:
        mwls_solve(
            model, grid, zero_driver(), _tanh_terminal(), basis, basis,
            cloud_sizes=1000, seed=43,
        )
    assert str(err.value) == str(expected.value)
    assert "time index 0, path 0" in str(err.value)
    assert threading.active_count() == before


def test_a_tuning_plan_solves_as_printed():
    """Per-index cloud sizes as the plan's 1-D array solve bitwise as a list."""
    plan = tune_parameters(N=3, kappa=0.5, l=1, d=1, lam=1.0, regime="smooth")
    y_bases = [LocalPolynomialBasis(plan.l, float(dy), plan.R, plan.d) for dy in plan.delta_y]
    z_bases = [LocalPolynomialBasis(plan.l, float(dz), plan.R, plan.d) for dz in plan.delta_z]
    driver = DriverSpec(fn=lambda k, x, y, z: 0.2 * y + 0.1 * z[:, 0], L_f=0.3, C_f=0.0)
    args = (brownian_model(x0=0.0, x0_width=2.0), plan.grid, driver, _tanh_terminal())
    listed = mwls_solve(*args, y_bases, z_bases, cloud_sizes=list(plan.m), seed=4)
    arrayed = mwls_solve(*args, y_bases, z_bases, cloud_sizes=plan.m, seed=4)
    assert arrayed.cloud_sizes == listed.cloud_sizes == (10, 10, 10)
    assert all(type(m) is int for m in arrayed.cloud_sizes)
    for fits, reference in ((arrayed.y_fits, listed.y_fits), (arrayed.z_fits, listed.z_fits)):
        for fit, expected in zip(fits, reference, strict=True):
            assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
            assert fit.level == expected.level
    with pytest.raises(ValueError, match="cloud size list has 2 entries, expected 3 or 1"):
        mwls_solve(*args, y_bases, z_bases, cloud_sizes=plan.m[:2], seed=4)


def test_evaluate_solution_contracts():
    model = brownian_model(x0=0.0, x0_width=4.0)
    grid = make_theta_grid(1.0, 3)
    terminal = _tanh_terminal()
    basis = _linear_basis(delta=1.0, radius=2.0)
    sol = mwls_solve(
        model, grid, zero_driver(), terminal, basis, basis, cloud_sizes=400, seed=31
    )
    # terminal index returns the exact map and has no z component
    assert sol.y_values(grid.N, [0.3])[0] == np.tanh(0.3)
    with pytest.raises(ValueError, match="out of range"):
        sol.z_values(grid.N, np.zeros((1, 1)))
    # truncation envelopes hold everywhere, including outside the support
    rng = np.random.default_rng(32)
    xs = rng.uniform(-5.0, 5.0, size=20)
    for i in range(grid.N):
        assert np.all(np.abs(sol.y_values(i, xs)) <= sol.bounds.C_y[i] + 1e-12)
        assert np.all(np.abs(sol.z_values(i, xs)) <= sol.bounds.C_z[i] + 1e-12)
    # outside the basis support the clamped value is exactly zero
    assert sol.y_values(1, [4.9])[0] == 0.0
    assert np.all(sol.z_values(1, [4.9]) == 0.0)
    with pytest.raises(ValueError, match="out of range"):
        sol.y_values(grid.N + 1, [0.0])
    with pytest.raises(ValueError, match="out of range"):
        sol.y_values(-1, [0.0])


def test_solution_time_index_is_an_integer():
    model = brownian_model(x0=0.0, x0_width=4.0)
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    sol = mwls_solve(
        model, grid, zero_driver(), _tanh_terminal(), basis, basis, cloud_sizes=400, seed=31
    )
    xs = np.linspace(-1.5, 1.5, 7)
    for i in (1.0, np.int64(1), np.float64(1.0)):
        assert sol.y_values(i, xs).tobytes() == sol.y_values(1, xs).tobytes()
        assert sol.z_values(i, xs).tobytes() == sol.z_values(1, xs).tobytes()
    assert sol.y_values(3.0, xs).tobytes() == sol.y_values(3, xs).tobytes()
    for i, shown in ((1.5, "1.5"), (True, "True"), ("1", "'1'")):
        for values in (sol.y_values, sol.z_values):
            with pytest.raises(ValueError, match=re.escape(f"time index {shown} is not an integer")):
                values(i, xs)
    with pytest.raises(ValueError, match=re.escape("time index 3 out of range [0, 2]")):
        sol.z_values(3.0, xs)


def test_the_terminal_index_reads_points_by_the_rule_of_the_fits():
    """y_values at N, the terminal map, takes (M, d) points or M * d
    coordinates in a 1-D array, and rejects any other width as the fits
    at N - 1 do, instead of reading a subset of each point."""
    grid = make_theta_grid(1.0, 3)
    basis = _linear_basis(delta=1.0, radius=2.0)
    sol = mwls_solve(
        brownian_model(x0=0.0, x0_width=4.0), grid, zero_driver(), _tanh_terminal(),
        basis, basis, cloud_sizes=400, seed=31,
    )
    message = re.escape("points have shape (1, 2), not (M, 1) for d = 1")
    for i in (grid.N - 1, grid.N):
        with pytest.raises(ValueError, match=message):
            sol.y_values(i, [[0.1, 0.2]])
    assert sol.y_values(grid.N, [0.1, -0.3]).tolist() == np.tanh([0.1, -0.3]).tolist()

    d2 = LocalPolynomialBasis(degree=1, delta=1.0, radius=2.0, d=2)
    terminal = TerminalSpec(
        fn=lambda x: np.tanh(x[:, 0] - x[:, 1]), C_xi=1.0, C_phi=math.sqrt(2.0),
        theta_phi=1.0,
    )
    sol = mwls_solve(
        brownian_model(d=2, x0=0.0, x0_width=4.0), grid, zero_driver(), terminal,
        d2, dataclasses.replace(d2, out_dim=2), cloud_sizes=400, seed=32,
    )
    flat = [0.1, 0.2, -0.3, 0.5]
    assert sol.y_values(grid.N, flat).tolist() == np.tanh([-0.1, -0.8]).tolist()
    message = re.escape("points have shape (3,), not (M, 2) for d = 2")
    for i in (grid.N - 1, grid.N):
        with pytest.raises(ValueError, match=message):
            sol.y_values(i, flat[:3])


def test_the_producer_draws_apart_and_its_error_reaches_the_caller(monkeypatch):
    """Every index's random input is drawn on one thread other than the
    caller's; an error there is raised by the solve once that thread has
    stopped."""
    draw = mwls.solver._cloud_draws
    failure = RuntimeError("draw failed at index 1")
    drawn_on = set()

    def failing_draw(model, grid, i, M_i, seed, rows):
        for item in draw(model, grid, i, M_i, seed, rows):
            drawn_on.add(threading.get_ident())
            if i == 1:
                raise failure
            yield item

    monkeypatch.setattr(mwls.solver, "_cloud_draws", failing_draw)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=3.0)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        mwls_solve(
            brownian_model(x0=0.0, x0_width=2.0), grid, zero_driver(), _tanh_terminal(),
            basis, basis, cloud_sizes=1000, seed=44,
        )
    assert err.value is failure
    assert threading.active_count() == before
    assert len(drawn_on) == 1 and threading.get_ident() not in drawn_on


def _threads_back_to(count, timeout=5.0) -> bool:
    """Whether threading.active_count() falls to count within timeout s."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def test_the_producer_ends_before_the_last_fits(monkeypatch):
    """Once index 0's input is drawn the producer thread ends, while the
    caller still fits index 0."""
    grid = make_theta_grid(1.0, 3)
    fit = mwls.solver.ols_fit
    ended = []

    def last_fits_wait(*args, **kwargs):
        ended.append(len(ended) < 2 * (grid.N - 1) or _threads_back_to(before))
        return fit(*args, **kwargs)

    monkeypatch.setattr(mwls.solver, "ols_fit", last_fits_wait)
    basis = _linear_basis(delta=1.0, radius=3.0)
    before = threading.active_count()
    mwls_solve(
        brownian_model(x0=0.0, x0_width=2.0), grid, zero_driver(), _tanh_terminal(),
        basis, basis, cloud_sizes=500, seed=45,
    )
    assert ended == [True] * (2 * grid.N)


def test_the_producer_draws_a_few_blocks_ahead_across_indices(monkeypatch):
    """The producer draws no more than `_DRAWS_AHEAD` blocks of normals that
    the caller has not taken, however many blocks a cloud has, and its lead
    runs into the next index: some of index i - 1's input is drawn before
    index i is fitted."""
    monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", 64)  # 16 blocks a cloud
    draw, build, fit = mwls.solver._cloud_draws, mwls.solver._cloud_block, mwls.solver.ols_fit
    lock = threading.Lock()
    state = {"drawn": 0, "taken": 0, "index": None}
    ahead, events = [], []

    def recorded_draws(model, grid, i, M_i, seed, rows):
        draws = draw(model, grid, i, M_i, seed, rows)
        events.append(("draw", i))
        yield next(draws)  # X_i
        for _ in range(0, M_i, rows):
            events.append(("draw", i))
            with lock:
                state["drawn"] += 1
            yield next(draws)

    def recorded_block(model, grid, i, x_rows, normals, row0):
        state["index"] = i
        with lock:
            state["taken"] += 1
        time.sleep(0.002)  # a slow caller, so the producer runs as far ahead as it may
        with lock:
            ahead.append(state["drawn"] - state["taken"])
        return build(model, grid, i, x_rows, normals, row0)

    def recorded_fit(*args, **kwargs):
        events.append(("fit", state["index"]))  # the index whose blocks came last
        return fit(*args, **kwargs)

    monkeypatch.setattr(mwls.solver, "_cloud_draws", recorded_draws)
    monkeypatch.setattr(mwls.solver, "_cloud_block", recorded_block)
    monkeypatch.setattr(mwls.solver, "ols_fit", recorded_fit)
    grid = make_theta_grid(1.0, 4)
    basis = _linear_basis(delta=1.0, radius=3.0)
    mwls_solve(
        brownian_model(x0=0.0, x0_width=2.0), grid, zero_driver(), _tanh_terminal(),
        basis, basis, cloud_sizes=1000, seed=47,
    )
    assert state["drawn"] == state["taken"] == 16 * grid.N
    assert max(ahead) == mwls.solver._DRAWS_AHEAD
    for i in range(1, grid.N):
        assert events.index(("draw", i - 1)) < events.index(("fit", i))


def test_a_solve_holds_a_few_blocks_of_random_input(monkeypatch):
    """The transient memory of a solve, its traced peak less what the
    returned solution holds, stays under 5 MB on 30 steps of 30k rows in
    blocks of 1024, where the normals of index 0 alone take 7.2 MB.  Drawn
    an index ahead of the caller, as they once were, they took it to
    11-13 MB.  A cloud one row past two blocks of 4096 is cut into three
    equal blocks of 2731 rows: its transient is 4.80 MB, against 6.81 MB
    when it was cut into two full blocks and a 1-row one.  With the linear
    driver f = 0.5 y it is 5.09 MB.  When each block built its paths and
    increments in a buffer beside its normals and held a table of its
    driver terms until it summed them, the two read 5.50 and 5.66 MB."""
    grid = make_theta_grid(1.0, 30)
    basis = _linear_basis(delta=1.0, radius=3.0)
    model, terminal = brownian_model(x0=0.0, x0_width=2.0), _tanh_terminal()
    linear = DriverSpec(fn=lambda k, x, y, z: 0.5 * y, L_f=0.5, C_f=0.0)
    cases = (
        (zero_driver(), 1024, 30_000, 5_000_000),
        (zero_driver(), 4096, 8193, 6_150_000),
        (linear, 4096, 8193, 5_350_000),
    )
    for driver, block_rows, m, bound in cases:
        monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", block_rows)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = mwls_solve(model, grid, driver, terminal, basis, basis, cloud_sizes=m, seed=48)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before >= sum(x.nbytes for x in sol.marginals)
        assert peak - held < bound, (driver.is_zero, block_rows, m)
        del sol
