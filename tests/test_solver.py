"""Tests for the backward least-squares solver and its response assembly."""

import numpy as np
import pytest

from mwls.constants import bounds_table
from mwls.errors import NumericalError
from mwls.grid import make_theta_grid
from mwls.model import brownian_model, sample_cloud
from mwls.regression import LocalPolynomialBasis, LocalPolynomialEstimator
from mwls.solver import (
    DriverSpec,
    TerminalSpec,
    _add_own_term,
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


def _z_response(cloud, grid, driver, terminal, y_fits, z_fits):
    s_z, _, _ = _responses(cloud, grid, driver, terminal, y_fits, z_fits)
    return s_z


def _y_response(cloud, grid, driver, terminal, y_fits, z_fits):
    """The y-response as mwls_solve assembles it, own k = i term included;
    z_fits[i] must be fitted (z before y within each index)."""
    _, s_y, y_next = _responses(cloud, grid, driver, terminal, y_fits, z_fits)
    i, x_i = cloud.i, cloud.x_at(cloud.i)
    z_fit = z_fits[i]
    z_design = None if z_fit is None else z_fit.basis.design(x_i)
    _add_own_term(s_y, i, x_i, grid, driver, y_next, z_fits, z_design)
    return s_y


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


def test_z_response_zero_driver_is_weighted_terminal():
    model = brownian_model(x0=0.0, x0_width=2.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 1, 50, seed=7)
    none_fits = [None] * grid.N
    resp = _z_response(cloud, grid, zero_driver(), _identity_terminal(), none_fits, none_fits)
    expected = cloud.x_at(4)[:, 0][:, None] * cloud.h_at(4)
    np.testing.assert_array_equal(resp, expected)


def test_z_response_last_index_has_empty_driver_sum():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 3, 30, seed=8)

    def exploding(*args):
        raise AssertionError("driver must not be evaluated at the last index")

    driver = DriverSpec(fn=exploding, L_f=1.0, C_f=1.0)
    none_fits = [None] * grid.N
    resp = _z_response(cloud, grid, driver, _identity_terminal(), none_fits, none_fits)
    expected = cloud.x_at(4)[:, 0][:, None] * cloud.h_at(4)
    np.testing.assert_array_equal(resp, expected)


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


def test_y_response_requires_z_at_own_index():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 3)
    cloud = sample_cloud(model, grid, 2, 20, seed=12)
    driver = DriverSpec(fn=lambda k, x, y, z: y, L_f=1.0, C_f=0.0)
    none_fits = [None] * grid.N
    with pytest.raises(ValueError, match="missing fitted z estimator at index 2"):
        _y_response(cloud, grid, driver, _tanh_terminal(), none_fits, none_fits)


def test_response_builders_flag_nonfinite_driver_terms():
    model = brownian_model(x0=0.0)
    grid = make_theta_grid(1.0, 4)
    cloud = sample_cloud(model, grid, 0, 20, seed=13)
    basis = LocalPolynomialBasis(degree=0, delta=2.0, radius=3.0, d=1)
    fits = [_zero_estimator(basis)] * grid.N

    def bad_at_two(k, x, y, z):
        return np.full(x.shape[0], np.nan) if k == 2 else np.zeros(x.shape[0])

    driver = DriverSpec(fn=bad_at_two, L_f=1.0, C_f=1.0)
    with pytest.raises(NumericalError, match=r"time index 0, sum term k=2"):
        _z_response(cloud, grid, driver, _tanh_terminal(), fits, fits)


# ---------------------------------------------------------------------------
# the backward solve


def _linear_basis(delta=1.0, radius=4.0, out_dim=1):
    return LocalPolynomialBasis(degree=1, delta=delta, radius=radius, d=1, out_dim=out_dim)


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
            s_z, s_y, y_next = _responses(
                cloud, grid, driver, terminal, sol.y_fits, sol.z_fits
            )
            refit_z = truncate_estimator(
                ols_fit(s_z, z_basis, cloud.x_at(i)), float(sol.bounds.C_z[i])
            )
            np.testing.assert_array_equal(refit_z.coefficients, sol.z_fits[i].coefficients)
            assert refit_z.level == sol.z_fits[i].level

            # the k = i term reads the z fit of the same index
            _add_own_term(
                s_y, i, cloud.x_at(i), grid, driver, y_next, sol.z_fits,
                z_basis.design(cloud.x_at(i)),
            )
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
