"""Tests for the explicit constants pipeline.

The weighted-sum constants are checked against an independently written
trapezoid quadrature and against direct sums over randomized grids; the
recursive-inequality constant is checked by constructing random sequence
pairs that satisfy the hypothesis inequality and verifying the conclusion.
"""

import dataclasses
import math

import numpy as np
import pytest

from mwls.constants import (
    B_const,
    ProblemConstants,
    _driver_output_terms,
    _exponent_iteration,
    _theta_coefficients,
    apriori_constants,
    as_bounds,
    bounds_table,
    c_gamma,
    dep_errors,
    global_error_bound,
    obs_bounds,
    propagation_constants,
)
from mwls.grid import make_theta_grid, random_admissible_grid, weighted_step_sum

# ---------------------------------------------------------------------------
# helpers


def _beta_trapezoid(a: float, b: float, panels: int = 1 << 22) -> float:
    """Euler Beta integral by composite trapezoid after desingularizing.

    Splitting at 1/2 and substituting t = s^(1/p) on each half turns
    int_0^1 t^(a-1) (1-t)^(b-1) dt into two integrals with bounded
    integrands:  Beta(a, b) = F(a, b) + F(b, a),
    F(p, q) = int_0^((1/2)^p) (1/p) (1 - s^(1/p))^(q-1) ds.
    """

    def half(p: float, q: float) -> float:
        upper = 0.5**p
        s = np.linspace(0.0, upper, panels + 1)
        vals = (1.0 - s ** (1.0 / p)) ** (q - 1.0) / p
        h = upper / panels
        return h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])

    return half(a, b) + half(b, a)


def _random_pc(rng: np.random.Generator, **overrides) -> ProblemConstants:
    """Random valid problem constants, optionally with fields pinned."""
    fields = dict(
        L_f=float(rng.uniform(0.0, 1.5)),
        C_f=float(rng.uniform(0.0, 2.0)),
        theta_L=float(rng.uniform(0.2, 1.0)),
        theta_C=float(rng.uniform(0.2, 1.0)),
        C_M=float(rng.uniform(0.2, 2.0)),
        C_xi=float(rng.uniform(0.0, 3.0)),
        T=float(rng.uniform(0.3, 2.0)),
        R_pi=float(rng.uniform(1.0, 3.0)),
        q=int(rng.integers(1, 4)),
    )
    if rng.uniform() < 0.5:
        fields["C_phi"] = float(rng.uniform(0.0, 2.0))
        fields["theta_phi"] = float(rng.uniform(0.2, 1.0))
    fields.update(overrides)
    return ProblemConstants(**fields)


# ---------------------------------------------------------------------------
# B_const


def test_b_const_is_one_for_bounded_integrand():
    assert B_const(2.0, 3.0, 1.0) == 1.0
    assert B_const(1.0, 1.0, 1.0) == 1.0
    assert B_const(1.5, 2.0, 7.0) == 1.0


def test_b_const_single_sum_branch():
    assert B_const(0.5, 1.0) == 2.0
    assert B_const(0.25, 1.0) == 4.0
    # The integral-comparison argument does not involve the step ratio.
    assert B_const(0.5, 1.0, 5.0) == 2.0


def test_b_const_half_half_is_two_pi():
    np.testing.assert_allclose(B_const(0.5, 0.5, 1.0), 2.0 * math.pi, rtol=1e-12)


def test_b_const_general_branch_matches_trapezoid_quadrature():
    pairs = [(0.5, 0.5), (0.25, 0.5), (0.75, 0.5), (0.3, 0.7), (1.2, 0.4), (0.5, 0.25)]
    for a, b in pairs:
        oracle = _beta_trapezoid(a, b)
        for r in (1.0, 2.5):
            np.testing.assert_allclose(
                B_const(a, b, r), (1.0 + r) * oracle, rtol=1e-10
            )


def test_b_const_validation():
    with pytest.raises(ValueError):
        B_const(0.0, 1.0)
    with pytest.raises(ValueError):
        B_const(1.0, -0.5)
    with pytest.raises(ValueError):
        B_const(0.5, 0.5, 0.9)


def test_single_sum_bound_on_random_grids():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        grid = random_admissible_grid(
            T=float(rng.uniform(0.2, 2.5)), N=n, r_max=float(rng.uniform(1.0, 4.0)), rng=rng
        )
        alpha = float(rng.uniform(0.01, 2.0))
        i = int(rng.integers(0, n))
        k = int(rng.integers(i + 1, n + 1))
        value = weighted_step_sum(grid, i, k, alpha=alpha)
        bound = B_const(alpha, 1.0, max(1.0, grid.r_pi)) * (
            grid.points[k] - grid.points[i]
        ) ** alpha
        assert value <= bound * (1.0 + 1e-12)


def test_double_sum_bound_on_random_grids():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        grid = random_admissible_grid(
            T=float(rng.uniform(0.2, 2.5)), N=n, r_max=float(rng.uniform(1.0, 4.0)), rng=rng
        )
        alpha = float(rng.uniform(0.01, 2.0))
        beta = float(rng.uniform(0.01, 2.0))
        i = int(rng.integers(0, n - 1))
        k = int(rng.integers(i + 2, n + 1))
        value = weighted_step_sum(grid, i, k, alpha=alpha, beta=beta, double=True)
        bound = B_const(alpha, beta, max(1.0, grid.r_pi)) * (
            grid.points[k] - grid.points[i]
        ) ** (alpha + beta - 1.0)
        assert value <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# c_gamma


def test_exponent_iteration_shortcut_above_half():
    c_w, c_hat = _exponent_iteration(2.0, 1.5, 0.6, 0.3, 1.0)
    assert c_w == 1.0
    np.testing.assert_allclose(c_hat, 2.0 * 1.5**0.1, rtol=1e-14)


def test_exponent_iteration_zero_feedback():
    assert _exponent_iteration(0.0, 1.0, 0.0, 0.25, 1.0) == (1.0, 0.0)


def test_exponent_iteration_single_step_fixture():
    # alpha = 0, beta = 1/2: one substitution reaches exponent 1/2 exactly.
    # D_1 = C_u, C_1 = C_u^2 B(1/2, 1/2) = 2 pi for C_u = 1, T = 1.
    c_w, c_hat = _exponent_iteration(1.0, 1.0, 0.0, 0.5, 1.0)
    assert c_w == 1.0
    np.testing.assert_allclose(c_hat, 2.0 * math.pi, rtol=1e-12)


def test_c_gamma_zero_feedback_closed_form():
    for alpha, beta, gamma, T, r in [
        (0.0, 0.5, 1.0, 1.0, 1.0),
        (0.3, 0.25, 0.5, 1.7, 2.0),
    ]:
        expected = (
            2.0
            * (1.0 + B_const(alpha + beta, 1.0, r) * T ** (alpha + beta))
            * (1.0 + B_const(alpha + beta, gamma, r) * T ** (alpha + beta))
        )
        np.testing.assert_allclose(
            c_gamma(0.0, T, alpha, beta, gamma, r), expected, rtol=1e-14
        )


def test_c_gamma_validation():
    with pytest.raises(ValueError):
        c_gamma(-1.0, 1.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 0.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 1.0, -0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 1.0, 0.0, 0.6, 1.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 1.0, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        c_gamma(1.0, 1.0, 0.0, 0.5, 1.0, 0.5)


def test_c_gamma_monotone_in_feedback_and_horizon():
    lo = c_gamma(0.5, 1.0, 0.0, 0.5, 1.0)
    hi = c_gamma(1.0, 1.0, 0.0, 0.5, 1.0)
    hi_t = c_gamma(1.0, 1.5, 0.0, 0.5, 1.0)
    assert 0.0 < lo < hi < hi_t
    assert math.isfinite(hi_t)


def _check_recursive_conclusion(rng, C_u, T, alpha, beta, gamma, N, r_max, rho=None):
    """Build (u, w) satisfying the hypothesis inequality with feedback
    fraction rho, then verify the conclusion with the computed constant.
    Returns True when the constant was finite (a non-vacuous check)."""
    grid = random_admissible_grid(T=T, N=N, r_max=r_max, rng=rng)
    t = grid.points
    w = rng.uniform(0.1, 2.0, size=N)
    if rho is None:
        rho = rng.uniform(0.0, 1.0, size=N)
    u = np.zeros(N)
    for j in range(N - 1, -1, -1):
        l = np.arange(j + 1, N)
        if l.size:
            kernel = grid.steps[l] / (
                (T - t[l]) ** (0.5 - beta) * (t[l] - t[j]) ** (0.5 - alpha)
            )
            u[j] = w[j] + rho[j] * C_u * float(np.sum(u[l] * kernel))
        else:
            u[j] = w[j]
    c = c_gamma(C_u, T, alpha, beta, gamma, max(1.0, grid.r_pi))
    for j in range(N - 1):
        l = np.arange(j + 1, N)
        kernel = grid.steps[l] / (
            (T - t[l]) ** (0.5 - beta) * (t[l] - t[j]) ** (1.0 - gamma)
        )
        lhs = float(np.sum(u[l] * kernel))
        rhs = float(np.sum(w[l] * kernel))
        assert lhs <= c * rhs * (1.0 + 1e-12)
    return math.isfinite(c)


def test_recursive_inequality_conclusion_randomized():
    rng = np.random.default_rng(99)
    # Pinned parameter point, maximal feedback (equality case rho = 1).
    for _ in range(10):
        assert _check_recursive_conclusion(
            rng, C_u=1.0, T=1.0, alpha=0.0, beta=0.5, gamma=1.0, N=20, r_max=2.0,
            rho=np.ones(20),
        )
    # Randomized parameters and feedback fractions.  Half the trials pin
    # beta = 1/2 (one substitution step) so larger feedback stays within
    # double range; the rest roam the full domain, where the constant may
    # overflow to inf and the check is vacuous -- count the finite ones.
    finite_cases = 0
    for trial in range(100):
        if trial % 2 == 0:
            beta, C_u = 0.5, float(rng.uniform(0.0, 2.0))
        else:
            beta, C_u = float(rng.uniform(0.15, 0.5)), float(rng.uniform(0.0, 0.5))
        finite_cases += _check_recursive_conclusion(
            rng,
            C_u=C_u,
            T=float(rng.uniform(0.3, 1.5)),
            alpha=float(rng.uniform(0.0, 0.8)),
            beta=beta,
            gamma=float(rng.choice([0.25, 0.5, 1.0, 1.7])),
            N=int(rng.integers(2, 40)),
            r_max=float(rng.uniform(1.0, 3.0)),
        )
    assert finite_cases >= 60


# ---------------------------------------------------------------------------
# apriori_constants


def test_apriori_zero_lipschitz():
    pc = _random_pc(np.random.default_rng(1), L_f=0.0, C_M=1.3)
    a = apriori_constants(pc)
    assert (a.A1y, a.A2y, a.A1z, a.A2z, a.A3z) == (1.0, 1.0, 1.3, 1.3, 0.0)


def test_apriori_zero_weight_moment():
    pc = _random_pc(np.random.default_rng(2), C_M=0.0)
    a = apriori_constants(pc)
    assert (a.A1z, a.A2z, a.A3z) == (0.0, 0.0, 0.0)
    assert a.A1y >= 1.0 and a.A2y >= 1.0


def test_apriori_independent_rederivation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pc = _random_pc(rng)
        a = apriori_constants(pc)
        # Re-derive with separately written arithmetic.
        s = math.sqrt(pc.T)
        cu = pc.L_f * (pc.C_M + s)
        h = pc.theta_L / 2.0
        c1 = c_gamma(cu, pc.T, 0.0, h, 1.0, pc.R_pi)
        c2 = c_gamma(cu, pc.T, 0.0, h, 0.5, pc.R_pi)
        tp = pc.T**h
        exp = [
            1.0 + pc.L_f * c1 * (pc.C_M * B_const(h, 1.0, pc.R_pi) + B_const(0.5 + h, 1.0, pc.R_pi) * s) * tp,
            1.0 + pc.L_f * c1 * (pc.C_M + s) * B_const(h, 1.0, pc.R_pi) * tp,
            pc.C_M * (1.0 + pc.L_f * c2 * pc.C_M * B_const(h, 0.5, pc.R_pi) * tp),
            pc.C_M * (1.0 + pc.L_f * c2 * (pc.C_M + s) * B_const(h, 0.5, pc.R_pi) * tp),
            pc.C_M * pc.L_f * c2 * B_const(0.5 + h, 0.5, pc.R_pi),
        ]
        np.testing.assert_allclose(
            [a.A1y, a.A2y, a.A1z, a.A2z, a.A3z], exp, rtol=1e-13
        )


def test_pipeline_monotone_in_problem_constants():
    rng = np.random.default_rng(4)
    grid = make_theta_grid(T=1.0, N=6, theta=1.0)
    # theta_L = 1 keeps the exponent iteration to a single step so the
    # probed values stay finite and the comparisons meaningful.
    base = _random_pc(
        rng, T=1.0, L_f=0.7, C_f=0.9, C_M=1.1, C_xi=1.3, theta_L=1.0, R_pi=1.5
    )
    k = np.full(6, 4.0)
    m = np.full(6, 200.0)
    for field in ("L_f", "C_f", "C_M", "C_xi"):
        bumped = dataclasses.replace(base, **{field: 1.1 * getattr(base, field)})
        a0, a1 = apriori_constants(base), apriori_constants(bumped)
        for name in ("A1y", "A2y", "A1z", "A2z", "A3z"):
            assert getattr(a1, name) >= getattr(a0, name) - 1e-14
        for fn in (as_bounds, obs_bounds):
            lo_y, lo_z = fn(base, grid)
            hi_y, hi_z = fn(bumped, grid)
            assert np.all(hi_y >= lo_y * (1.0 - 1e-13))
            assert np.all(hi_z >= lo_z * (1.0 - 1e-13))
        d0 = dep_errors(as_bounds(base, grid)[0], k, m)
        d1 = dep_errors(as_bounds(bumped, grid)[0], k, m)
        assert np.all(d1 >= d0 * (1.0 - 1e-13))


# ---------------------------------------------------------------------------
# as_bounds


def test_as_bounds_zero_data():
    pc = _random_pc(np.random.default_rng(5), C_xi=0.0, C_f=0.0)
    pc = dataclasses.replace(pc, C_phi=None, theta_phi=None)
    grid = make_theta_grid(T=pc.T, N=5, theta=1.0)
    c_y, c_z = as_bounds(pc, grid)
    np.testing.assert_array_equal(c_y, np.zeros(5))
    np.testing.assert_array_equal(c_z, np.zeros(5))


def test_as_bounds_driver_free_unit_fixture():
    # No driver, unit weight moment, exact smoothness declaration with
    # C_phi = 1, theta_phi = 1: the z-bound collapses to exactly 1.
    pc = ProblemConstants(
        L_f=0.0, C_f=0.0, theta_L=1.0, theta_C=1.0, C_M=1.0, C_xi=8.0,
        T=1.0, C_phi=1.0, theta_phi=1.0,
    )
    grid = make_theta_grid(T=1.0, N=10, theta=1.0)
    c_y, c_z = as_bounds(pc, grid)
    np.testing.assert_allclose(c_y, np.full(10, 8.0), rtol=1e-14)
    np.testing.assert_allclose(c_z, np.ones(10), rtol=1e-14)


def test_as_bounds_second_evaluator():
    rng = np.random.default_rng(6)
    for _ in range(10):
        pc = _random_pc(rng)
        grid = make_theta_grid(T=pc.T, N=int(rng.integers(2, 12)), theta=0.7)
        c_y, c_z = as_bounds(pc, grid)
        a = apriori_constants(pc)
        for i in range(grid.N):
            ttg = pc.T - grid.points[i]
            if pc.C_phi is not None:
                osc = pc.C_phi * ttg ** (pc.theta_phi / 2.0)
            else:
                osc = 2.0 * pc.C_xi
            exp_y = a.A1y * pc.C_xi + a.A2y * pc.C_f * B_const(
                pc.theta_C, 1.0, pc.R_pi
            ) * ttg**pc.theta_C
            exp_z = (
                a.A1z * osc / math.sqrt(ttg)
                + a.A2z * pc.C_f * B_const(pc.theta_C, 0.5, pc.R_pi) * ttg ** (pc.theta_C - 0.5)
                + a.A3z * pc.C_xi * ttg ** (pc.theta_L / 2.0)
            )
            np.testing.assert_allclose(c_y[i], exp_y, rtol=1e-13)
            np.testing.assert_allclose(c_z[i], exp_z, rtol=1e-13)


def test_as_bounds_improved_z_singularity_exponent():
    # With declared smoothness the z-bound grows no faster than
    # (T-t_i)^(-1/2 + min(theta_C, theta_phi/2)) toward the horizon.
    pc = _random_pc(
        np.random.default_rng(7), L_f=0.8, C_f=1.0, C_phi=1.5, theta_phi=0.6
    )
    grid = make_theta_grid(T=pc.T, N=200, theta=1.0)
    _, c_z = as_bounds(pc, grid)
    a = apriori_constants(pc)
    p = -0.5 + min(pc.theta_C, pc.theta_phi / 2.0)
    coeff = (
        a.A1z * pc.C_phi * pc.T ** (pc.theta_phi / 2.0 - 0.5 - p)
        + a.A2z * pc.C_f * B_const(pc.theta_C, 0.5, pc.R_pi) * pc.T ** (pc.theta_C - 0.5 - p)
        + a.A3z * pc.C_xi * pc.T ** (pc.theta_L / 2.0 - p)
    )
    ttg = pc.T - grid.points[:-1]
    assert np.all(c_z <= coeff * ttg**p * (1.0 + 1e-12))


def test_as_bounds_grid_horizon_mismatch():
    pc = _random_pc(np.random.default_rng(8), T=1.0)
    grid = make_theta_grid(T=2.0, N=4, theta=1.0)
    with pytest.raises(ValueError):
        as_bounds(pc, grid)


def test_bounds_scale_linearly_in_data_constants():
    rng = np.random.default_rng(9)
    pc = _random_pc(rng, C_phi=0.8, theta_phi=0.9)
    doubled = dataclasses.replace(pc, C_xi=2.0 * pc.C_xi, C_f=2.0 * pc.C_f, C_phi=2.0 * pc.C_phi)
    grid = make_theta_grid(T=pc.T, N=7, theta=0.8)
    for fn in (as_bounds, obs_bounds):
        y1, z1 = fn(pc, grid)
        y2, z2 = fn(doubled, grid)
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-12)
        np.testing.assert_allclose(z2, 2.0 * z1, rtol=1e-12)


# ---------------------------------------------------------------------------
# obs_bounds


def test_obs_bounds_zero_data():
    pc = _random_pc(np.random.default_rng(10), C_xi=0.0, C_f=0.0)
    pc = dataclasses.replace(pc, C_phi=None, theta_phi=None)
    grid = make_theta_grid(T=pc.T, N=5, theta=1.0)
    theta_y, theta_z = obs_bounds(pc, grid)
    np.testing.assert_array_equal(theta_y, np.zeros(5))
    np.testing.assert_array_equal(theta_z, np.zeros(5))


def test_obs_bounds_driver_free_exact():
    pc = _random_pc(np.random.default_rng(11), L_f=0.0, C_f=0.0, C_M=1.4, C_xi=2.5)
    grid = make_theta_grid(T=pc.T, N=8, theta=1.0)
    theta_y, theta_z = obs_bounds(pc, grid)
    np.testing.assert_allclose(theta_y, np.full(8, 2.5), rtol=1e-14)
    np.testing.assert_allclose(
        theta_z, 1.4 * 2.5 / np.sqrt(pc.T - grid.points[:-1]), rtol=1e-14
    )


def test_obs_bounds_shape_without_driver_bound():
    # C_f = 0 with a Lipschitz driver: the y-bound is flat in i and the
    # z-bound is exactly proportional to (T - t_i)^(-1/2).
    pc = _random_pc(np.random.default_rng(12), L_f=1.2, C_f=0.0)
    grid = make_theta_grid(T=pc.T, N=9, theta=0.6)
    theta_y, theta_z = obs_bounds(pc, grid)
    assert np.all(theta_y == theta_y[0])
    scaled = theta_z * np.sqrt(pc.T - grid.points[:-1])
    np.testing.assert_allclose(scaled, np.full(9, scaled[0]), rtol=1e-12)


def test_obs_bounds_dominate_direct_response_sums():
    # Chain: the canonical two-bucket form dominates the per-index
    # weighted-sum assembly, which dominates the direct sums it bounds.
    rng = np.random.default_rng(13)
    for _ in range(15):
        pc = _random_pc(rng)
        grid = make_theta_grid(T=pc.T, N=int(rng.integers(2, 15)), theta=0.9)
        theta_y, theta_z = obs_bounds(pc, grid)
        terms = _driver_output_terms(pc)
        t = grid.points
        n = grid.N
        fb = np.zeros(n)  # pointwise driver output bound at each index
        for coef, power, _ in terms:
            fb += coef * (pc.T - t[:-1]) ** power
        for i in range(n):
            direct_y = pc.C_xi + float(np.sum(fb[i:] * grid.steps[i:]))
            j = np.arange(i + 1, n)
            tail = float(np.sum(fb[j] * grid.steps[j] / np.sqrt(t[j] - t[i]))) if j.size else 0.0
            direct_z = pc.C_M * (pc.C_xi / math.sqrt(pc.T - t[i]) + tail)
            mid_y = pc.C_xi
            mid_z = pc.C_M * pc.C_xi / math.sqrt(pc.T - t[i])
            for coef, power, _ in terms:
                mid_y += coef * B_const(power + 1.0, 1.0, pc.R_pi) * (pc.T - t[i]) ** (power + 1.0)
                mid_z += (
                    coef
                    * pc.C_M
                    * B_const(power + 1.0, 0.5, pc.R_pi)
                    * (pc.T - t[i]) ** (power + 0.5)
                )
            assert direct_y <= mid_y * (1.0 + 1e-12)
            assert mid_y <= theta_y[i] * (1.0 + 1e-12)
            assert direct_z <= mid_z * (1.0 + 1e-12)
            assert mid_z <= theta_z[i] * (1.0 + 1e-12)


def test_theta_coefficients_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(10):
        pc = _random_pc(rng)
        c1, c2, c3, c4 = _theta_coefficients(pc)
        assert c1 >= pc.C_xi
        assert c2 >= 0.0 and c4 >= 0.0
        assert c3 >= pc.C_M * pc.C_xi


# ---------------------------------------------------------------------------
# dep_errors


def test_dep_errors_fixture():
    expected = math.sqrt(2028.0 * 2.0 * math.log(900.0) / 300.0)
    np.testing.assert_allclose(dep_errors(1.0, 1, 300), expected, rtol=1e-15)


def test_dep_errors_z_flag_scales_with_weight_dimension():
    y = dep_errors(1.0, 3, 500)
    z = dep_errors(1.0, 3, 500, q=4)
    np.testing.assert_allclose(z, 2.0 * y, rtol=1e-15)


def test_dep_errors_zero_bound_and_decay():
    assert dep_errors(0.0, 5, 100) == 0.0
    assert dep_errors(1.0, 0, 10**8) < dep_errors(1.0, 0, 10**4)
    assert dep_errors(1.0, 0, 10**12) < 1e-3


def test_dep_errors_arrays():
    K = np.array([1.0, 2.0, 3.0])
    M = np.array([100.0, 200.0, 300.0])
    out = dep_errors(2.0, K, M)
    assert out.shape == (3,)
    for i in range(3):
        np.testing.assert_allclose(out[i], dep_errors(2.0, K[i], M[i]), rtol=1e-15)


def test_dep_errors_validation():
    with pytest.raises(ValueError):
        dep_errors(-1.0, 1, 100)
    with pytest.raises(ValueError):
        dep_errors(1.0, -1, 100)
    with pytest.raises(ValueError):
        dep_errors(1.0, 1, 0)
    with pytest.raises(ValueError):
        dep_errors(1.0, 1, 100, q=0)


# ---------------------------------------------------------------------------
# propagation constants and the global bound


def test_propagation_constants_zero_lipschitz():
    pc = _random_pc(np.random.default_rng(15), L_f=0.0, C_M=1.7)
    assert propagation_constants(pc) == (2.0, 1.7)


def test_propagation_constants_rederivation():
    rng = np.random.default_rng(16)
    for _ in range(10):
        pc = _random_pc(rng)
        a_my, a_mz = propagation_constants(pc)
        s = math.sqrt(pc.T)
        cu = pc.L_f * (math.sqrt(2.0) * pc.C_M + 4.0 * s)
        h = pc.theta_L / 2.0
        exp_y = 2.0 + 4.0 * pc.L_f * c_gamma(cu, pc.T, 0.0, h, 1.0, pc.R_pi) * (
            1.0 + B_const(h, 1.0, pc.R_pi) * pc.T**h * (pc.C_M + 2.0 * s)
        )
        exp_z = pc.C_M + math.sqrt(2.0) * pc.C_M * pc.L_f * c_gamma(
            cu, pc.T, 0.0, h, 0.5, pc.R_pi
        ) * (1.0 + B_const(h, 0.5, pc.R_pi) * pc.T**h * (pc.C_M + 2.0 * s))
        np.testing.assert_allclose([a_my, a_mz], [exp_y, exp_z], rtol=1e-13)


def test_global_error_bound_no_propagation_without_driver():
    # Zero driver, zero basis dimensions: the only error is the declared
    # approximation error, and it does not propagate to other indices.
    pc = ProblemConstants(
        L_f=0.0, C_f=0.0, theta_L=1.0, theta_C=1.0, C_M=1.0, C_xi=1.0, T=1.0
    )
    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    e_app_y = np.array([0.3, 0.0, 0.0, 0.0, 0.0])
    zeros = np.zeros(5)
    ones = np.ones(5)
    bound_y, bound_z = global_error_bound(pc, grid, e_app_y, zeros, zeros, zeros, 100 * ones)
    np.testing.assert_array_equal(bound_y, e_app_y)
    np.testing.assert_array_equal(bound_z, zeros)


def test_global_error_bound_constant_local_term_uniform_grid():
    # theta_L = 1 removes the singular weight; with a constant local term E
    # the y-sum telescopes to A_My * E * (T - t_k).
    pc = ProblemConstants(
        L_f=0.0, C_f=0.0, theta_L=1.0, theta_C=1.0, C_M=1.3, C_xi=1.0, T=1.0
    )
    grid = make_theta_grid(T=1.0, N=8, theta=1.0)
    E = 0.37
    zeros = np.zeros(8)
    bound_y, bound_z = global_error_bound(
        pc, grid, zeros, np.full(8, E), zeros, zeros, np.full(8, 50.0)
    )
    t = grid.points
    np.testing.assert_allclose(bound_y, 2.0 * E * (1.0 - t[:-1]), rtol=1e-13)
    for k in range(8):
        j = np.arange(k + 1, 8)
        tail = float(np.sum(grid.steps[j] / np.sqrt(t[j] - t[k]))) if j.size else 0.0
        np.testing.assert_allclose(bound_z[k], E + 1.3 * E * tail, rtol=1e-13)


def test_global_error_bound_decreasing_in_samples():
    pc = ProblemConstants(
        L_f=0.5, C_f=0.3, theta_L=1.0, theta_C=1.0, C_M=1.0, C_xi=2.0, T=1.0
    )
    grid = make_theta_grid(T=1.0, N=8, theta=1.0)
    e_y = np.full(8, 0.01)
    e_z = np.full(8, 0.02)
    k_y = np.full(8, 3.0)
    k_z = np.full(8, 2.0)
    y1, z1 = global_error_bound(pc, grid, e_y, e_z, k_y, k_z, np.full(8, 200.0))
    y2, z2 = global_error_bound(pc, grid, e_y, e_z, k_y, k_z, np.full(8, 400.0))
    assert np.all(np.isfinite(y1)) and np.all(np.isfinite(z1))
    assert np.all(y2 < y1)
    assert np.all(z2 < z1)


def test_global_error_bound_validation():
    pc = _random_pc(np.random.default_rng(17), T=1.0)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    good = np.zeros(4)
    with pytest.raises(ValueError, match="e_app_y"):
        global_error_bound(pc, grid, np.zeros(3), good, good, good, np.ones(4))
    with pytest.raises(ValueError):
        global_error_bound(pc, grid, good, good, good, good, np.zeros(4))
    with pytest.raises(ValueError):
        global_error_bound(pc, grid, good - 1.0, good, good, good, np.ones(4))


# ---------------------------------------------------------------------------
# bounds table


def test_bounds_table_matches_components():
    rng = np.random.default_rng(18)
    pc = _random_pc(rng)
    grid = make_theta_grid(T=pc.T, N=6, theta=0.8)
    k = np.full(6, 5.0)
    m = np.full(6, 300.0)
    table = bounds_table(pc, grid, k_y=k, k_z=k, m=m)
    c_y, c_z = as_bounds(pc, grid)
    theta_y, theta_z = obs_bounds(pc, grid)
    a = apriori_constants(pc)
    a_my, a_mz = propagation_constants(pc)
    np.testing.assert_array_equal(table.C_y, c_y)
    np.testing.assert_array_equal(table.C_z, c_z)
    np.testing.assert_array_equal(table.Theta_y, theta_y)
    np.testing.assert_array_equal(table.Theta_z, theta_z)
    np.testing.assert_allclose(table.E_dep_Y, dep_errors(c_y, k, m), rtol=1e-15)
    np.testing.assert_allclose(table.E_dep_Z, dep_errors(c_z, k, m, pc.q), rtol=1e-15)
    assert (table.A1y, table.A2y, table.A1z, table.A2z, table.A3z) == (
        a.A1y, a.A2y, a.A1z, a.A2z, a.A3z,
    )
    assert (table.AMy, table.AMz) == (a_my, a_mz)
    bare = bounds_table(pc, grid)
    np.testing.assert_array_equal(bare.E_dep_Y, np.zeros(6))
    np.testing.assert_array_equal(bare.E_dep_Z, np.zeros(6))


# ---------------------------------------------------------------------------
# ProblemConstants validation


def test_problem_constants_validation():
    good = dict(
        L_f=1.0, C_f=1.0, theta_L=0.5, theta_C=0.5, C_M=1.0, C_xi=1.0, T=1.0
    )
    ProblemConstants(**good)
    for bad in (
        dict(L_f=-1.0),
        dict(C_f=-0.1),
        dict(theta_L=0.0),
        dict(theta_L=1.5),
        dict(theta_C=-0.2),
        dict(C_M=-1.0),
        dict(C_xi=-1.0),
        dict(T=0.0),
        dict(R_pi=0.5),
        dict(q=0),
        dict(C_phi=1.0),  # missing theta_phi
        dict(theta_phi=0.5),  # missing C_phi
        dict(C_phi=-1.0, theta_phi=0.5),
        dict(C_phi=1.0, theta_phi=0.0),
    ):
        with pytest.raises(ValueError):
            ProblemConstants(**{**good, **bad})
