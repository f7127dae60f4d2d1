"""Tests for path samplers, Malliavin weights, and simulation clouds."""

import numpy as np
import pytest
from scipy import stats

import mwls.solver
from mwls.errors import NumericalError
from mwls.grid import make_theta_grid
from mwls.harness import benchmark_b3
from mwls.model import (
    _ROW_BLOCK,
    STREAM_CLOUD,
    STREAM_FRESH,
    BrownianModel,
    EulerSdeModel,
    GeometricBrownianModel,
    SimulationCloud,
    brownian_model,
    cloud_rng,
    derive_seed,
    euler_sde_model,
    gbm_model,
    sample_cloud,
    sample_marginal,
)
from mwls.regression import LocalPolynomialBasis

# ---------------------------------------------------------------------------
# random streams


def test_cloud_rng_reproducible_and_disjoint():
    a1 = cloud_rng(7, 3).standard_normal(8)
    a2 = cloud_rng(7, 3).standard_normal(8)
    b = cloud_rng(7, 4).standard_normal(8)
    c = cloud_rng(7, 3, purpose=1).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(11, 0) == derive_seed(11, 0)
    assert derive_seed(11, 0) != derive_seed(11, 1)
    assert derive_seed(11, 0) != derive_seed(12, 0)


# ---------------------------------------------------------------------------
# clouds: determinism, stream separation, shapes


def test_cloud_bitwise_determinism():
    model = brownian_model(d=2)
    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    c1 = sample_cloud(model, grid, i=1, M_i=64, seed=42)
    c2 = sample_cloud(model, grid, i=1, M_i=64, seed=42)
    np.testing.assert_array_equal(c1.X, c2.X)
    np.testing.assert_array_equal(c1.H, c2.H)


def test_cloud_shapes_and_indexing():
    model = brownian_model(d=3)
    grid = make_theta_grid(T=2.0, N=6, theta=1.0)
    cloud = sample_cloud(model, grid, i=2, M_i=10, seed=1)
    assert cloud.M == 10
    assert cloud.X.shape == (10, 5, 3)  # X_2..X_6
    assert cloud.H.shape == (10, 4, 3)  # H^(2)_3..H^(2)_6
    np.testing.assert_array_equal(cloud.x_at(2), cloud.X[:, 0, :])
    np.testing.assert_array_equal(cloud.x_at(6), cloud.X[:, 4, :])
    np.testing.assert_array_equal(cloud.h_at(3), cloud.H[:, 0, :])
    with pytest.raises(ValueError):
        cloud.x_at(1)
    with pytest.raises(ValueError):
        cloud.h_at(2)


def test_cloud_indexing_past_the_horizon_names_the_index():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    cloud = sample_cloud(model, grid, i=2, M_i=5, seed=1)
    assert cloud.N == 4
    np.testing.assert_array_equal(cloud.x_at(4), cloud.X[:, 2, :])
    np.testing.assert_array_equal(cloud.h_at(4), cloud.H[:, 1, :])
    with pytest.raises(ValueError, match=r"cloud at index 2 holds states at 2\.\.4, got 5"):
        cloud.x_at(5)
    with pytest.raises(ValueError, match=r"cloud at index 2 holds weights at 3\.\.4, got 5"):
        cloud.h_at(5)
    with pytest.raises(ValueError, match="got 1"):
        cloud.x_at(1)


def test_clouds_at_distinct_indices_use_disjoint_streams():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    c0 = sample_cloud(model, grid, i=0, M_i=1000, seed=9)
    c1 = sample_cloud(model, grid, i=1, M_i=1000, seed=9)
    # Same terminal index, but generated from different streams.
    assert not np.array_equal(c0.x_at(4), c1.x_at(4))


def test_cloud_independence_correlation():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    m = 40_000
    a = sample_cloud(model, grid, i=1, M_i=m, seed=5)
    b = sample_cloud(model, grid, i=3, M_i=m, seed=5)
    r = np.corrcoef(a.x_at(4)[:, 0], b.x_at(4)[:, 0])[0, 1]
    assert abs(r) <= 4.0 / np.sqrt(m)


def test_cloud_validation():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    with pytest.raises(ValueError):
        sample_cloud(model, grid, i=4, M_i=10, seed=0)
    with pytest.raises(ValueError):
        sample_cloud(model, grid, i=-1, M_i=10, seed=0)
    with pytest.raises(ValueError):
        sample_cloud(model, grid, i=0, M_i=0, seed=0)


# ---------------------------------------------------------------------------
# tail clouds against whole simulated paths


def _full_paths(model, grid, M, rng):
    """X_0..X_N and dW_0..dW_{N-1}, path-major, simulated and stored whole
    from t_0: the reference the tail-only samplers must match bit for bit."""
    n = grid.N
    starts = model._draw_start(M, rng)
    dW = rng.standard_normal((M, n, model.q)) * np.sqrt(grid.steps)[None, :, None]
    X = np.empty((M, n + 1, model.d))
    X[:, 0, :] = starts
    t = grid.points[1:, None]
    if isinstance(model, BrownianModel):
        X[:, 1:, :] = (
            starts[:, None, :] + model.drift[None, None, :] * t + np.cumsum(dW, axis=1)
        )
    elif isinstance(model, GeometricBrownianModel):
        X[:, 1:, :] = starts[:, None, :] * np.exp(
            (model.mu - 0.5 * model.sigma**2)[None, None, :] * t
            + model.sigma[None, None, :] * np.cumsum(dW, axis=1)
        )
    else:
        for k in range(n):
            xk = X[:, k, :]
            step = np.einsum("mdq,mq->md", model.sigma(grid.points[k], xk), dW[:, k, :])
            if model.b is not None:
                step = step + model.b(grid.points[k], xk) * grid.steps[k]
            X[:, k + 1, :] = xk + step
    return X, dW


def _euler_reference_weights(model, grid, i, X, dW):
    """Tangent-process weights H^(i) from whole paths."""
    M, N, t = X.shape[0], grid.N, grid.points
    eye = np.broadcast_to(np.eye(model.d), (M, model.d, model.d))
    psi = eye.copy()
    sig_i = model.sigma(t[i], X[:, i, :])
    increments = np.empty((M, N - i, model.d))
    for k in range(i, N):
        xk = X[:, k, :]
        a_k = np.linalg.inv(model.sigma(t[k], xk)) @ psi @ sig_i
        increments[:, k - i, :] = np.einsum("mad,ma->md", a_k, dW[:, k, :])
        if k + 1 < N:
            update = eye.copy()
            if model.db is not None:
                update = update + model.db(t[k], xk) * grid.steps[k]
            if model.dsigma is not None:
                update = update + np.einsum(
                    "mlab,ml->mab", model.dsigma(t[k], xk), dW[:, k, :]
                )
            psi = update @ psi
    return np.cumsum(increments, axis=1) / (t[i + 1 :] - t[i])[None, :, None]


def _reference_cloud(model, grid, i, M_i, seed):
    """The index-i cloud cut from whole simulated paths: X[:, i:] and the
    weights from dW[:, i:]."""
    X, dW = _full_paths(model, grid, M_i, cloud_rng(seed, i, STREAM_CLOUD))
    if isinstance(model, EulerSdeModel):
        H = _euler_reference_weights(model, grid, i, X, dW)
    else:
        spans = grid.points[i + 1 :] - grid.points[i]
        H = np.cumsum(dW[:, i:], axis=1) / spans[None, :, None]
    return SimulationCloud(i=i, X=X[:, i:], H=H)


def _tanh_sigma(t, x):
    """State-dependent diagonal diffusion 0.3 + 0.1 tanh(x)."""
    m, d = x.shape
    out = np.zeros((m, d, d))
    idx = np.arange(d)
    out[:, idx, idx] = 0.3 + 0.1 * np.tanh(x)
    return out


def _tanh_dsigma(t, x):
    m, d = x.shape
    out = np.zeros((m, d, d, d))
    idx = np.arange(d)
    out[:, idx, idx, idx] = 0.1 / np.cosh(x) ** 2
    return out


_TAIL_MODELS = {
    "brownian-1d": lambda: brownian_model(d=1, drift=0.4, x0=0.5, x0_width=1.0),
    "brownian-2d": lambda: brownian_model(
        d=2, drift=[0.4, -0.3], x0=[0.5, -1.0], x0_width=1.0
    ),
    "gbm": lambda: gbm_model(mu=0.1, sigma=0.3, x0=1.0, x0_width=0.4),
    "euler-1d": lambda: euler_sde_model(
        b=lambda t, x: -0.5 * x, sigma=_tanh_sigma, dsigma=_tanh_dsigma,
        db=lambda t, x: np.full((x.shape[0], 1, 1), -0.5), x0=0.3, x0_width=0.5,
    ),
    "euler-2d": lambda: euler_sde_model(
        b=None, sigma=_tanh_sigma, dsigma=_tanh_dsigma, x0=[0.3, -0.2], d=2,
        x0_width=0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(_TAIL_MODELS))
def test_tail_cloud_is_bitwise_the_full_path_cloud(name):
    model = _TAIL_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)  # non-uniform steps
    m = _ROW_BLOCK + 37  # two row blocks, the second one partial
    for i in (0, 1, grid.N - 1):
        cloud = sample_cloud(model, grid, i=i, M_i=m, seed=81)
        reference = _reference_cloud(model, grid, i, m, seed=81)
        assert cloud.X.shape == reference.X.shape == (m, grid.N - i + 1, model.d)
        assert cloud.H.shape == reference.H.shape == (m, grid.N - i, model.q)
        np.testing.assert_array_equal(cloud.X, reference.X, strict=True)
        np.testing.assert_array_equal(cloud.H, reference.H, strict=True)
        # the tail alone is stored, one contiguous block per time index
        assert cloud.X.base.shape == (grid.N - i + 1, m, model.d)
        for k in range(i, grid.N + 1):
            assert cloud.x_at(k).flags.c_contiguous
        for j in range(i + 1, grid.N + 1):
            assert cloud.h_at(j).flags.c_contiguous


def test_solve_on_tail_clouds_is_bitwise_the_full_path_solve(monkeypatch):
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 6)
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=4.0, d=1)
    args = (bench.model, grid, bench.driver, bench.terminal, basis, basis)
    m = _ROW_BLOCK + 37
    tail = mwls.solver.mwls_solve(*args, cloud_sizes=m, seed=7)
    monkeypatch.setattr(mwls.solver, "sample_cloud", _reference_cloud)
    full = mwls.solver.mwls_solve(*args, cloud_sizes=m, seed=7)
    for fits, reference in ((tail.y_fits, full.y_fits), (tail.z_fits, full.z_fits)):
        for fit, expected in zip(fits, reference, strict=True):
            assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
            assert fit.level == expected.level
    for x_i, expected in zip(tail.marginals, full.marginals, strict=True):
        np.testing.assert_array_equal(x_i, expected, strict=True)


# ---------------------------------------------------------------------------
# Brownian model


def test_brownian_terminal_law():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    cloud = sample_cloud(model, grid, i=0, M_i=10_000, seed=13)
    stat = stats.kstest(cloud.x_at(4)[:, 0], "norm", args=(0.0, 1.0))
    assert stat.pvalue > 0.01


def test_brownian_weight_moments():
    model = brownian_model(d=2)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    m = 100_000
    cloud = sample_cloud(model, grid, i=1, M_i=m, seed=21)
    for j in (2, 4):
        h = cloud.h_at(j)
        span = grid.points[j] - grid.points[1]
        mean = h.mean(axis=0)
        std = h.std(axis=0)
        assert np.all(np.abs(mean) <= 4.0 * std / np.sqrt(m))
        second = np.mean(np.sum(h**2, axis=1))
        target = model.q / span
        assert second <= (1.05**2) * target
        assert second >= (0.95**2) * target


def test_brownian_with_drift_and_start_box():
    model = brownian_model(d=1, drift=2.0, x0=1.0, x0_width=0.5)
    grid = make_theta_grid(T=1.0, N=2, theta=1.0)
    cloud = sample_cloud(model, grid, i=0, M_i=50_000, seed=3)
    x0 = cloud.x_at(0)[:, 0]
    assert np.all(np.abs(x0 - 1.0) <= 0.25)
    stat = stats.kstest(x0, "uniform", args=(0.75, 0.5))
    assert stat.pvalue > 0.01
    # Terminal mean = 1 + drift * T.
    xT = cloud.x_at(2)[:, 0]
    assert abs(xT.mean() - 3.0) <= 4.0 * xT.std() / np.sqrt(50_000)


# ---------------------------------------------------------------------------
# geometric Brownian model


def test_gbm_terminal_mean():
    model = gbm_model(mu=0.3, sigma=0.4, x0=1.0)
    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    cloud = sample_cloud(model, grid, i=0, M_i=100_000, seed=17)
    xT = cloud.x_at(5)[:, 0]
    target = np.exp(0.3)
    assert abs(xT.mean() - target) <= 4.0 * xT.std() / np.sqrt(100_000)


def test_gbm_weights_are_brownian_increment_weights():
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    g = sample_cloud(gbm_model(mu=0.1, sigma=0.5, x0=2.0), grid, i=0, M_i=500, seed=8)
    b = sample_cloud(brownian_model(d=1, x0=2.0), grid, i=0, M_i=500, seed=8)
    np.testing.assert_array_equal(g.H, b.H)


def test_gbm_degenerates_to_constant_for_tiny_vol():
    model = gbm_model(mu=0.0, sigma=1e-12, x0=1.5)
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    cloud = sample_cloud(model, grid, i=0, M_i=100, seed=2)
    np.testing.assert_allclose(cloud.X, 1.5, atol=1e-9)


def test_gbm_validation():
    with pytest.raises(ValueError):
        gbm_model(sigma=0.0)
    with pytest.raises(ValueError):
        gbm_model(sigma=[0.2, -0.1], d=2)


# ---------------------------------------------------------------------------
# Euler SDE model


def _identity_sigma(t, x):
    m, d = x.shape
    return np.broadcast_to(np.eye(d), (m, d, d))


def test_euler_identity_diffusion_matches_brownian():
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    for d in (1, 2):
        e = sample_cloud(
            euler_sde_model(b=None, sigma=_identity_sigma, x0=0.0, d=d),
            grid, i=1, M_i=300, seed=31,
        )
        b = sample_cloud(brownian_model(d=d), grid, i=1, M_i=300, seed=31)
        np.testing.assert_allclose(e.X, b.X, rtol=0.0, atol=0.0)
        np.testing.assert_allclose(e.H, b.H, rtol=1e-12, atol=1e-12)


def test_euler_linear_sde_weights():
    # dX = a X dW: the tangent process is X_k / X_i exactly in the Euler
    # scheme, the integrand collapses to 1, and the weights coincide with
    # the Brownian-increment weights.
    a = 0.1

    def sigma(t, x):
        return (a * x)[:, :, None]

    def dsigma(t, x):
        return np.full((x.shape[0], 1, 1, 1), a)

    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    e = sample_cloud(
        euler_sde_model(b=None, sigma=sigma, x0=1.0, dsigma=dsigma),
        grid, i=1, M_i=2000, seed=77,
    )
    b = sample_cloud(brownian_model(d=1, x0=1.0), grid, i=1, M_i=2000, seed=77)
    np.testing.assert_allclose(e.H, b.H, rtol=1e-10)


def test_euler_linear_sde_weight_moments():
    a = 0.1

    def sigma(t, x):
        return (a * x)[:, :, None]

    def dsigma(t, x):
        return np.full((x.shape[0], 1, 1, 1), a)

    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    m = 100_000
    cloud = sample_cloud(
        euler_sde_model(b=None, sigma=sigma, x0=1.0, dsigma=dsigma),
        grid, i=0, M_i=m, seed=19,
    )
    for j in (1, 4):
        h = cloud.h_at(j)[:, 0]
        span = grid.points[j]
        assert abs(h.mean()) <= 4.0 * h.std() / np.sqrt(m)
        assert np.mean(h**2) <= (1.05**2) / span


def test_euler_singular_sigma_reported_with_location():
    def sigma(t, x):
        return np.zeros((x.shape[0], 1, 1))

    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    with pytest.raises(NumericalError, match="time index 0"):
        sample_cloud(
            euler_sde_model(b=None, sigma=sigma, x0=1.0), grid, i=0, M_i=10, seed=0
        )


def test_euler_drift_only_path():
    def b(t, x):
        return np.ones_like(x)

    def sigma(t, x):
        return 1e-12 * _identity_sigma(t, x)

    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    cloud = sample_cloud(
        euler_sde_model(b=b, sigma=sigma, x0=0.0), grid, i=0, M_i=50, seed=4
    )
    # X_t = t up to the negligible diffusion.
    np.testing.assert_allclose(
        cloud.X[:, :, 0], np.broadcast_to(grid.points, (50, 5)), atol=1e-9
    )


# ---------------------------------------------------------------------------
# Markov property surrogate


def test_markov_property_brownian():
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    m = 5000
    direct = sample_cloud(brownian_model(d=1), grid, i=0, M_i=m, seed=51)
    other = sample_cloud(brownian_model(d=1), grid, i=0, M_i=m, seed=52)
    rng = np.random.default_rng(53)
    span = grid.points[2] - grid.points[1]
    rebuilt = other.x_at(1)[:, 0] + np.sqrt(span) * rng.standard_normal(m)
    stat = stats.ks_2samp(direct.x_at(2)[:, 0], rebuilt)
    assert stat.pvalue > 0.01


def test_markov_property_gbm():
    mu, sig = 0.2, 0.3
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    m = 5000
    model = gbm_model(mu=mu, sigma=sig, x0=1.0)
    direct = sample_cloud(model, grid, i=0, M_i=m, seed=61)
    other = sample_cloud(model, grid, i=0, M_i=m, seed=62)
    rng = np.random.default_rng(63)
    span = grid.points[2] - grid.points[1]
    rebuilt = other.x_at(1)[:, 0] * np.exp(
        (mu - 0.5 * sig**2) * span + sig * np.sqrt(span) * rng.standard_normal(m)
    )
    stat = stats.ks_2samp(direct.x_at(2)[:, 0], rebuilt)
    assert stat.pvalue > 0.01


# ---------------------------------------------------------------------------
# marginals


def test_sample_marginal_matches_cloud_law():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    marg = sample_marginal(model, grid, i=2, M=5000, seed=71)
    cloud = sample_cloud(model, grid, i=2, M_i=5000, seed=72)
    stat = stats.ks_2samp(marg[:, 0], cloud.x_at(2)[:, 0])
    assert stat.pvalue > 0.01


def test_sample_marginal_start_box():
    model = brownian_model(d=1, x0=0.0, x0_width=5.0)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    marg = sample_marginal(model, grid, i=0, M=5000, seed=73)
    assert np.all(np.abs(marg) <= 2.5)
    stat = stats.kstest(marg[:, 0], "uniform", args=(-2.5, 5.0))
    assert stat.pvalue > 0.01


def test_sample_marginal_validation():
    model = brownian_model(d=1)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    with pytest.raises(ValueError):
        sample_marginal(model, grid, i=5, M=10, seed=0)
    with pytest.raises(ValueError):
        sample_marginal(model, grid, i=0, M=0, seed=0)


# Models with an exact one-step draw of X_i: drift and a start box in
# d = 1 and d = 2, and geometric Brownian motion with a start box.
_ONE_STEP_MODELS = {
    "brownian-1d": lambda: brownian_model(d=1, drift=0.4, x0=0.5, x0_width=1.0),
    "brownian-2d": lambda: brownian_model(
        d=2, drift=[0.4, -0.3], x0=[0.5, -1.0], x0_width=1.0
    ),
    "gbm": lambda: gbm_model(mu=0.1, sigma=0.3, x0=1.0, x0_width=0.4),
}


def _path_end(model, grid, i, M, seed):
    """X_i as the end of a path simulated to t_i on the fresh stream."""
    return model.sample_paths(grid, M, cloud_rng(seed, i, STREAM_FRESH), last=i).X[:, i, :]


def _mean_var_se(x):
    """Sample mean and variance with their standard errors."""
    m = x.shape[0]
    dev2 = (x - x.mean()) ** 2
    return x.mean(), x.std() / np.sqrt(m), dev2.mean(), dev2.std() / np.sqrt(m)


@pytest.mark.parametrize("name", sorted(_ONE_STEP_MODELS))
def test_one_step_marginal_matches_path_end_law(name):
    model = _ONE_STEP_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=6, theta=0.6)  # non-uniform steps
    m = 20_000
    for i in (1, 3, 6):
        one_step = sample_marginal(model, grid, i=i, M=m, seed=91)
        path_end = _path_end(model, grid, i, m, seed=92)
        assert one_step.shape == path_end.shape == (m, model.d)
        for c in range(model.d):
            a, b = one_step[:, c], path_end[:, c]
            assert stats.ks_2samp(a, b).pvalue > 0.01
            mean_a, mean_se_a, var_a, var_se_a = _mean_var_se(a)
            mean_b, mean_se_b, var_b, var_se_b = _mean_var_se(b)
            assert abs(mean_a - mean_b) <= 4.0 * np.hypot(mean_se_a, mean_se_b)
            assert abs(var_a - var_b) <= 4.0 * np.hypot(var_se_a, var_se_b)


def test_euler_marginal_is_the_path_end_draw():
    # No exact transition: fresh draws stay the ends of simulated paths,
    # bit for bit.
    def b(t, x):
        return -0.5 * x

    def sigma(t, x):
        return (0.2 + 0.1 * np.tanh(x))[:, :, None]

    model = euler_sde_model(b=b, sigma=sigma, x0=0.3, x0_width=0.5)
    grid = make_theta_grid(T=1.0, N=5, theta=1.0)
    for i in (1, 3, 5):
        np.testing.assert_array_equal(
            sample_marginal(model, grid, i=i, M=400, seed=95),
            _path_end(model, grid, i, 400, seed=95),
        )


@pytest.mark.parametrize("name", sorted(_ONE_STEP_MODELS))
def test_one_step_marginal_start_and_reproducibility(name):
    model = _ONE_STEP_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    # index 0 is the start draw itself, with the same bits
    np.testing.assert_array_equal(
        sample_marginal(model, grid, i=0, M=300, seed=96),
        model._draw_start(300, cloud_rng(96, 0, STREAM_FRESH)),
    )
    first = sample_marginal(model, grid, i=2, M=300, seed=97)
    np.testing.assert_array_equal(first, sample_marginal(model, grid, i=2, M=300, seed=97))
    assert not np.array_equal(first, sample_marginal(model, grid, i=2, M=300, seed=98))
    assert not np.array_equal(first, sample_marginal(model, grid, i=3, M=300, seed=97))


# ---------------------------------------------------------------------------
# model validation


def test_model_validation():
    with pytest.raises(ValueError):
        brownian_model(d=0)
    with pytest.raises(ValueError):
        brownian_model(d=2, x0=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        brownian_model(d=1, x0_width=-1.0)


@pytest.mark.parametrize(
    "model_class, coefficients",
    [
        (BrownianModel, dict(drift=np.zeros(2))),
        (GeometricBrownianModel, dict(mu=np.zeros(2), sigma=np.ones(2))),
        (EulerSdeModel, dict(b=None, sigma=lambda t, x: None, db=None, dsigma=None)),
    ],
)
def test_weights_require_matching_dimensions(model_class, coefficients):
    with pytest.raises(ValueError, match="d = q, got d=2, q=1"):
        model_class(d=2, q=1, C_M=1.0, x0=np.zeros(2), x0_width=0.0, **coefficients)
