"""Tests for path samplers, Malliavin weights, and simulation clouds."""

import dataclasses
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

import mwls.model
import mwls.solver
from mwls.errors import NumericalError
from mwls.grid import make_theta_grid
from mwls.harness import benchmark_b3
from mwls.model import (
    STREAM_CLOUD,
    STREAM_FRESH,
    BrownianModel,
    EulerSdeModel,
    SimulationCloud,
    _DRAW_ROWS,
    _cloud_block,
    _cloud_draws,
    brownian_model,
    cloud_rng,
    derive_seed,
    euler_sde_model,
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


def _reference_paths(model, grid, i, x_i, dW):
    """X_i..X_N, path-major, from the (M, d) states x_i along the (M, N - i, q)
    increments dW, by each model's one-step recursion written out: the
    reference the samplers must match bit for bit."""
    M, n = dW.shape[:2]
    X = np.empty((M, n + 1, model.d))
    X[:, 0, :] = x_i
    for j in range(n):
        k = i + j
        xk, dt = X[:, j, :], grid.steps[k]
        if isinstance(model, BrownianModel):
            X[:, j + 1, :] = xk + (dW[:, j, :] + model.drift * dt)
        else:
            step = np.einsum("mdq,mq->md", model.sigma(grid.points[k], xk), dW[:, j, :])
            if model.b is not None:
                step = step + model.b(grid.points[k], xk) * dt
            X[:, j + 1, :] = xk + step
    return X


def _euler_reference_weights(model, grid, i, X, dW):
    """Tangent-process weights H^(i) from the tail paths X_i..X_N."""
    M, N, t = X.shape[0], grid.N, grid.points
    eye = np.broadcast_to(np.eye(model.d), (M, model.d, model.d))
    psi = eye.copy()
    sig_i = model.sigma(t[i], X[:, 0, :])
    increments = np.empty((M, N - i, model.d))
    for k in range(i, N):
        xk = X[:, k - i, :]
        a_k = np.linalg.inv(model.sigma(t[k], xk)) @ psi @ sig_i
        increments[:, k - i, :] = np.einsum("mad,ma->md", a_k, dW[:, k - i, :])
        if k + 1 < N:
            update = eye.copy()
            if model.db is not None:
                update = update + model.db(t[k], xk) * grid.steps[k]
            if model.dsigma is not None:
                update = update + np.einsum(
                    "mlab,ml->mab", model.dsigma(t[k], xk), dW[:, k - i, :]
                )
            psi = update @ psi
    return np.cumsum(increments, axis=1) / (t[i + 1 :] - t[i])[None, :, None]


def _tail_cloud(model, grid, i, x_i, normals):
    """The index-i cloud from its states X_i and its (M, N - i, q) tail
    normals, path-major, by the reference recursion and weights."""
    dW = normals * np.sqrt(grid.steps[i:])[None, :, None]
    X = _reference_paths(model, grid, i, x_i, dW)
    if isinstance(model, EulerSdeModel):
        H = _euler_reference_weights(model, grid, i, X, dW)
    else:
        spans = grid.points[i + 1 :] - grid.points[i]
        H = np.cumsum(dW, axis=1) / spans[None, :, None]
    return SimulationCloud(i=i, X=X, H=H)


def _reference_cloud(model, grid, i, M_i, seed):
    """The index-i cloud from its (seed, i) stream as the samplers draw it:
    X_i like a fresh sample (the start law at i = 0, else `draw_state`),
    then one (M_i, N - i, q) draw of tail normals."""
    rng = cloud_rng(seed, i, STREAM_CLOUD)
    x_i = model._draw_start(M_i, rng) if i == 0 else model.draw_state(grid, i, M_i, rng)
    return _tail_cloud(model, grid, i, x_i, rng.standard_normal((M_i, grid.N - i, model.q)))


def _full_path_cloud(model, grid, i, M_i, rng):
    """The index-i cloud cut from whole paths simulated from t_0 on rng: the
    starts, then one (M_i, N, q) draw of normals.  Every cloud was drawn so
    before clouds drew only their tails, and index-0 clouds still are."""
    starts = model._draw_start(M_i, rng)
    normals = rng.standard_normal((M_i, grid.N, model.q))
    dW = normals * np.sqrt(grid.steps)[None, :, None]
    x_i = _reference_paths(model, grid, 0, starts, dW)[:, i, :]
    return _tail_cloud(model, grid, i, x_i, normals[:, i:])


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
    """Each cloud is its tail built by the reference recursion from its own
    draws, bit for bit; at index 0 that tail is the whole path from t_0."""
    model = _TAIL_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)  # non-uniform steps
    m = 1037
    for i in (0, 1, grid.N - 1):
        cloud = sample_cloud(model, grid, i=i, M_i=m, seed=81)
        reference = _reference_cloud(model, grid, i, m, seed=81)
        if i == 0:
            full = _full_path_cloud(model, grid, 0, m, cloud_rng(81, 0, STREAM_CLOUD))
            np.testing.assert_array_equal(cloud.X, full.X, strict=True)
            np.testing.assert_array_equal(cloud.H, full.H, strict=True)
        assert cloud.X.shape == reference.X.shape == (m, grid.N - i + 1, model.d)
        assert cloud.H.shape == reference.H.shape == (m, grid.N - i, model.q)
        np.testing.assert_array_equal(cloud.X, reference.X, strict=True)
        np.testing.assert_array_equal(cloud.H, reference.H, strict=True)
        # the tail alone is stored, one contiguous block per time index: the
        # states X_i..X_N in a buffer of their own, and the Brownian weights
        # in that of the normals they were built from, which `_cloud_draws`
        # sizes for whole paths (the Euler weights have a buffer of their own)
        assert cloud.X.base.shape == (grid.N - i + 1, m, model.d)
        brownian = isinstance(model, BrownianModel)
        assert cloud.H.base.shape == (grid.N if brownian else grid.N - i, m, model.q)
        assert not np.shares_memory(cloud.X, cloud.H)
        for k in range(i, grid.N + 1):
            assert cloud.x_at(k).flags.c_contiguous
        for j in range(i + 1, grid.N + 1):
            assert cloud.h_at(j).flags.c_contiguous


# SHA-256 of the X and H bytes of sample_cloud(model, grid, 0, 1037, seed=81)
# on make_theta_grid(1.0, 5, 0.6), as computed when every cloud was cut from
# whole paths: index-0 clouds kept their bits when clouds began to draw only
# their tails.
_INDEX_0_DIGESTS = {
    "brownian-1d": "d5faac67d12f98724e926249c0c06eda8ebc6dd523934b3af00b750777633add",
    "brownian-2d": "c36eb8c64178300967023f26c22ef26e01c7d70c9042220bcdadcdc075ed72bd",
}


@pytest.mark.parametrize("name", sorted(_INDEX_0_DIGESTS))
def test_index_0_clouds_keep_their_bits(name):
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)
    cloud = sample_cloud(_TAIL_MODELS[name](), grid, 0, 1037, seed=81)
    digest = hashlib.sha256(cloud.X.tobytes() + cloud.H.tobytes()).hexdigest()
    assert digest == _INDEX_0_DIGESTS[name]


def _moments_agree(a, b, se_factor=4.0):
    """Whether the means and the variances of two samples agree within
    se_factor combined standard errors."""
    mean_a, mean_se_a, var_a, var_se_a = _mean_var_se(a)
    mean_b, mean_se_b, var_b, var_se_b = _mean_var_se(b)
    return (
        abs(mean_a - mean_b) <= se_factor * np.hypot(mean_se_a, mean_se_b)
        and abs(var_a - var_b) <= se_factor * np.hypot(var_se_a, var_se_b)
    )


@pytest.mark.parametrize("name", sorted(_TAIL_MODELS))
def test_tail_clouds_have_the_law_of_full_path_clouds(name):
    """Tail clouds, whose X_i is drawn like a fresh sample, and clouds cut
    from whole paths have the same law of (X_i, X_N, H^(i)_N): per state and
    weight component a two-sample KS test, mean and variance, and the mean
    and variance of X_N H^(i)_N, the weighted terminal term of the
    z-response.  The four models make about 130 checks at one fixed seed;
    KS at p > 0.001 and moments at 4.5 standard errors keep the chance of a
    false alarm small."""
    model = _TAIL_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)
    m = 20_000
    for i in (1, 3):
        tail = sample_cloud(model, grid, i=i, M_i=m, seed=61)
        full = _full_path_cloud(model, grid, i, m, np.random.default_rng(62))
        for c in range(model.d):
            pairs = [
                (tail.x_at(i)[:, c], full.x_at(i)[:, c]),
                (tail.x_at(grid.N)[:, c], full.x_at(grid.N)[:, c]),
                (tail.h_at(grid.N)[:, c], full.h_at(grid.N)[:, c]),
            ]
            for a, b in pairs:
                assert stats.ks_2samp(a, b).pvalue > 0.001
                assert _moments_agree(a, b, 4.5)
            weighted = [
                cloud.x_at(grid.N)[:, c] * cloud.h_at(grid.N)[:, c] for cloud in (tail, full)
            ]
            assert _moments_agree(*weighted, 4.5)


def _streamed_blocks(model, grid, i, m, seed, rows):
    """The index-i cloud as the solver builds it: each block of normals of
    the `_cloud_draws` stream built by `_cloud_block` on its rows of the
    X_i that the stream yields first."""
    draws = _cloud_draws(model, grid, i, m, seed, rows)
    x_i = next(draws)
    blocks = [
        _cloud_block(model, grid, i, x_i[row0 : row0 + rows], next(draws), row0)
        for row0 in range(0, m, rows)
    ]
    assert next(draws, None) is None  # 1 + ceil(m / rows) items, no more
    return blocks


@pytest.mark.parametrize("rows, m", [(1, 97), (4095, 8229), (4133, 8229)])
@pytest.mark.parametrize("name", sorted(_TAIL_MODELS))
def test_cloud_blocks_are_bitwise_the_cloud(name, rows, m):
    model = _TAIL_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)
    for i in (0, 1, grid.N - 1):
        cloud = sample_cloud(model, grid, i=i, M_i=m, seed=81)
        blocks = _streamed_blocks(model, grid, i, m, seed=81, rows=rows)
        assert [b.M for b in blocks] == [min(rows, m - s) for s in range(0, m, rows)]
        assert all(b.i == i for b in blocks)
        for stored, whole in (("X", cloud.X), ("H", cloud.H)):
            joined = np.concatenate([getattr(b, stored) for b in blocks])
            np.testing.assert_array_equal(joined, whole, strict=True)


def test_solve_on_tail_clouds_is_bitwise_the_full_path_solve(monkeypatch):
    """The solve is that on the reference clouds, bit for bit: cut from
    whole paths at index 0, the reference tails from the drawn X_i after."""
    bench = benchmark_b3()
    grid = make_theta_grid(1.0, 6)
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=4.0, d=1)
    args = (bench.model, grid, bench.driver, bench.terminal, basis, basis)
    m = 1061
    monkeypatch.setattr(mwls.solver, "_BLOCK_ROWS", 1024)  # two equal blocks a cloud
    tail = mwls.solver.mwls_solve(*args, cloud_sizes=m, seed=7)
    served = []
    references = {}

    def reference_block(model, grid, i, x_rows, normals, row0):  # cut from whole paths
        if i not in references:
            references[i] = _reference_cloud(model, grid, i, m, seed=7)
        cloud = references[i]
        here = slice(row0, row0 + normals.shape[0])
        # the drawn X_i, kept as the marginal, is the reference cloud's
        np.testing.assert_array_equal(x_rows, cloud.x_at(i)[here], strict=True)
        served.append(cloud.X[here].shape[0])
        return SimulationCloud(i=i, X=cloud.X[here], H=cloud.H[here])

    monkeypatch.setattr(mwls.solver, "_cloud_block", reference_block)
    full = mwls.solver.mwls_solve(*args, cloud_sizes=m, seed=7)
    assert served == [531, 530] * grid.N
    for fits, reference in ((tail.y_fits, full.y_fits), (tail.z_fits, full.z_fits)):
        for fit, expected in zip(fits, reference, strict=True):
            assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
            assert fit.level == expected.level
    for x_i, expected in zip(tail.marginals, full.marginals, strict=True):
        np.testing.assert_array_equal(x_i, expected, strict=True)


def test_cloud_errors_name_the_row_of_the_whole_cloud():
    """A failing row in a later block is named by its row in the whole
    cloud, in the words of the one-block draw."""
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    m, rows, row, seed = 30, 7, 17, 5
    probe = euler_sde_model(b=None, sigma=_identity_sigma, x0=0.0, x0_width=2.0)
    target = probe._draw_start(m, cloud_rng(seed, 0, STREAM_CLOUD))[row]

    def singular_at_target(t, x):  # zero diffusion on the target row only
        return np.where(x == target, 0.0, 1.0)[:, :, None]

    def infinite_at_target(t, x):
        return np.where(x == target, np.inf, 0.0)

    cases = [
        (
            euler_sde_model(b=None, sigma=singular_at_target, x0=0.0, x0_width=2.0),
            f"singular diffusion matrix at time index 0, path {row}",
        ),
        (
            euler_sde_model(b=infinite_at_target, sigma=_identity_sigma, x0=0.0, x0_width=2.0),
            f"non-finite values in the simulation cloud at index 0, path {row}",
        ),
    ]
    for model, message in cases:
        with pytest.raises(NumericalError) as whole:
            sample_cloud(model, grid, 0, m, seed)
        assert str(whole.value) == message
        with pytest.raises(NumericalError) as streamed:
            _streamed_blocks(model, grid, 0, m, seed, rows)
        assert str(streamed.value) == message


def test_sample_paths_checks_the_shapes_of_its_arrays():
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    model = brownian_model(d=2)
    x_i, normals = np.zeros((5, 2)), np.zeros((5, 3, 2))
    assert model.sample_paths(grid, 1, x_i, normals).X.shape == (5, 4, 2)
    shapes = r"paths take \(M, 2\) states and \(M, n, 2\) normals, got "
    cases = [
        (1, np.zeros((5, 1)), normals, shapes + r"\(5, 1\) and \(5, 3, 2\)"),
        (1, np.zeros(5), normals, shapes + r"\(5,\) and \(5, 3, 2\)"),
        (1, x_i, np.zeros((4, 3, 2)), shapes + r"\(5, 2\) and \(4, 3, 2\)"),
        (1, x_i, np.zeros((5, 3, 1)), shapes + r"\(5, 2\) and \(5, 3, 1\)"),
        (1, x_i, np.zeros((5, 3)), shapes + r"\(5, 2\) and \(5, 3\)"),
        (1, x_i, np.zeros((5, 3, 2), np.float32), r"paths take float64 normals, got float32"),
        (2, x_i, normals, r"3 steps from index 2 leave the grid's indices 0\.\.4"),
        (-1, x_i, normals, r"3 steps from index -1 leave"),
    ]
    for i, states, drawn, message in cases:
        with pytest.raises(ValueError, match=message):
            model.sample_paths(grid, i, states, drawn)


@pytest.mark.parametrize("name", ["brownian-1d", "euler-1d"])
def test_weights_of_a_batch_short_of_the_horizon_name_the_indices(name):
    model = _TAIL_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    batch = model.sample_paths(grid, 1, np.full((5, 1), 0.5), np.zeros((5, 2, 1)))
    message = r"weights from index 1 need a batch that runs to t_N: it has 2 steps, N = 4 needs 3"
    with pytest.raises(ValueError, match=message):
        model.malliavin_weights(grid, 1, batch)


def test_step_recursion_matches_the_closed_forms():
    """Brownian clouds build X_k step by step from their X_i; on a long
    non-uniform grid they stay within round-off of the closed form
    X_i + drift (t_k - t_i) + W_k - W_i."""
    grid = make_theta_grid(T=1.0, N=50, theta=0.6)
    t = grid.points
    for name in ("brownian-1d", "brownian-2d"):
        model = _TAIL_MODELS[name]()
        for i in (0, 25):
            x_i, normals = _cloud_draws(model, grid, i, 2000, seed=12, rows=2000)
            W = np.cumsum(normals * np.sqrt(grid.steps[i:])[None, :, None], axis=1)
            W = np.concatenate([np.zeros_like(W[:, :1]), W], axis=1)
            closed = x_i[:, None, :] + model.drift * (t[i:, None] - t[i]) + W
            X = sample_cloud(model, grid, i, 2000, seed=12).X
            assert np.max(np.abs(X - closed)) <= 1e-13 * np.max(np.abs(closed))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("m", [1, _DRAW_ROWS - 1, _DRAW_ROWS, 2 * _DRAW_ROWS + 37])
def test_cloud_normals_are_one_draw_stored_time_major(m, q):
    # the states X_i come first on the stream, drawn like a fresh sample;
    # drawn block by block and chunk by chunk, the tail normals joined are
    # those of one (M, N - i, q) call on the stream after them, and each
    # time slice of a block is contiguous
    model = brownian_model(d=q, x0=0.0, x0_width=1.0)
    grid = make_theta_grid(T=1.0, N=4, theta=0.6)
    for rows in (1000, m, m + 5):
        for i in (0, 1):
            x_i, *blocks = _cloud_draws(model, grid, i, m, seed=33, rows=rows)
            rng = cloud_rng(33, i, STREAM_CLOUD)
            states = model._draw_start(m, rng) if i == 0 else model.draw_state(grid, i, m, rng)
            np.testing.assert_array_equal(x_i, states, strict=True)
            expected = rng.standard_normal((m, grid.N - i, q))
            assert [b.shape[0] for b in blocks] == [min(rows, m - s) for s in range(0, m, rows)]
            normals = np.concatenate(blocks)
            assert normals.shape == expected.shape
            assert normals.tobytes() == expected.tobytes()
            for block in blocks:
                # each block has a buffer of its own, sized for whole paths
                assert block.base.shape == (grid.N, block.shape[0], q)
                for k in range(grid.N - i):
                    assert block[:, k].flags.c_contiguous
            assert len({id(b.base) for b in blocks}) == len(blocks)


def test_a_consumed_block_of_normals_is_freed(monkeypatch):
    """The stream draws a block of normals only when it is advanced to it,
    and keeps no reference to it: once `_cloud_block` has built a block, the
    buffer of its normals is referred to by its Brownian weights alone, and
    it is freed once the block is dropped, as are those of the blocks
    before."""
    model = brownian_model(d=2, x0=0.0, x0_width=1.0)
    grid = make_theta_grid(T=1.0, N=4, theta=0.6)
    draw = mwls.model._time_major_normals
    buffers = []

    def recorded_draw(*args):
        normals = draw(*args)
        buffers.append(weakref.ref(normals.base))
        return normals

    monkeypatch.setattr(mwls.model, "_time_major_normals", recorded_draw)
    draws = _cloud_draws(model, grid, 1, 50, seed=34, rows=20)
    x_i = next(draws)  # X_1 is one exact step, drawn without tail normals
    assert buffers == []
    for b, row0 in enumerate(range(0, 50, 20)):
        block = _cloud_block(model, grid, 1, x_i[row0 : row0 + 20], next(draws), row0)
        assert len(buffers) == b + 1
        assert [ref() is None for ref in buffers] == [True] * b + [False]
        assert block.H.base is buffers[b]()
        assert not np.shares_memory(block.X, block.H)
        assert block.M == (20 if b < 2 else 10)
    assert next(draws, None) is None
    del block
    assert [ref() is None for ref in buffers] == [True] * 3


def test_a_block_is_built_in_its_normals_and_one_buffer_of_paths():
    """While one Brownian block is built, the traced peak over what was held
    before its normals were drawn is those normals and the block's paths,
    plus the finiteness check's boolean mask of the paths (an eighth of
    them) and small objects: the increments and weights are built in the
    normals, with no buffer beside them.  Here that is 0.899 MB.  When the
    paths and increments had a (2n + 1, m, d) buffer of their own, the peak
    held the normals twice: 1.298 MB."""
    model = brownian_model(d=1, x0=0.0, x0_width=1.0)
    grid = make_theta_grid(T=1.0, N=10, theta=0.6)
    m = 5000
    draws = _cloud_draws(model, grid, 0, m, seed=35, rows=m)
    x_i = next(draws)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        normals = next(draws)
        tracemalloc.reset_peak()  # past the draw's own chunk buffer
        block = _cloud_block(model, grid, 0, x_i, normals, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.H.base is normals.base
    paths = block.X.base.nbytes
    assert paths == (grid.N + 1) * m * 8
    assert peak - start < normals.base.nbytes + paths + paths // 4


# Componentwise models at d = q = 3: the Brownian kernels apply the drift
# and start box one state coordinate at a time.
_D3_MODELS = {
    "brownian-3d": lambda: brownian_model(
        d=3, drift=[0.4, -0.3, 0.1], x0=[0.5, -1.0, 2.0], x0_width=1.5
    ),
}


@pytest.mark.parametrize("name", sorted(_D3_MODELS))
def test_column_kernels_are_bitwise_their_broadcast_forms(name):
    model = _D3_MODELS[name]()
    grid = make_theta_grid(T=1.0, N=4, theta=0.6)
    m = 5003
    rng = np.random.default_rng(21)
    x_k = rng.uniform(0.5, 2.0, (m, 3))
    dW_k = 0.3 * rng.standard_normal((m, 3))
    for k in range(grid.N):
        out = np.empty((m, 3))
        model.step(grid, k, x_k, dW_k, out)
        expected = dW_k + model.drift * grid.steps[k] + x_k
        assert out.tobytes() == expected.tobytes()

    def broadcast_start(model, rng):
        starts = np.broadcast_to(model.x0, (m, 3)).copy()
        if model.x0_width > 0.0:
            starts += model.x0_width * (rng.random((m, 3)) - 0.5)
        return starts

    for width in (model.x0_width, 0.0):
        variant = dataclasses.replace(model, x0_width=width)
        starts = variant._draw_start(m, np.random.default_rng(22))
        assert starts.tobytes() == broadcast_start(variant, np.random.default_rng(22)).tobytes()
    for i in (1, grid.N):
        drawn = model.draw_state(grid, i, m, np.random.default_rng(23))
        rng = np.random.default_rng(23)
        t = grid.points[i]
        starts = broadcast_start(model, rng)
        normals = rng.standard_normal((m, 3))
        expected = starts + model.drift * t + np.sqrt(t) * normals
        assert drawn.tobytes() == expected.tobytes()


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
# Euler SDE model


def _identity_sigma(t, x):
    m, d = x.shape
    return np.broadcast_to(np.eye(d), (m, d, d))


def test_euler_identity_diffusion_matches_brownian():
    """Euler with unit diffusion and drift b = drift is Brownian motion
    with that drift, bit for bit, from the same states X_i and normals.  At
    index 0 both draw X_0 from the start law, so their clouds are equal."""
    grid = make_theta_grid(T=1.0, N=4, theta=0.6)
    rng = np.random.default_rng(31)
    for d, drift in ((1, [0.0]), (1, [0.7]), (2, [0.0, 0.0]), (2, [0.4, -0.3])):
        drift = np.array(drift)
        euler = euler_sde_model(
            b=lambda t, x: np.broadcast_to(drift, x.shape), sigma=_identity_sigma,
            x0=0.5, d=d, x0_width=1.0,
        )
        brownian = brownian_model(d=d, drift=drift, x0=0.5, x0_width=1.0)
        for i in (0, 1, 3):
            x_i = 0.5 + rng.uniform(-1.0, 1.0, (300, d))
            normals = rng.standard_normal((300, grid.N - i, d))
            # each call consumes the normals it is given
            e = euler.sample_paths(grid, i, x_i, normals.copy())
            b = brownian.sample_paths(grid, i, x_i, normals.copy())
            np.testing.assert_array_equal(e.X, b.X, strict=True)
            np.testing.assert_array_equal(e.dW, b.dW, strict=True)
            np.testing.assert_array_equal(
                euler.malliavin_weights(grid, i, e), brownian.malliavin_weights(grid, i, b),
                strict=True,
            )
        e = sample_cloud(euler, grid, i=0, M_i=300, seed=31)
        b = sample_cloud(brownian, grid, i=0, M_i=300, seed=31)
        np.testing.assert_array_equal(e.X, b.X, strict=True)
        np.testing.assert_array_equal(e.H, b.H, strict=True)


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


# An (M,) drift, a diffusion without its q axis, and Jacobians without
# their last axis, each with the shape it has and the one it should have
# for M = 10 rows in d = q = 1.
_MISSHAPEN_CALLBACKS = {
    "b": (lambda t, x: x[:, 0], (10,), (10, 1)),
    "sigma": (lambda t, x: np.ones_like(x), (10, 1), (10, 1, 1)),
    "db": (lambda t, x: np.zeros((x.shape[0], 1)), (10, 1), (10, 1, 1)),
    "dsigma": (lambda t, x: np.zeros((x.shape[0], 1, 1)), (10, 1, 1), (10, 1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(_MISSHAPEN_CALLBACKS))
def test_euler_callbacks_of_the_wrong_shape_are_named(name):
    callback, got, expected = _MISSHAPEN_CALLBACKS[name]
    model = euler_sde_model(**{"b": None, "sigma": _identity_sigma, "x0": 0.0, name: callback})
    grid = make_theta_grid(T=1.0, N=3, theta=1.0)
    with pytest.raises(ValueError) as err:
        sample_cloud(model, grid, i=0, M_i=10, seed=0)
    assert str(err.value) == f"{name} returned shape {got} at time index 0, expected {expected}"


def test_euler_cloud_calls_sigma_twice_a_time_index():
    """sigma is called once per time index t_k, k < N, of a cloud's tail in
    the steps that build the paths and once in the weights, whose sigma(t_i,
    X_i) is that of their k = i pass; the X_i of a later index are path ends,
    one call per earlier index.  A 5-step cloud from index 0 makes 10 calls."""
    times = []

    def sigma(t, x):
        times.append(t)
        return (0.5 + 0.1 * np.tanh(x))[:, :, None]

    model = euler_sde_model(b=None, sigma=sigma, x0=0.3, x0_width=0.5)
    grid = make_theta_grid(T=1.0, N=5, theta=0.6)
    for i in (0, 2):
        times.clear()
        sample_cloud(model, grid, i=i, M_i=50, seed=36)
        tail = list(grid.points[i : grid.N])
        assert sorted(times) == sorted(list(grid.points[:i]) + 2 * tail)


def test_euler_callbacks_may_return_scalars():
    """A scalar callback value is broadcast to the callback's shape: the
    cloud is bit for bit that of the same values as full arrays."""
    def full(value, *tail):
        return lambda t, x: np.full((x.shape[0], *tail), value)

    grid = make_theta_grid(T=1.0, N=4, theta=0.6)
    scalar = euler_sde_model(
        b=lambda t, x: 0.3, sigma=lambda t, x: 0.7, db=lambda t, x: -0.2,
        dsigma=lambda t, x: 0.1, x0=0.5, x0_width=1.0,
    )
    arrays = euler_sde_model(
        b=full(0.3, 1), sigma=full(0.7, 1, 1), db=full(-0.2, 1, 1),
        dsigma=full(0.1, 1, 1, 1), x0=0.5, x0_width=1.0,
    )
    for i in (0, 2):
        a = sample_cloud(scalar, grid, i=i, M_i=200, seed=35)
        b = sample_cloud(arrays, grid, i=i, M_i=200, seed=35)
        np.testing.assert_array_equal(a.X, b.X, strict=True)
        np.testing.assert_array_equal(a.H, b.H, strict=True)


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


@pytest.mark.parametrize("sampler, args, message", [
    (sample_cloud, (1.5, 7, 1), "cloud index 1.5 is not an integer"),
    (sample_cloud, (1, 10.5, 1), "cloud size 10.5 is not an integer"),
    (sample_cloud, (1, 7, 1.5), "seed 1.5 is not an integer"),
    (sample_cloud, (1, 7, -1), "seed must be >= 0, got -1"),
    (sample_marginal, (True, 10, 1), "marginal index True is not an integer"),
    (sample_marginal, (2, 10.5, 1), "draw count 10.5 is not an integer"),
    (sample_marginal, (2, 10, "1"), "seed '1' is not an integer"),
    (sample_marginal, (2, 10, -1), "seed must be >= 0, got -1"),
])
def test_samplers_name_a_bad_integer_argument(sampler, args, message):
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    with pytest.raises(ValueError) as err:
        sampler(brownian_model(d=1), grid, *args)
    assert str(err.value) == message


# Each model factory, by its state dimension; sigma is not called to build one.
_MODEL_FACTORIES = {
    "brownian": lambda d: brownian_model(d=d),
    "euler": lambda d: euler_sde_model(None, lambda t, x: None, 0.0, d=d),
}


@pytest.mark.parametrize("factory", _MODEL_FACTORIES.values(), ids=list(_MODEL_FACTORIES))
def test_model_dimension_is_read_as_a_count(factory):
    model = factory(2.0)
    assert type(model.d) is int and model.d == 2
    assert model.x0.shape == (2,)
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError) as err:
            factory(bad)
        assert str(err.value) == f"state dimension {bad!r} is not an integer"
    with pytest.raises(ValueError) as err:
        factory(0)
    assert str(err.value) == "state dimension must be >= 1, got 0"


def test_samplers_take_integral_floats_and_numpy_integers():
    model = brownian_model(d=1, x0_width=1.0)
    grid = make_theta_grid(T=1.0, N=4, theta=1.0)
    cloud = sample_cloud(model, grid, 1, 7, 3)
    for args in ((1.0, 7.0, 3.0), (np.int64(1), np.int32(7), np.uint8(3))):
        same = sample_cloud(model, grid, *args)
        assert same.i == 1 and same.M == 7
        np.testing.assert_array_equal(same.X, cloud.X, strict=True)
        np.testing.assert_array_equal(same.H, cloud.H, strict=True)
    marginal = sample_marginal(model, grid, 2, 10, 3)
    np.testing.assert_array_equal(
        sample_marginal(model, grid, 2.0, 10.0, 3.0), marginal, strict=True
    )


# Models with an exact one-step draw of X_i: Brownian motion with drift and
# a start box in d = 1 and d = 2.
_ONE_STEP_MODELS = {
    "brownian-1d": lambda: brownian_model(d=1, drift=0.4, x0=0.5, x0_width=1.0),
    "brownian-2d": lambda: brownian_model(
        d=2, drift=[0.4, -0.3], x0=[0.5, -1.0], x0_width=1.0
    ),
}


def _path_end(model, grid, i, M, seed):
    """X_i as the end of a path simulated and stored from t_0 to t_i on the
    fresh stream: the starts, then (M, i, q) normals."""
    rng = cloud_rng(seed, i, STREAM_FRESH)
    starts = model._draw_start(M, rng)
    return model.sample_paths(grid, 0, starts, rng.standard_normal((M, i, model.q))).X[:, i, :]


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


@pytest.mark.parametrize("kwargs, message", [
    ({"x0": np.zeros(2)}, "starting point must have shape (1,), got (2,)"),
    ({"C_M": 0.0}, "weight moment constant must be positive, got 0.0"),
])
def test_brownian_model_built_directly_is_validated(kwargs, message):
    # the class itself, not the factory, which shapes x0 before building it
    fields = {"d": 1, "C_M": 1.0, "x0": np.zeros(1), "x0_width": 0.0, "drift": np.zeros(1)}
    with pytest.raises(ValueError) as err:
        BrownianModel(**{**fields, **kwargs})
    assert str(err.value) == message


def _unit_euler(**kwargs):
    return euler_sde_model(b=None, sigma=_identity_sigma, **{"x0": 0.0, **kwargs})


@pytest.mark.parametrize("factory, kwargs, message", [
    (brownian_model, {"drift": np.nan}, "drift must be finite, got nan"),
    (brownian_model, {"drift": [0.1, -np.inf], "d": 2}, "drift must be finite, got -inf"),
    (brownian_model, {"x0": np.inf}, "starting point must be finite, got inf"),
    (brownian_model, {"x0_width": np.inf}, "starting-box width must be finite, got inf"),
    (brownian_model, {"drift": np.inf}, "drift must be finite, got inf"),
    (brownian_model, {"x0": np.nan}, "starting point must be finite, got nan"),
    (brownian_model, {"x0_width": np.nan}, "starting-box width must be finite, got nan"),
    (_unit_euler, {"x0_width": np.inf}, "starting-box width must be finite, got inf"),
    (_unit_euler, {"C_M": np.nan}, "weight moment constant must be finite, got nan"),
    (_unit_euler, {"C_M": np.inf}, "weight moment constant must be finite, got inf"),
    (_unit_euler, {"x0": [0.0, np.nan], "d": 2}, "starting point must be finite, got nan"),
])
def test_model_parameters_must_be_finite(factory, kwargs, message):
    with pytest.raises(ValueError) as err:
        factory(**kwargs)
    assert str(err.value) == message
