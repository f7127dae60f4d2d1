"""Markov-chain path samplers, Malliavin weights, and simulation clouds.

A model samples paths (X_{t_i})_{i=0..N} along a time grid together with
weights H^(i)_j for j > i satisfying the moment conditions

    E[H^(i)_j | F_i] = 0,   (E[|H^(i)_j|^2 | F_i])^(1/2) <= C_M / sqrt(t_j - t_i).

A simulation cloud at index i holds M_i independent rows of
(X_i..X_N, H^(i)_{i+1..N}) used for the two regressions at that index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError
from .grid import TimeGrid

__all__ = [
    "MarkovModel",
    "BrownianModel",
    "GeometricBrownianModel",
    "EulerSdeModel",
    "SimulationCloud",
    "brownian_model",
    "gbm_model",
    "euler_sde_model",
    "cloud_rng",
    "derive_seed",
    "sample_cloud",
    "sample_marginal",
]

# Stream purposes: disjoint random streams per (time index, purpose).
STREAM_CLOUD = 0  # solver regression clouds
STREAM_FRESH = 1  # fresh out-of-sample evaluation draws
STREAM_DERIVED = 2  # derived sub-seeds for parameter sweeps


def cloud_rng(seed: int, index: int, purpose: int = STREAM_CLOUD) -> np.random.Generator:
    """Counter-based generator for one (time index, purpose) stream.

    Distinct (seed, index, purpose) triples give statistically independent
    streams; the same triple reproduces draws bit for bit.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, purpose))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, k: int) -> int:
    """Derive the k-th sub-seed from a master seed (for parameter sweeps)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, STREAM_DERIVED))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class _PathBatch:
    """Full simulated trajectories plus their driving Brownian increments."""

    X: np.ndarray  # (M, n_times, d)
    dW: np.ndarray  # (M, n_times - 1, q)


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Base path/weight sampler.

    Subclasses implement `sample_paths` (trajectories on a grid prefix) and
    `malliavin_weights` (H^(i)_j for all j > i from a full path batch), with
    as many Brownian factors as states (q = d).  `draw_state` gives draws
    of a single X_i: by default the end of a simulated path, overridden by
    an exact one-step draw where the transition law is known.
    """

    d: int
    q: int
    C_M: float
    x0: np.ndarray = field(repr=False)
    x0_width: float

    def _validate_base(self) -> None:
        if self.d < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.d}")
        if self.q < 1:
            raise ValueError(f"weight dimension must be >= 1, got {self.q}")
        if self.d != self.q:
            raise ValueError(
                f"weights require matching dimensions d = q, got d={self.d}, q={self.q}"
            )
        if self.C_M <= 0.0:
            raise ValueError(f"weight moment constant must be positive, got {self.C_M}")
        if self.x0.shape != (self.d,):
            raise ValueError(
                f"starting point must have shape ({self.d},), got {self.x0.shape}"
            )
        if self.x0_width < 0.0:
            raise ValueError(f"starting-box width must be >= 0, got {self.x0_width}")
        if not np.isfinite(self.x0_width):
            raise ValueError(f"starting-box width must be finite, got {self.x0_width}")

    def _draw_start(self, M: int, rng: np.random.Generator) -> np.ndarray:
        """Initial states: x0, or a uniform box of edge x0_width around it."""
        starts = np.broadcast_to(self.x0, (M, self.d)).copy()
        if self.x0_width > 0.0:
            starts += self.x0_width * (rng.random((M, self.d)) - 0.5)
        return starts

    def sample_paths(
        self, grid: TimeGrid, M: int, rng: np.random.Generator, last: int | None = None
    ) -> _PathBatch:
        raise NotImplementedError

    def draw_state(
        self, grid: TimeGrid, i: int, M: int, rng: np.random.Generator
    ) -> np.ndarray:
        """M draws of X_i for 1 <= i <= N, shape (M, d): path simulation to t_i."""
        return self.sample_paths(grid, M, rng, last=i).X[:, i, :]

    def malliavin_weights(self, grid: TimeGrid, i: int, batch: _PathBatch) -> np.ndarray:
        """Weights H^(i)_j, shape (M, N - i, q), entry j-i-1 holding H^(i)_j."""
        raise NotImplementedError


def _increment_weights(grid: TimeGrid, i: int, dW: np.ndarray) -> np.ndarray:
    """Brownian-increment weights H^(i)_j = (W_j - W_i) / (t_j - t_i)."""
    spans = grid.points[i + 1 :] - grid.points[i]  # (N - i,)
    return np.cumsum(dW[:, i:, :], axis=1) / spans[None, :, None]


@dataclass(frozen=True, eq=False)
class BrownianModel(MarkovModel):
    """Arithmetic Brownian motion X_t = x0 + drift * t + W_t (d = q)."""

    drift: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._validate_base()
        if self.drift.shape != (self.d,):
            raise ValueError(
                f"drift must have shape ({self.d},), got {self.drift.shape}"
            )

    def sample_paths(self, grid, M, rng, last=None):
        n = grid.N if last is None else last
        starts = self._draw_start(M, rng)
        dW = rng.standard_normal((M, n, self.d)) * np.sqrt(grid.steps[:n])[None, :, None]
        X = np.empty((M, n + 1, self.d))
        X[:, 0, :] = starts
        X[:, 1:, :] = (
            starts[:, None, :]
            + self.drift[None, None, :] * grid.points[1 : n + 1, None]
            + np.cumsum(dW, axis=1)
        )
        return _PathBatch(X=X, dW=dW)

    def draw_state(self, grid, i, M, rng):
        """Exact draw X_i = X_0 + drift * t_i + sqrt(t_i) Z."""
        t = grid.points[i]
        starts = self._draw_start(M, rng)
        return starts + self.drift * t + np.sqrt(t) * rng.standard_normal((M, self.d))

    def malliavin_weights(self, grid, i, batch):
        return _increment_weights(grid, i, batch.dW)


@dataclass(frozen=True, eq=False)
class GeometricBrownianModel(MarkovModel):
    """Componentwise geometric Brownian motion,
    X_t = x0 * exp((mu - sigma^2/2) t + sigma W_t), with Brownian weights."""

    mu: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._validate_base()
        for name in ("mu", "sigma"):
            if getattr(self, name).shape != (self.d,):
                raise ValueError(
                    f"{name} must have shape ({self.d},), got {getattr(self, name).shape}"
                )
        if np.any(self.sigma <= 0.0):
            raise ValueError("volatility must be positive componentwise")

    def sample_paths(self, grid, M, rng, last=None):
        n = grid.N if last is None else last
        starts = self._draw_start(M, rng)
        dW = rng.standard_normal((M, n, self.d)) * np.sqrt(grid.steps[:n])[None, :, None]
        W = np.cumsum(dW, axis=1)
        t = grid.points[1 : n + 1, None]
        X = np.empty((M, n + 1, self.d))
        X[:, 0, :] = starts
        X[:, 1:, :] = starts[:, None, :] * np.exp(
            (self.mu - 0.5 * self.sigma**2)[None, None, :] * t
            + self.sigma[None, None, :] * W
        )
        return _PathBatch(X=X, dW=dW)

    def draw_state(self, grid, i, M, rng):
        """Exact draw X_i = X_0 exp((mu - sigma^2/2) t_i + sigma sqrt(t_i) Z)."""
        t = grid.points[i]
        starts = self._draw_start(M, rng)
        return starts * np.exp(
            (self.mu - 0.5 * self.sigma**2) * t
            + self.sigma * np.sqrt(t) * rng.standard_normal((M, self.d))
        )

    def malliavin_weights(self, grid, i, batch):
        return _increment_weights(grid, i, batch.dW)


@dataclass(frozen=True, eq=False)
class EulerSdeModel(MarkovModel):
    """Euler scheme for dX = b(t, X) dt + sigma(t, X) dW with weights built
    from the discretized tangent process.

    The drift, diffusion, and their Jacobians act on row batches:
    b(t, x) -> (M, d); sigma(t, x) -> (M, d, q); db(t, x) -> (M, d, d);
    dsigma(t, x) -> (M, q, d, d) with entry [m, l, a, b] the derivative of
    column l of sigma, component a, in direction b.  Omitted Jacobians are
    treated as zero, which is exact for state-independent coefficients.
    """

    b: Callable | None
    sigma: Callable
    db: Callable | None
    dsigma: Callable | None

    def __post_init__(self) -> None:
        self._validate_base()

    def sample_paths(self, grid, M, rng, last=None):
        n = grid.N if last is None else last
        starts = self._draw_start(M, rng)
        dW = rng.standard_normal((M, n, self.q)) * np.sqrt(grid.steps[:n])[None, :, None]
        X = np.empty((M, n + 1, self.d))
        X[:, 0, :] = starts
        for k in range(n):
            xk = X[:, k, :]
            step = np.einsum("mdq,mq->md", self.sigma(grid.points[k], xk), dW[:, k, :])
            if self.b is not None:
                step = step + self.b(grid.points[k], xk) * grid.steps[k]
            X[:, k + 1, :] = xk + step
        return _PathBatch(X=X, dW=dW)

    def malliavin_weights(self, grid, i, batch):
        M = batch.X.shape[0]
        N = grid.N
        t = grid.points
        eye = np.broadcast_to(np.eye(self.d), (M, self.d, self.d))
        psi = eye.copy()  # tangent process started at index i
        sig_i = self.sigma(t[i], batch.X[:, i, :])  # (M, d, q)
        increments = np.empty((M, N - i, self.d))
        for k in range(i, N):
            xk = batch.X[:, k, :]
            sig_k = self.sigma(t[k], xk)
            try:
                inv_k = np.linalg.inv(sig_k)
            except np.linalg.LinAlgError:
                dets = np.abs(np.linalg.det(sig_k))
                m_bad = int(np.argmin(dets))
                raise NumericalError(
                    f"singular diffusion matrix at time index {k}, path {m_bad}"
                ) from None
            a_k = inv_k @ psi @ sig_i  # (M, d, d)
            increments[:, k - i, :] = np.einsum(
                "mad,ma->md", a_k, batch.dW[:, k, :]
            )
            if k + 1 < N:
                update = eye.copy()
                if self.db is not None:
                    update = update + self.db(t[k], xk) * grid.steps[k]
                if self.dsigma is not None:
                    update = update + np.einsum(
                        "mlab,ml->mab", self.dsigma(t[k], xk), batch.dW[:, k, :]
                    )
                psi = update @ psi
        spans = t[i + 1 :] - t[i]
        return np.cumsum(increments, axis=1) / spans[None, :, None]


def _as_vector(value, d: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,) and d > 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{name} must be a scalar or length-{d} vector, got shape {arr.shape}")
    return arr


def brownian_model(
    d: int = 1, drift=0.0, x0=0.0, x0_width: float = 0.0
) -> BrownianModel:
    """Arithmetic Brownian motion model with increment-ratio weights.

    Args:
        d: state dimension (the weight dimension q equals d).
        drift: constant drift, scalar or length-d.
        x0: starting point, scalar or length-d.
        x0_width: edge length of a uniform starting box centered at x0;
            zero means a deterministic start.
    """
    return BrownianModel(
        d=d,
        q=d,
        C_M=float(np.sqrt(d)),
        x0=_as_vector(x0, d, "x0"),
        x0_width=float(x0_width),
        drift=_as_vector(drift, d, "drift"),
    )


def gbm_model(
    mu=0.0, sigma=0.2, x0=1.0, d: int = 1, x0_width: float = 0.0
) -> GeometricBrownianModel:
    """Componentwise geometric Brownian motion with Brownian weights.

    Args:
        mu: drift rate, scalar or length-d.
        sigma: volatility, scalar or length-d, positive componentwise.
        x0: starting point, scalar or length-d.
        d: state dimension (q = d).
        x0_width: edge length of a uniform starting box centered at x0.
    """
    return GeometricBrownianModel(
        d=d,
        q=d,
        C_M=float(np.sqrt(d)),
        x0=_as_vector(x0, d, "x0"),
        x0_width=float(x0_width),
        mu=_as_vector(mu, d, "mu"),
        sigma=_as_vector(sigma, d, "sigma"),
    )


def euler_sde_model(
    b: Callable | None,
    sigma: Callable,
    x0,
    d: int = 1,
    db: Callable | None = None,
    dsigma: Callable | None = None,
    C_M: float | None = None,
    x0_width: float = 0.0,
) -> EulerSdeModel:
    """Euler scheme with tangent-process Malliavin weights.

    Args:
        b: drift b(t, x) -> (M, d), or None for zero drift.
        sigma: diffusion sigma(t, x) -> (M, d, d); must stay invertible
            along simulated paths (checked, failure names index and path).
        x0: starting point, scalar or length-d.
        d: state dimension (q = d is required for invertibility).
        db: Jacobian of b, (M, d, d); None means zero (state-independent b).
        dsigma: Jacobians of the diffusion columns, (M, q, d, d); None
            means zero (state-independent sigma).
        C_M: declared weight moment constant; defaults to sqrt(d), exact
            for unit diffusion and user-declared otherwise.
        x0_width: edge length of a uniform starting box centered at x0.
    """
    return EulerSdeModel(
        d=d,
        q=d,
        C_M=float(np.sqrt(d)) if C_M is None else float(C_M),
        x0=_as_vector(x0, d, "x0"),
        x0_width=float(x0_width),
        b=b,
        sigma=sigma,
        db=db,
        dsigma=dsigma,
    )


@dataclass(frozen=True, eq=False)
class SimulationCloud:
    """Independent simulation rows for the regressions at one time index.

    X holds the path tail (X_i..X_N) per row, shape (M, N-i+1, d); H holds
    the weights (H^(i)_{i+1}..H^(i)_N) per row, shape (M, N-i, q).
    """

    i: int
    X: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.X.shape[0]

    def x_at(self, k: int) -> np.ndarray:
        """States X_k, shape (M, d), for any absolute index k >= i."""
        if k < self.i:
            raise ValueError(f"cloud at index {self.i} has no states before it, got {k}")
        return self.X[:, k - self.i, :]

    def h_at(self, j: int) -> np.ndarray:
        """Weights H^(i)_j, shape (M, q), for any absolute index j > i."""
        if j <= self.i:
            raise ValueError(f"weights start at index {self.i + 1}, got {j}")
        return self.H[:, j - self.i - 1, :]


def sample_cloud(
    model: MarkovModel, grid: TimeGrid, i: int, M_i: int, seed: int
) -> SimulationCloud:
    """One simulation cloud: M_i i.i.d. rows of (X_i..X_N, H^(i)_{i+1..N}).

    Clouds at distinct indices consume disjoint random streams; the same
    (seed, i, M_i) reproduces the cloud bit for bit.
    """
    if not 0 <= i < grid.N:
        raise ValueError(f"cloud index must lie in 0..{grid.N - 1}, got {i}")
    if M_i < 1:
        raise ValueError(f"cloud size must be >= 1, got {M_i}")
    rng = cloud_rng(seed, i, STREAM_CLOUD)
    batch = model.sample_paths(grid, M_i, rng)
    weights = model.malliavin_weights(grid, i, batch)
    states = batch.X[:, i:, :]
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(weights))):
        raise NumericalError(
            f"non-finite values in the simulation cloud at index {i}"
        )
    return SimulationCloud(i=i, X=states, H=weights)


def sample_marginal(
    model: MarkovModel, grid: TimeGrid, i: int, M: int, seed: int
) -> np.ndarray:
    """M fresh i.i.d. draws of X_i, shape (M, d), from their own stream.

    X_0 comes from the start law; X_i for i >= 1 from `model.draw_state`,
    an exact one-step draw for Brownian and geometric Brownian models and
    the end of an Euler path simulated to t_i otherwise.
    """
    if not 0 <= i <= grid.N:
        raise ValueError(f"marginal index must lie in 0..{grid.N}, got {i}")
    if M < 1:
        raise ValueError(f"draw count must be >= 1, got {M}")
    rng = cloud_rng(seed, i, STREAM_FRESH)
    if i == 0:
        return model._draw_start(M, rng)
    return model.draw_state(grid, i, M, rng)
