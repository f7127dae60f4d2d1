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


# Rows of normals drawn at a time by the Brownian and geometric Brownian
# samplers.  A block's prefix steps are summed and dropped, so the draw
# buffer stays this many rows whatever the cloud size.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class _PathBatch:
    """Trajectory tails X_first..X_last and their driving Brownian increments
    dW_first..dW_{last-1}.

    Both arrays are (M, n_times, .) transposed views of time-major buffers,
    so each time slice X[:, k, :] is one contiguous (M, d) block.
    """

    X: np.ndarray  # (M, last - first + 1, d)
    dW: np.ndarray  # (M, last - first, q)
    first: int = 0


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Base path/weight sampler.

    Subclasses implement `sample_paths` (the stretch X_first..X_last of
    trajectories on the grid) and `malliavin_weights` (H^(i)_j for all j > i
    from a batch that runs to t_N), with as many Brownian factors as states
    (q = d).  `draw_state` gives draws of a single X_i: by default the end
    of a simulated path, overridden by an exact one-step draw where the
    transition law is known.
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
        self,
        grid: TimeGrid,
        M: int,
        rng: np.random.Generator,
        last: int | None = None,
        first: int = 0,
    ) -> _PathBatch:
        """M paths from t_0 to t_last (default t_N), keeping X_first..X_last.

        Every start and increment of the M paths is drawn from rng, in the
        same order whatever first is, so the kept stretch is bit for bit
        the same as in a batch with first = 0.  Only X_first..X_last,
        shape (M, last - first + 1, d), and dW_first..dW_{last-1},
        shape (M, last - first, q), are stored, time-major.
        """
        raise NotImplementedError

    def draw_state(
        self, grid: TimeGrid, i: int, M: int, rng: np.random.Generator
    ) -> np.ndarray:
        """M draws of X_i for 1 <= i <= N, shape (M, d): path simulation to t_i."""
        return self.sample_paths(grid, M, rng, last=i, first=i).X[:, 0, :]

    def malliavin_weights(self, grid: TimeGrid, i: int, batch: _PathBatch) -> np.ndarray:
        """Weights H^(i)_j, shape (M, N - i, q), entry j-i-1 holding H^(i)_j,
        for i >= batch.first; the batch must run to t_N."""
        raise NotImplementedError


def _tail_increments(
    grid: TimeGrid, M: int, d: int, rng: np.random.Generator, first: int, last: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Increments dW_first..dW_{last-1}, time-major (last - first, M, d), and
    W_first = dW_0 + .. + dW_{first-1} per row, (M, d) (None when first = 0).

    The M x last x d normals are drawn block by block of consecutive rows,
    which consumes the stream exactly as one draw of them all.  Each block's
    prefix steps are summed in cumsum's sequential order and then dropped.
    """
    root = np.sqrt(grid.steps[:last])[:, None]
    tail = np.empty((last - first, M, d))
    prefix = np.empty((M, d)) if first else None
    for start in range(0, M, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, M)
        block = rng.standard_normal((stop - start, last, d))
        block *= root
        if first:
            running = prefix[start:stop]
            running[...] = block[:, 0]
            for k in range(1, first):
                running += block[:, k]
        tail[:, start:stop] = block[:, first:].transpose(1, 0, 2)
    return tail, prefix


def _brownian_paths(model, grid, M, rng, last, first, state) -> _PathBatch:
    """Batch of a model driven by the Brownian path itself: X_0 is the start
    draw and state(X_0, W_k, t_k, out) writes X_k, k >= 1, into out.

    W_k runs from W_first through the stored increments, updated in place
    in cumsum's sequential order.
    """
    last = grid.N if last is None else last
    starts = model._draw_start(M, rng)
    tail, W = _tail_increments(grid, M, model.d, rng, first, last)
    X = np.empty((last - first + 1, M, model.d))
    for k in range(first, last + 1):
        if k > first:
            step = tail[k - first - 1]
            if W is None:
                W = step.copy()
            else:
                W += step
        if k == 0:
            X[0] = starts
        else:
            state(starts, W, grid.points[k], X[k - first])
    return _PathBatch(X=X.transpose(1, 0, 2), dW=tail.transpose(1, 0, 2), first=first)


def _cumulative_weights(grid: TimeGrid, i: int, tail: np.ndarray) -> np.ndarray:
    """H^(i)_j = (sum of tail[0..j-i-1]) / (t_j - t_i), built in place in the
    time-major (N - i, M, q) buffer tail and returned as an (M, N - i, q) view.
    """
    spans = grid.points[i + 1 :] - grid.points[i]  # (N - i,)
    np.cumsum(tail, axis=0, out=tail)
    tail /= spans[:, None, None]
    return tail.transpose(1, 0, 2)


def _increment_weights(grid: TimeGrid, i: int, batch: _PathBatch) -> np.ndarray:
    """Brownian-increment weights H^(i)_j = (W_j - W_i) / (t_j - t_i), built
    in the batch's increment buffer, which they consume."""
    return _cumulative_weights(
        grid, i, batch.dW[:, i - batch.first :, :].transpose(1, 0, 2)
    )


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

    def sample_paths(self, grid, M, rng, last=None, first=0):
        def state(starts, W, t, out):  # (X_0 + drift * t) + W_t
            np.add(starts, self.drift * t, out=out)
            out += W

        return _brownian_paths(self, grid, M, rng, last, first, state)

    def draw_state(self, grid, i, M, rng):
        """Exact draw X_i = X_0 + drift * t_i + sqrt(t_i) Z."""
        t = grid.points[i]
        starts = self._draw_start(M, rng)
        return starts + self.drift * t + np.sqrt(t) * rng.standard_normal((M, self.d))

    def malliavin_weights(self, grid, i, batch):
        return _increment_weights(grid, i, batch)


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

    def sample_paths(self, grid, M, rng, last=None, first=0):
        rate = self.mu - 0.5 * self.sigma**2

        def state(starts, W, t, out):  # X_0 * exp(rate * t + sigma * W_t)
            np.multiply(self.sigma, W, out=out)
            out += rate * t
            np.exp(out, out=out)
            out *= starts

        return _brownian_paths(self, grid, M, rng, last, first, state)

    def draw_state(self, grid, i, M, rng):
        """Exact draw X_i = X_0 exp((mu - sigma^2/2) t_i + sigma sqrt(t_i) Z)."""
        t = grid.points[i]
        starts = self._draw_start(M, rng)
        return starts * np.exp(
            (self.mu - 0.5 * self.sigma**2) * t
            + self.sigma * np.sqrt(t) * rng.standard_normal((M, self.d))
        )

    def malliavin_weights(self, grid, i, batch):
        return _increment_weights(grid, i, batch)


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

    def sample_paths(self, grid, M, rng, last=None, first=0):
        last = grid.N if last is None else last
        starts = self._draw_start(M, rng)
        dW = rng.standard_normal((M, last, self.q)) * np.sqrt(grid.steps[:last])[None, :, None]
        X = np.empty((last - first + 1, M, self.d))
        xk = starts
        for k in range(last + 1):
            if k >= first:
                X[k - first] = xk
            if k == last:
                break
            step = np.einsum("mdq,mq->md", self.sigma(grid.points[k], xk), dW[:, k, :])
            if self.b is not None:
                step = step + self.b(grid.points[k], xk) * grid.steps[k]
            xk = xk + step
        tail = np.ascontiguousarray(dW[:, first:, :].transpose(1, 0, 2))
        return _PathBatch(X=X.transpose(1, 0, 2), dW=tail.transpose(1, 0, 2), first=first)

    def malliavin_weights(self, grid, i, batch):
        M = batch.X.shape[0]
        N = grid.N
        t = grid.points
        eye = np.broadcast_to(np.eye(self.d), (M, self.d, self.d))
        psi = eye.copy()  # tangent process started at index i
        X, dW = batch.X[:, i - batch.first :], batch.dW[:, i - batch.first :]
        sig_i = self.sigma(t[i], X[:, 0, :])  # (M, d, q)
        increments = np.empty((N - i, M, self.d))
        for k in range(i, N):
            xk = X[:, k - i, :]
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
            increments[k - i] = np.einsum(
                "mad,ma->md", a_k, dW[:, k - i, :]
            )
            if k + 1 < N:
                update = eye.copy()
                if self.db is not None:
                    update = update + self.db(t[k], xk) * grid.steps[k]
                if self.dsigma is not None:
                    update = update + np.einsum(
                        "mlab,ml->mab", self.dsigma(t[k], xk), dW[:, k - i, :]
                    )
                psi = update @ psi
        return _cumulative_weights(grid, i, increments)


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
    the weights (H^(i)_{i+1}..H^(i)_N) per row, shape (M, N-i, q).  Only the
    tail is stored, time-major: both are transposed views of (n_times, M, .)
    buffers, so `x_at(k)` and `h_at(j)` are contiguous (M, .) blocks.
    """

    i: int
    X: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.X.shape[0]

    @property
    def N(self) -> int:
        """Last time index of the tail."""
        return self.i + self.X.shape[1] - 1

    def x_at(self, k: int) -> np.ndarray:
        """States X_k, shape (M, d), for any absolute index i <= k <= N."""
        if not self.i <= k <= self.N:
            raise ValueError(
                f"cloud at index {self.i} holds states at {self.i}..{self.N}, got {k}"
            )
        return self.X[:, k - self.i, :]

    def h_at(self, j: int) -> np.ndarray:
        """Weights H^(i)_j, shape (M, q), for any absolute index i < j <= N."""
        if not self.i < j <= self.N:
            raise ValueError(
                f"cloud at index {self.i} holds weights at {self.i + 1}..{self.N}, got {j}"
            )
        return self.H[:, j - self.i - 1, :]


def sample_cloud(
    model: MarkovModel, grid: TimeGrid, i: int, M_i: int, seed: int
) -> SimulationCloud:
    """One simulation cloud: M_i i.i.d. rows of (X_i..X_N, H^(i)_{i+1..N}).

    Each row is a whole path from t_0, drawn from the (seed, i) stream, but
    only its tail from t_i is stored, time-major (see `SimulationCloud`);
    the shapes are those of the tail.  Clouds at distinct indices consume
    disjoint random streams; the same (seed, i, M_i) reproduces the cloud
    bit for bit.
    """
    if not 0 <= i < grid.N:
        raise ValueError(f"cloud index must lie in 0..{grid.N - 1}, got {i}")
    if M_i < 1:
        raise ValueError(f"cloud size must be >= 1, got {M_i}")
    rng = cloud_rng(seed, i, STREAM_CLOUD)
    batch = model.sample_paths(grid, M_i, rng, first=i)
    weights = model.malliavin_weights(grid, i, batch)
    if not (np.all(np.isfinite(batch.X)) and np.all(np.isfinite(weights))):
        raise NumericalError(
            f"non-finite values in the simulation cloud at index {i}"
        )
    return SimulationCloud(i=i, X=batch.X, H=weights)


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
