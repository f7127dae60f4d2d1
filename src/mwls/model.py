"""Markov-chain path samplers, Malliavin weights, and simulation clouds.

A model samples paths (X_{t_i})_{i=0..N} along a time grid, one step at a
time from given states and standard normals (a model holds no generator),
together with weights H^(i)_j for j > i satisfying the moment conditions

    E[H^(i)_j | F_i] = 0,   (E[|H^(i)_j|^2 | F_i])^(1/2) <= C_M / sqrt(t_j - t_i).

A simulation cloud at index i holds M_i independent rows of
(X_i..X_N, H^(i)_{i+1..N}) used for the two regressions at that index.  Its
random input is drawn apart from the arithmetic that builds the paths and
weights from it.  That input is only the cloud's tail: the states X_i,
drawn like the fresh samples of X_i (an exact step for the Brownian model,
the end of a simulated path otherwise), then N - i q-vectors of normals per
row.  At i = 0, X_0 comes from the start law, so index-0 clouds are the
whole paths from t_0.  The input is a stream: X_i, then the normals in
blocks of consecutive rows, each drawn into a buffer of its own only when
the stream is advanced to it.  The paths and weights are built block by
block.  A block's normals become its increments in place and then, for the
Brownian model, its weights, so a block holds one buffer of random input
and one of paths, and a consumer holds no more random input than the
blocks it has drawn and not yet dropped; one block of all rows gives the
whole cloud, and any blocks give its bits.

The per-row passes of the benchmarked Brownian path run along the long
row axis: normals and paths are stored time-major, and the drift and the
start box are applied one state coordinate at a time.  A numpy pass whose
innermost loop runs over d or q elements per row costs several times one
over the M rows of a column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError, _ArgumentError
from .grid import TimeGrid, _as_count, _count_at_least

__all__ = [
    "MarkovModel",
    "BrownianModel",
    "EulerSdeModel",
    "SimulationCloud",
    "brownian_model",
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
    """Trajectory tails X_i..X_{i+n} and their driving Brownian increments
    dW_i..dW_{i+n-1}.

    X is the (M, n + 1, d) transposed view of a time-major buffer of its
    own, so each time slice X[:, k, :] is one contiguous (M, d) block; dW
    is the normals it was built from, scaled in place (see `sample_paths`).
    """

    X: np.ndarray  # (M, n + 1, d)
    dW: np.ndarray  # (M, n, q)
    row0: int = 0  # position of the first row in its whole cloud, for messages


# Rows per chunk of a time-major normals draw: each chunk is drawn into one
# reused row-major buffer, small enough to stay in cache, and copied out.
_DRAW_ROWS = 2048


def _time_major_normals(
    rng: np.random.Generator, M: int, n: int, q: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The (M, n, q) standard normals of one `rng.standard_normal((M, n, q))`
    call, bit for bit, stored time-major: the (M, n, q) view of an (n, M, q)
    buffer, out if given, so each time slice [:, k] is one contiguous (M, q)
    block.

    The rows are drawn in consecutive chunks of `_DRAW_ROWS`, which consumes
    the stream as the one call does.
    """
    normals = np.empty((n, M, q)) if out is None else out
    chunk = np.empty((min(M, _DRAW_ROWS), n, q))
    for row0 in range(0, M, _DRAW_ROWS):
        rows = chunk[: min(_DRAW_ROWS, M - row0)]
        rng.standard_normal(out=rows)
        normals[:, row0 : row0 + rows.shape[0]] = rows.transpose(1, 0, 2)
    return normals.transpose(1, 0, 2)


def _by_column(
    ufunc: np.ufunc, x: np.ndarray, vector: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out = ufunc(x, vector) for (M, d) x and a length-d vector, one column
    at a time: the broadcast's bits with the M rows in each inner loop."""
    for a, value in enumerate(vector):
        ufunc(x[:, a], value, out=out[:, a])
    return out


def _check_vector(subject: str, value: np.ndarray, d: int) -> None:
    """Reject a model parameter that is not a finite vector of length d."""
    if value.shape != (d,):
        raise ValueError(f"{subject} must have shape ({d},), got {value.shape}")
    bad = value[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"{subject} must be finite, got {bad[0]}")


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Base path/weight sampler.

    A model is its one-step map `step` (X_{k+1} from X_k and the Brownian
    increment dW_k) and its `malliavin_weights` (H^(i)_j for all j > i from
    a batch that starts at t_i and runs to t_N), with as many Brownian
    factors as states (q = d).  `sample_paths` runs the step map from given
    states X_i on given standard normals.  `draw_state` gives draws of a
    single X_i: by default the end of a path simulated from the start law,
    overridden by an exact one-step draw where the transition law is known.
    Cloud rows and fresh samples at i >= 1 both start from its draws.
    """

    d: int
    C_M: float
    x0: np.ndarray = field(repr=False)
    x0_width: float

    @property
    def q(self) -> int:
        """The weight dimension, which equals the state dimension d."""
        return self.d

    def _validate_base(self) -> None:
        if self.d < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.d}")
        if not np.isfinite(self.C_M):
            raise ValueError(f"weight moment constant must be finite, got {self.C_M}")
        if self.C_M <= 0.0:
            raise ValueError(f"weight moment constant must be positive, got {self.C_M}")
        _check_vector("starting point", self.x0, self.d)
        if self.x0_width < 0.0:
            raise _ArgumentError(
                "x0_width", f"starting-box width must be >= 0, got {self.x0_width}"
            )
        if not np.isfinite(self.x0_width):
            raise _ArgumentError(
                "x0_width", f"starting-box width must be finite, got {self.x0_width}"
            )

    def _draw_start(self, M: int, rng: np.random.Generator) -> np.ndarray:
        """Initial states: x0, or a uniform box of edge x0_width around it."""
        if self.x0_width > 0.0:
            offsets = rng.random((M, self.d))
            offsets -= 0.5
            offsets *= self.x0_width
            return _by_column(np.add, offsets, self.x0, offsets)
        return np.broadcast_to(self.x0, (M, self.d)).copy()

    def step(
        self, grid: TimeGrid, k: int, x_k: np.ndarray, dW_k: np.ndarray, out: np.ndarray
    ) -> None:
        """Write X_{k+1}, shape (M, d), into out from the (M, d) states X_k
        and the (M, q) Brownian increments dW_k over [t_k, t_{k+1}]."""
        raise NotImplementedError

    def sample_paths(
        self, grid: TimeGrid, i: int, x_i: np.ndarray, normals: np.ndarray
    ) -> _PathBatch:
        """Paths from the (M, d) states X_i driven by the (M, n, q) standard
        normals: X_i..X_{i+n}, shape (M, n + 1, d), stored time-major, and
        dW_i..dW_{i+n-1}, dW_k = sqrt(t_{k+1} - t_k) normals[:, k - i],
        shape (M, n, q).

        The increments are built in place in the normals, a float64 array,
        which they consume: dW is the normals array itself, in its own
        layout, and the Brownian weights are built on in the same buffer.  X
        alone is allocated.
        """
        if not (
            x_i.ndim == 2 and normals.ndim == 3 and x_i.shape[1] == self.d
            and normals.shape[::2] == (x_i.shape[0], self.q)
        ):
            raise ValueError(
                f"paths take (M, {self.d}) states and (M, n, {self.q}) normals, "
                f"got {x_i.shape} and {normals.shape}"
            )
        if normals.dtype != np.float64:
            raise ValueError(f"paths take float64 normals, got {normals.dtype}")
        M, n = normals.shape[:2]
        if not 0 <= i <= i + n <= grid.N:
            raise ValueError(f"{n} steps from index {i} leave the grid's indices 0..{grid.N}")
        # In place, so a block holds its normals and X and no third buffer:
        # with paths and increments in a (2n + 1, M, d) buffer beside the
        # normals, b3-deep peaked 6% higher in RSS and took 6.2-8.3k minor
        # faults a solve against 4.0-7.3k (seed 7).  Through the time-major
        # view, so each pass runs along the rows of one time slice.
        dW = normals.transpose(1, 0, 2)
        np.multiply(dW, np.sqrt(grid.steps[i : i + n])[:, None, None], out=dW)
        X = np.empty((n + 1, M, self.d))
        X[0] = x_i
        for k in range(n):
            self.step(grid, i + k, X[k], dW[k], X[k + 1])
        return _PathBatch(X=X.transpose(1, 0, 2), dW=normals)

    def draw_state(
        self, grid: TimeGrid, i: int, M: int, rng: np.random.Generator
    ) -> np.ndarray:
        """M draws of X_i for 1 <= i <= N, shape (M, d): the starts, then
        (M, i, q) normals from rng, and path simulation to t_i."""
        starts = self._draw_start(M, rng)
        return _path_end(self, grid, i, starts, _time_major_normals(rng, M, i, self.q))

    def malliavin_weights(self, grid: TimeGrid, i: int, batch: _PathBatch) -> np.ndarray:
        """Weights H^(i)_j, shape (M, N - i, q), entry j-i-1 holding H^(i)_j,
        from the batch `sample_paths(grid, i, ...)`, which must run to t_N."""
        raise NotImplementedError


def _path_end(
    model: MarkovModel, grid: TimeGrid, i: int, starts: np.ndarray, normals: np.ndarray
) -> np.ndarray:
    """X_i, shape (M, d), of the paths from the (M, d) starts X_0 driven by
    the (M, i, q) normals, by the model's step map; only the running state
    is kept, not the path."""
    x = starts
    for k in range(i):
        out = np.empty_like(x)
        model.step(grid, k, x, normals[:, k] * np.sqrt(grid.steps[k]), out)
        x = out
    return x


def _check_tail(grid: TimeGrid, i: int, batch: _PathBatch) -> None:
    """Raise ValueError unless the batch from index i runs to t_N."""
    steps = batch.dW.shape[1]
    if i + steps != grid.N:
        raise ValueError(
            f"weights from index {i} need a batch that runs to t_N: "
            f"it has {steps} steps, N = {grid.N} needs {grid.N - i}"
        )


def _cumulative_weights(grid: TimeGrid, i: int, tail: np.ndarray) -> np.ndarray:
    """H^(i)_j = (sum of tail[0..j-i-1]) / (t_j - t_i), built in place in the
    time-major (N - i, M, q) buffer tail and returned as an (M, N - i, q) view.
    """
    spans = grid.points[i + 1 :] - grid.points[i]  # (N - i,)
    # ascending in-place adds: np.cumsum(axis=0)'s bits, in whole-slice passes
    for k in range(1, tail.shape[0]):
        tail[k] += tail[k - 1]
    tail /= spans[:, None, None]
    return tail.transpose(1, 0, 2)


@dataclass(frozen=True, eq=False)
class BrownianModel(MarkovModel):
    """Arithmetic Brownian motion X_t = x0 + drift * t + W_t (d = q)."""

    drift: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._validate_base()
        _check_vector("drift", self.drift, self.d)

    def step(self, grid, k, x_k, dW_k, out):
        """X_{k+1} = X_k + (dW_k + drift * (t_{k+1} - t_k)): the Euler step
        with unit diffusion and drift b = drift, bit for bit."""
        _by_column(np.add, dW_k, self.drift * grid.steps[k], out)
        out += x_k

    # Each model class holds sample_paths and malliavin_weights in its own
    # body, where the benchmark's tracer wraps them.
    sample_paths = MarkovModel.sample_paths

    def draw_state(self, grid, i, M, rng):
        """Exact draw X_i = X_0 + drift * t_i + sqrt(t_i) Z."""
        t = grid.points[i]
        starts = self._draw_start(M, rng)
        _by_column(np.add, starts, self.drift * t, starts)
        starts += np.sqrt(t) * rng.standard_normal((M, self.d))
        return starts

    def malliavin_weights(self, grid, i, batch):
        """Brownian-increment weights H^(i)_j = (W_j - W_i) / (t_j - t_i),
        built in the batch's increment buffer, which they consume."""
        _check_tail(grid, i, batch)
        return _cumulative_weights(grid, i, batch.dW.transpose(1, 0, 2))


def _callback_array(name: str, k: int, values, shape: tuple) -> np.ndarray:
    """The values that the model callback name returned at time index k,
    checked against its documented shape; a scalar broadcasts to it."""
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return values
    if values.ndim == 0:
        return np.broadcast_to(values, shape)
    raise ValueError(f"{name} returned shape {values.shape} at time index {k}, expected {shape}")


@dataclass(frozen=True, eq=False)
class EulerSdeModel(MarkovModel):
    """Euler scheme for dX = b(t, X) dt + sigma(t, X) dW with weights built
    from the discretized tangent process.

    The drift, diffusion, and their Jacobians act on row batches:
    b(t, x) -> (M, d); sigma(t, x) -> (M, d, q); db(t, x) -> (M, d, d);
    dsigma(t, x) -> (M, q, d, d) with entry [m, l, a, b] the derivative of
    column l of sigma, component a, in direction b.  A result of another
    shape is a ValueError naming the callback and the time index; a scalar
    broadcasts.  Omitted Jacobians are treated as zero, which is exact for
    state-independent coefficients.
    """

    b: Callable | None
    sigma: Callable
    db: Callable | None
    dsigma: Callable | None

    def __post_init__(self) -> None:
        self._validate_base()

    def step(self, grid, k, x_k, dW_k, out):
        """X_{k+1} = X_k + sigma(t_k, X_k) dW_k + b(t_k, X_k) (t_{k+1} - t_k)."""
        t = grid.points[k]
        M, d = x_k.shape
        sigma = _callback_array("sigma", k, self.sigma(t, x_k), (M, d, self.q))
        step = np.einsum("mdq,mq->md", sigma, dW_k)
        if self.b is not None:
            step = step + _callback_array("b", k, self.b(t, x_k), (M, d)) * grid.steps[k]
        np.add(x_k, step, out=out)

    sample_paths = MarkovModel.sample_paths

    def malliavin_weights(self, grid, i, batch):
        _check_tail(grid, i, batch)
        M = batch.X.shape[0]
        N = grid.N
        t = grid.points
        eye = np.broadcast_to(np.eye(self.d), (M, self.d, self.d))
        psi = eye.copy()  # tangent process started at index i
        X, dW = batch.X, batch.dW
        d, q = self.d, self.q
        increments = np.empty((N - i, M, self.d))
        for k in range(i, N):
            xk = X[:, k - i, :]
            sig_k = _callback_array("sigma", k, self.sigma(t[k], xk), (M, d, q))
            if k == i:
                sig_i = sig_k
            try:
                inv_k = np.linalg.inv(sig_k)
            except np.linalg.LinAlgError:
                dets = np.abs(np.linalg.det(sig_k))
                m_bad = int(np.argmin(dets))
                raise NumericalError(
                    f"singular diffusion matrix at time index {k}, "
                    f"path {batch.row0 + m_bad}"
                ) from None
            a_k = inv_k @ psi @ sig_i  # (M, d, d)
            increments[k - i] = np.einsum(
                "mad,ma->md", a_k, dW[:, k - i, :]
            )
            if k + 1 < N:
                update = eye.copy()
                if self.db is not None:
                    db = _callback_array("db", k, self.db(t[k], xk), (M, d, d))
                    update = update + db * grid.steps[k]
                if self.dsigma is not None:
                    dsigma = _callback_array("dsigma", k, self.dsigma(t[k], xk), (M, q, d, d))
                    update = update + np.einsum("mlab,ml->mab", dsigma, dW[:, k - i, :])
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
    d = _count_at_least(d, "state dimension", 1)
    return BrownianModel(
        d=d,
        C_M=float(np.sqrt(d)),
        x0=_as_vector(x0, d, "x0"),
        x0_width=float(x0_width),
        drift=_as_vector(drift, d, "drift"),
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
    d = _count_at_least(d, "state dimension", 1)
    return EulerSdeModel(
        d=d,
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


def _draw_states(
    model: MarkovModel, grid: TimeGrid, i: int, M: int, rng: np.random.Generator
) -> np.ndarray:
    """M draws of X_i, shape (M, d), from rng: X_0 from the start law and
    X_i for i >= 1 by `model.draw_state`.  Clouds and fresh samples draw
    their states here."""
    if i == 0:
        return model._draw_start(M, rng)
    return model.draw_state(grid, i, M, rng)


def _cloud_draws(
    model: MarkovModel, grid: TimeGrid, i: int, M_i: int, seed: int, rows: int
) -> Iterator[np.ndarray]:
    """The random input of the index-i cloud, drawn from the (seed, i) stream
    as the generator is advanced: first the (M_i, d) states X_i (see
    `_draw_states`), then the standard normals that drive each row's tail
    from t_i to t_N, one row block at a time.  Block b holds the
    (up to rows, N - i, q) normals of rows b * rows onward, stored time-major
    (see `_time_major_normals`); joined, the blocks are one (M_i, N - i, q)
    draw on the stream after X_i.  So the stream yields 1 + ceil(M_i / rows)
    arrays, and a consumer that stops early has drawn no more than it took.

    Row r of X_i and of the joined blocks belongs to row r of the cloud.
    Each block is drawn into a buffer of its own, which the generator does
    not keep, so it is freed once its consumer drops it (see
    `_cloud_block`).  i, M_i, seed and rows are ints, checked by the caller.
    """
    rng = cloud_rng(seed, i, STREAM_CLOUD)
    yield _draw_states(model, grid, i, M_i, rng)
    n = grid.N - i
    for row0 in range(0, M_i, rows):
        m = min(rows, M_i - row0)
        # A block's tail fills the first N - i time slices of a buffer sized
        # for whole paths, so the blocks of every index of one cloud size ask
        # the allocator for the same size and get a freed one back.  Buffers
        # that grow as the solve steps back in time kept more of the heap in
        # use: with whole-index buffers, b3-deep's peak RSS rose by 7%.  The
        # solver cuts a cloud into blocks of equal size, so a last block is
        # at most a row per block shorter and gets a buffer of its own rows.
        yield _time_major_normals(rng, m, n, model.q, np.empty((grid.N, m, model.q))[:n])


def _cloud_block(
    model: MarkovModel,
    grid: TimeGrid,
    i: int,
    x_rows: np.ndarray,
    normals: np.ndarray,
    row0: int,
) -> SimulationCloud:
    """One block of rows of the index-i cloud, the rows from row0 on: their
    tails from the (m, d) states x_rows on their (m, N - i, q) normals, a
    block of `_cloud_draws`, with their weights.  Built block by block, the
    blocks are the whole cloud bit for bit.

    The normals are consumed: `sample_paths` scales them into the paths'
    increments in place.  The Brownian weights are built on in the same
    buffer, which so lives on as the block's H and is freed with the block;
    a model whose weights have a buffer of their own frees the normals on
    return.  Then comes the finiteness check.  A numerical error names its
    row in the whole cloud.
    """
    batch = model.sample_paths(grid, i, x_rows, normals)
    weights = model.malliavin_weights(grid, i, replace(batch, row0=row0))
    if not (np.isfinite(batch.X).all() and np.isfinite(weights).all()):
        finite = np.isfinite(batch.X).all(axis=(1, 2)) & np.isfinite(weights).all(axis=(1, 2))
        raise NumericalError(
            f"non-finite values in the simulation cloud at index {i}, "
            f"path {row0 + int(np.argmin(finite))}"
        )
    return SimulationCloud(i=i, X=batch.X, H=weights)


def sample_cloud(
    model: MarkovModel, grid: TimeGrid, i: int, M_i: int, seed: int
) -> SimulationCloud:
    """One simulation cloud: M_i i.i.d. rows of (X_i..X_N, H^(i)_{i+1..N}).

    Each row is a draw of X_i and the tail from it on N - i q-vectors of
    normals, all from the (seed, i) stream (see `_cloud_draws`); only the
    tail from t_i is simulated and stored, time-major (see
    `SimulationCloud`).  Clouds at distinct indices consume disjoint random
    streams; the same (seed, i, M_i) reproduces the cloud bit for bit.  It
    is the one-block case of the solver's blocked draw: its normals are one
    block of M_i rows.  i, M_i and seed must be integers (an integral float
    will do) with 0 <= i < N, M_i >= 1 and seed >= 0.
    """
    i = _as_count(i, f"cloud index {i!r}")
    if not 0 <= i < grid.N:
        raise ValueError(f"cloud index must lie in 0..{grid.N - 1}, got {i}")
    M_i = _count_at_least(M_i, "cloud size", 1)
    seed = _count_at_least(seed, "seed", 0)
    draws = _cloud_draws(model, grid, i, M_i, seed, M_i)
    return _cloud_block(model, grid, i, next(draws), next(draws), 0)


def sample_marginal(
    model: MarkovModel, grid: TimeGrid, i: int, M: int, seed: int
) -> np.ndarray:
    """M fresh i.i.d. draws of X_i, shape (M, d), from their own stream.

    X_0 comes from the start law; X_i for i >= 1 from `model.draw_state`,
    an exact one-step draw for the Brownian model and the end of an Euler
    path simulated to t_i otherwise.  i, M and seed must be integers (an
    integral float will do) with 0 <= i <= N, M >= 1 and seed >= 0.
    """
    i = _as_count(i, f"marginal index {i!r}")
    if not 0 <= i <= grid.N:
        raise ValueError(f"marginal index must lie in 0..{grid.N}, got {i}")
    M = _count_at_least(M, "draw count", 1)
    rng = cloud_rng(_count_at_least(seed, "seed", 0), i, STREAM_FRESH)
    return _draw_states(model, grid, i, M, rng)
