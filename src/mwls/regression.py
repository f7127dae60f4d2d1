"""Local-polynomial basis spaces on hypercube partitions and empirical OLS.

The approximation space partitions [-R, R]^d into half-open cells of edge
length delta and carries all monomials of total degree <= n on each cell,
centered at the cell midpoint and scaled to unit cell coordinates.  Cells
decouple the least-squares problem: each one is solved independently on the
sample rows landing in it, with the minimal-norm solution on rank-deficient
cells and zero coefficients on empty ones.  A `Design` holds the cells and
monomial rows of every point, once for all fits and evaluations at them;
points must be d wide.  Cell -1 marks a point outside the support: fits
leave it out, and it reads zero coefficients, so it evaluates to +0.0.
Evaluation adds row c times coefficient c in ascending c, and clamps only
when the truncation level is below a bound on every value the
coefficients can give.  A design also eigendecomposes each cell's Gram
matrix once: well-conditioned cells are solved together by their normal
equations, the others by SVD least squares on their rows.  Those factors
can be handed to a later design of the same points and geometry, which
then does not factorize again.  Per-row passes run down one column at a
time, not across a row's d coordinates or out_dim components: a numpy
inner loop that short costs several times one over the M rows.  So the
rows are stored column by column, each column one contiguous block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import _ArgumentError
from .grid import _as_count

__all__ = [
    "Design",
    "LocalPolynomialBasis",
    "LocalPolynomialEstimator",
    "evaluate_basis",
    "ols_fit",
    "shared_designs",
    "truncate_estimator",
]


# A cell's normal equations are solved only when its Gram matrix G has
# lambda_min > _GRAM_RCOND * lambda_max; other cells use SVD least squares.
# Normal-equation coefficients move from the SVD ones by up to about
# 2e-16 * cond(G) (relative), so cond(G) <= 1e3 keeps that below 3e-13.
# Rows are monomials of unit cell coordinates: a well-filled cell has
# cond(G) <= ~200 up to degree 3, so only sparse or lopsided cells fall back.
_GRAM_RCOND = 1e-3


def _times_columns(values: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = values[:, None] * h for (M,) values and (M, q) h, one column at
    a time: the broadcast's bits with the M rows in each inner loop."""
    for a in range(h.shape[1]):
        np.multiply(values, h[:, a], out=out[:, a])
    return out


def _as_points(points, d: int) -> np.ndarray:
    """points as an (M, d) float array; a 1-D array holds M * d
    coordinates, point after point.  Any other shape is a ValueError: no
    reader of points takes a subset of a point's coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size % d == 0:
        pts = pts.reshape(-1, d)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points have shape {np.shape(points)}, not (M, {d}) for d = {d}")
    return pts


def _graded_powers(degree: int, d: int) -> np.ndarray:
    """Monomial multi-indices of total degree <= degree, graded order."""
    rows = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), total):
            p = [0] * d
            for axis in combo:
                p[axis] += 1
            rows.append(p)
    return np.array(rows, dtype=int)


@dataclass(frozen=True)
class LocalPolynomialBasis:
    """Piecewise-polynomial space: degree-n monomials per hypercube cell.

    Args:
        degree: maximal total degree n >= 0 of the per-cell polynomials.
        delta: cell edge length.
        radius: half-width R of the support [-R, R]^d.
        d: state dimension.
        out_dim: number of output components fitted jointly (1 for y, q for z).
    """

    degree: int
    delta: float
    radius: float
    d: int
    out_dim: int = 1
    cells_per_axis: int = field(init=False, compare=False)
    powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("degree", "d", "out_dim"):
            value = getattr(self, name)
            object.__setattr__(self, name, _as_count(value, f"{name} = {value!r}"))
        if self.degree < 0:
            raise _ArgumentError("degree", f"degree must be >= 0, got {self.degree}")
        if self.delta <= 0.0:
            raise _ArgumentError("delta", f"cell edge must be positive, got {self.delta}")
        if not math.isfinite(self.delta):
            raise _ArgumentError("delta", f"cell edge must be finite, got {self.delta}")
        if self.radius <= 0.0:
            raise _ArgumentError(
                "radius", f"support half-width must be positive, got {self.radius}"
            )
        if not math.isfinite(self.radius):
            raise _ArgumentError("radius", f"support half-width must be finite, got {self.radius}")
        if self.d < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.d}")
        if self.out_dim < 1:
            raise ValueError(f"output dimension must be >= 1, got {self.out_dim}")
        # ceil(2R/delta) with protection against float fuzz in the division
        per_axis = max(1, int(math.ceil(2.0 * self.radius / self.delta - 1e-12)))
        object.__setattr__(self, "cells_per_axis", per_axis)
        object.__setattr__(self, "powers", _graded_powers(self.degree, self.d))

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis**self.d

    @property
    def monomials(self) -> int:
        """Per-cell monomial count C(n + d, d)."""
        return self.powers.shape[0]

    @property
    def K(self) -> int:
        """Total dimension of the approximation space."""
        return self.n_cells * self.monomials

    @property
    def geometry(self) -> tuple:
        """(degree, delta, radius, d): what a design of points depends on."""
        return (self.degree, self.delta, self.radius, self.d)

    def design(self, points) -> Design:
        """Cells and scaled monomial rows of (M, d) points, computed once.

        A row is the monomials of u = (x - cell midpoint) / (delta/2); each
        power u**p is taken once per axis and gathered by the multi-indices.
        """
        pts = _as_points(points, self.d)
        m = pts.shape[0]
        # column c of the rows is columns[c], one contiguous block of M values
        columns = np.empty((self.monomials, m))
        columns[0] = 1.0
        # u ** 0 = 1 and u ** 1 = u exactly: at degree 1 the columns after
        # the first are u_a themselves, so u is computed in place there
        u = columns[1:] if self.degree == 1 else np.empty((self.d, m))
        # per axis, not a reduction along the short row axis; NaN stays inside
        outside = np.abs(pts[:, 0]) > self.radius
        for axis in range(1, self.d):
            outside |= np.abs(pts[:, axis]) > self.radius
        flat = None
        for axis in range(self.d):
            x, ua = pts[:, axis], u[axis]
            # k = floor((x + R) / delta), clipped to the cells before the
            # cast: +-inf goes to an edge cell and NaN to cell 0, with no cast
            # warning.  The two divisions may overflow only for outside points,
            # and that is exact: an inside quotient is at most 2R/delta,
            # finite for any basis that can be built; an overflowed quotient
            # is clipped to an edge cell like +-inf; outside rows get u = 0.
            np.add(x, self.radius, out=ua)
            with np.errstate(over="ignore"):
                ua /= self.delta
            np.fmax(np.floor(ua, out=ua), 0.0, out=ua)
            k = np.fmin(ua, self.cells_per_axis - 1, out=ua).astype(int)
            flat = k if flat is None else flat * self.cells_per_axis + k
            # u = (x - (-R + (k + 0.5) delta)) / (delta / 2), on the float k
            ua += 0.5
            ua *= self.delta
            ua += -self.radius
            np.subtract(x, ua, out=ua)
            with np.errstate(over="ignore"):
                ua /= 0.5 * self.delta
        # an outside point gets cell -1 and u = 0: a finite row no fit reads
        outside = np.flatnonzero(outside)  # indexing u by a mask is ~8x slower
        for axis in range(self.d):
            u[axis][outside] = 0.0
        flat[outside] = -1
        if self.degree >= 2:
            # table[m, a, p] = u[m, a] ** p, by pow along the exponent axis of
            # a C-ordered (M, d) copy of u: pow run down a contiguous column
            # of u, or repeated products, would move the last bit of u ** p
            table = np.ascontiguousarray(u.T)[:, :, None] ** np.arange(self.degree + 1)
            table = table.reshape(m, self.d * (self.degree + 1))
            # row factor of axis a is column a*(n+1) + p_a; multiplied left
            # to right like np.prod(u ** powers, axis=-1)
            picks_of = np.arange(self.d) * (self.degree + 1) + self.powers
            for column, picks in zip(columns, picks_of):
                np.copyto(column, table[:, picks[0]])
                for pick in picks[1:]:
                    column *= table[:, pick]
        return Design(self.geometry, flat, columns.T)

    def _check_design(self, design: Design, m: int) -> None:
        """Raise ValueError unless the design fits this geometry and m rows."""
        if design.geometry != self.geometry:
            raise ValueError(
                f"design geometry (degree, delta, radius, d) = {design.geometry} "
                f"does not match the basis {self.geometry}"
            )
        if design.cells.shape[0] != m:
            raise ValueError(f"design has {design.cells.shape[0]} rows, points have {m}")


@dataclass(frozen=True, eq=False)
class Design:
    """Cells and design rows of one point set under one cell geometry.

    Every fit and evaluation at the same points and geometry can share one
    design.  `rows` holds the scaled monomial rows of all points, in order;
    an outside point has cell -1 and the row of u = 0.  It is the (M,
    monomials) transposed view of a (monomials, M) array, so each column
    rows[:, c], which every per-monomial pass reads, is contiguous.  The fits
    bin rows by `bins` = cells + 1 and drop bin 0.  The Gram factors and the
    rows of the fallback cells are built on first use; `adopt_factors`
    supplies factors that an earlier design of the same points and geometry
    built.
    """

    geometry: tuple
    cells: np.ndarray = field(repr=False)  # (M,) cell id per point, -1 outside
    rows: np.ndarray = field(repr=False)  # (M, monomials), column-major

    @cached_property
    def bins(self) -> np.ndarray:
        """Bin of each row: its cell + 1, so outside rows fall in bin 0."""
        return self.cells + 1

    @cached_property
    def fallback_rows(self) -> list[np.ndarray]:
        """Per cell of `factors.fallback`, in that order, the positions of
        its rows in `rows`, ascending.  Only the fallback cells' rows are
        found and sorted, not every row: they are few and small."""
        bins = self.factors.fallback + 1
        if not bins.size:
            return []
        members = np.flatnonzero(np.isin(self.bins, bins))
        members = members[np.argsort(self.bins[members], kind="stable")]
        return np.split(members, np.searchsorted(self.bins[members], bins[1:]))

    @cached_property
    def factors(self) -> CellFactors:
        """Eigendecomposed Gram matrices of the well-posed occupied cells.

        A cell is well posed when it holds at least `monomials` rows and its
        Gram matrix has lambda_min > _GRAM_RCOND * lambda_max.
        """
        counts = np.bincount(self.bins)[1:]
        occupied = np.flatnonzero(counts)
        mono = self.rows.shape[1]
        gram = np.empty((occupied.size, mono, mono))
        for a in range(mono):
            for b in range(a, mono):
                weights = self.rows[:, a] * self.rows[:, b]
                gram[:, a, b] = gram[:, b, a] = np.bincount(self.bins, weights)[1:][occupied]
        candidate = np.flatnonzero(counts[occupied] >= mono)
        values, vectors = np.linalg.eigh(gram[candidate])
        posed = values[:, 0] > _GRAM_RCOND * values[:, -1]
        solved = candidate[posed]
        return CellFactors(
            cells=occupied[solved],
            values=values[posed],
            vectors=vectors[posed],
            fallback=np.setdiff1d(occupied, occupied[solved]),
        )

    def adopt_factors(self, factors: CellFactors) -> None:
        """Take factors as this design's `factors` instead of building them.

        They must be the `factors` of a design of the same points under the
        same geometry, which are the same bits: rows and Gram matrices
        depend on nothing else.
        """
        self.__dict__["factors"] = factors


@dataclass(frozen=True, eq=False)
class CellFactors:
    """G = V diag(values) V^T for the Gram matrix G of each well-posed cell.

    `fallback` holds the ascending ids of the occupied cells left to SVD
    least squares: too few rows, rank-deficient or ill-conditioned.
    """

    cells: np.ndarray  # (C,) ascending ids of the well-posed cells
    values: np.ndarray = field(repr=False)  # (C, monomials) ascending eigenvalues
    vectors: np.ndarray = field(repr=False)  # (C, monomials, monomials) eigenvectors
    fallback: np.ndarray = field(repr=False)


def shared_designs(points, *bases: LocalPolynomialBasis) -> list[Design]:
    """A design of points per basis, built once for each distinct geometry."""
    built: dict[tuple, Design] = {}
    for basis in bases:
        if basis.geometry not in built:
            built[basis.geometry] = basis.design(points)
    return [built[basis.geometry] for basis in bases]


def evaluate_basis(basis: LocalPolynomialBasis, x) -> np.ndarray:
    """Length-K coefficient pattern of a point: the monomials of its cell
    in that cell's block, zeros elsewhere; all zeros outside the support."""
    point = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, basis.d)
    out = np.zeros(basis.K)
    design = basis.design(point)
    cell = design.cells[0]
    if cell < 0:
        return out
    start = cell * basis.monomials
    out[start : start + basis.monomials] = design.rows[0]
    return out


@dataclass(frozen=True, eq=False)
class LocalPolynomialEstimator:
    """Fitted piecewise polynomial, optionally truncated.

    Evaluation is the cell polynomial inside [-R, R]^d, zero outside, and
    clamped componentwise to [-level, level] when a truncation level is set.
    """

    basis: LocalPolynomialBasis
    coefficients: np.ndarray = field(repr=False)  # (n_cells, monomials, out_dim)
    level: float | None = None

    @cached_property
    def _columns(self) -> np.ndarray:
        """Coefficient c of every cell at [c], then a zero row for cell -1."""
        return np.pad(self.coefficients.transpose(1, 0, 2), ((0, 0), (0, 1), (0, 0)))

    @cached_property
    def _reach(self) -> float:
        """An upper bound on |value| of the unclamped estimator at any point.

        An inside point's value is sum_c coef_c row_c, where row_c is a
        monomial of degree <= n in the unit cell coordinates u_a, |u_a| <= 1.
        As computed, |u_a| <= 1 + eta with eta = 1e-11 + 1e-14 R/delta: the
        last cell may end up to 1e-12 delta short of R (the slack in
        `cells_per_axis`), and the roundings of x + R, of (x + R)/delta (which
        may put a point in the next cell), of the midpoint and of
        x - midpoint add at most about 14 * 2**-53 (R + delta)/delta.  So
        |value| <= S (1 + eta)**n, with S the largest sum of |coef_c| over c
        of any cell and component, up to the roundings of the pow calls (at
        most 4 ulp each), of the products and of the sum, which the factor
        1 + 64 eps (d + monomials) covers many times over.  An outside point
        reads +0.0.
        """
        total = float(np.abs(self.coefficients).sum(axis=1).max())
        eta = 1e-11 + 1e-14 * self.basis.radius / self.basis.delta
        slack = 1.0 + 64.0 * np.finfo(float).eps * (self.basis.d + self.basis.monomials)
        return total * (1.0 + eta) ** self.basis.degree * slack

    def evaluate(self, points, design: Design | None = None) -> np.ndarray:
        """Estimator values, shape (M, out_dim), for (M, d) points.

        design, if given, is the basis design of these points.  Points that
        are not d wide are a ValueError.  The clamp runs only when the level
        is below `_reach`: otherwise no value lies outside [-level, level],
        and the clamp would return every value with its bits, -0.0 and NaN
        (from a NaN coordinate inside the support) included.
        """
        pts = _as_points(points, self.basis.d)
        if design is None:
            design = self.basis.design(pts)
        else:
            self.basis._check_design(design, pts.shape[0])
        rows, cells = design.rows, design.cells
        # row column 0 is the monomial 1, so its term is the coefficient itself
        out = np.take(self._columns[0], cells, axis=0)
        for c in range(1, rows.shape[1]):
            term = np.take(self._columns[c], cells, axis=0)
            out += _times_columns(rows[:, c], term, term)
        if self.level is not None and not self._reach <= self.level:
            np.clip(out, -self.level, self.level, out=out)
        return out


def ols_fit(
    responses, basis: LocalPolynomialBasis, points, design: Design | None = None
) -> LocalPolynomialEstimator:
    """Empirical least squares of responses on the basis at sample points.

    Minimizes the mean squared residual over the approximation space.  The
    disjoint cell supports decouple the problem.  The well-posed cells of
    the design's `factors` are solved together through their normal
    equations G c = A^T r, with A the cell's rows and r its responses, from
    the design's eigendecomposition of G = A^T A.  Every other occupied cell
    is solved by SVD-based least squares on its own rows (minimal-norm
    coefficients when rank-deficient).  Empty cells keep zero
    coefficients, and rows outside the support (cell -1) do not influence
    the fit.  A non-finite response or point is a ValueError naming its row.

    Args:
        responses: per-row outputs, shape (M,) or (M, out_dim).
        basis: the approximation space; out_dim must match the responses.
        points: per-row states, shape (M, d), or M * d coordinates in a 1-D
            array, as for `design`; any other shape is a ValueError.
        design: the basis design of the points, if already built.
    """
    resp = np.asarray(responses, dtype=float)
    if resp.ndim == 1:
        resp = resp[:, None]
    pts = _as_points(points, basis.d)
    if resp.shape[0] != pts.shape[0]:
        raise ValueError(
            f"responses and points disagree on row count: {resp.shape[0]} vs {pts.shape[0]}"
        )
    if resp.shape[0] < 1:
        raise ValueError("at least one sample row is required")
    if resp.shape[1] != basis.out_dim:
        raise ValueError(
            f"responses have {resp.shape[1]} components, basis fits {basis.out_dim}"
        )
    for label, values in (("response", resp), ("point", pts)):
        # a whole-array test first: all() along a short row axis is slow
        if not np.isfinite(values).all():
            bad = ~np.all(np.isfinite(values), axis=1)
            raise ValueError(f"non-finite {label} at row {int(np.argmax(bad))}")

    if design is None:
        design = basis.design(pts)
    else:
        basis._check_design(design, pts.shape[0])
    coef = np.zeros((basis.n_cells, basis.monomials, basis.out_dim))
    factors = design.factors
    if factors.cells.size:
        rhs = np.empty((factors.cells.size, basis.monomials, basis.out_dim))
        for a in range(basis.monomials):
            for o in range(basis.out_dim):
                weights = design.rows[:, a] * resp[:, o]
                rhs[:, a, o] = np.bincount(design.bins, weights)[1:][factors.cells]
        # c = V (V^T rhs / lambda)
        spectral = np.einsum("cak,cao->cko", factors.vectors, rhs)
        spectral /= factors.values[:, :, None]
        coef[factors.cells] = np.einsum("cak,cko->cao", factors.vectors, spectral)
    if factors.fallback.size:
        for cell, group in zip(factors.fallback, design.fallback_rows):
            rows = design.rows[group]
            rcond = np.finfo(float).eps * max(rows.shape)
            solution, *_ = np.linalg.lstsq(rows, resp[group], rcond=rcond)
            coef[cell] = solution
    return LocalPolynomialEstimator(basis=basis, coefficients=coef, level=None)


def truncate_estimator(
    estimator: LocalPolynomialEstimator, level: float
) -> LocalPolynomialEstimator:
    """Clamp the estimator's values componentwise to [-level, level].

    The clamp is 1-Lipschitz on values, so truncation never increases the
    distance to any function already bounded by the level.  level = inf
    leaves the values as they are; a negative or NaN level is a ValueError.
    """
    if not level >= 0.0:
        raise ValueError(f"truncation level must be >= 0, got {level}")
    return replace(estimator, level=float(level))
