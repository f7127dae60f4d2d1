"""Local-polynomial basis spaces on hypercube partitions and empirical OLS.

The approximation space partitions [-R, R]^d into half-open cells of edge
length delta and carries all monomials of total degree <= n on each cell,
centered at the cell midpoint and scaled to unit cell coordinates.  Cells
decouple the least-squares problem: each one is solved independently on the
sample rows landing in it, with the minimal-norm solution on rank-deficient
cells and zero coefficients on empty ones.  Points outside the support
evaluate to zero.  A `Design` holds the cells and monomial rows of one point
set, so every fit and evaluation at the same points computes them once.  It
also eigendecomposes every cell's Gram matrix once: all well-conditioned
cells of a fit are then solved together through their normal equations, and
only the other cells go through SVD least squares on their rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

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
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.delta <= 0.0:
            raise ValueError(f"cell edge must be positive, got {self.delta}")
        if not math.isfinite(self.delta):
            raise ValueError(f"cell edge must be finite, got {self.delta}")
        if self.radius <= 0.0:
            raise ValueError(f"support half-width must be positive, got {self.radius}")
        if not math.isfinite(self.radius):
            raise ValueError(f"support half-width must be finite, got {self.radius}")
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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.d)
        # per axis, not a reduction along the short row axis; NaN stays inside
        outside = np.abs(pts[:, 0]) > self.radius
        for axis in range(1, self.d):
            outside |= np.abs(pts[:, axis]) > self.radius
        inside = np.flatnonzero(~outside)
        # k = floor((x + R) / delta), clipped to the grid of cells
        scaled = pts + self.radius
        scaled /= self.delta
        k = np.floor(scaled, out=scaled).astype(int)
        np.clip(k, 0, self.cells_per_axis - 1, out=k)
        flat = k[:, 0]
        for axis in range(1, self.d):
            flat = flat * self.cells_per_axis + k[:, axis]
        # u = (x - (-R + (k + 0.5) delta)) / (delta / 2)
        u = k + 0.5
        u *= self.delta
        u += -self.radius
        np.subtract(pts, u, out=u)
        u /= 0.5 * self.delta
        if inside.size < pts.shape[0]:
            u = np.take(u, inside, axis=0)
        if self.degree <= 1:
            # u ** 0 = 1 and u ** 1 = u exactly, and so are their products
            # with 1: column 0 is 1 and column 1 + a is u_a, with no pow calls
            rows = np.empty((inside.size, self.monomials))
            rows[:, 0] = 1.0
            rows[:, 1:] = u[:, : self.monomials - 1]
        else:
            # table[m, a, p] = u[m, a] ** p, by pow along the exponent axis
            # and never by repeated products: those move the last bit of u ** p
            table = u[:, :, None] ** np.arange(self.degree + 1)
            table = table.reshape(inside.size, self.d * (self.degree + 1))
            # row factor of axis a is column a*(n+1) + p_a; multiplied left
            # to right like np.prod(u ** powers, axis=-1)
            columns = np.arange(self.d) * (self.degree + 1) + self.powers
            rows = np.take(table, columns[:, 0], axis=1)
            for axis in range(1, self.d):
                rows *= np.take(table, columns[:, axis], axis=1)
        return Design(self.geometry, np.where(outside, -1, flat), inside, rows)

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
    design.  `rows` holds the scaled monomial rows of the in-support points
    only, in their original order; the per-cell grouping is index arrays
    into `rows`, built on first use.
    """

    geometry: tuple
    cells: np.ndarray = field(repr=False)  # (M,) cell id per point, -1 outside
    inside: np.ndarray = field(repr=False)  # ascending positions of in-support points
    rows: np.ndarray = field(repr=False)  # (inside.size, monomials)

    @cached_property
    def row_cells(self) -> np.ndarray:
        """Cell id of each row of `rows`."""
        return np.take(self.cells, self.inside)

    @cached_property
    def groups(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Occupied cells in ascending order and, per cell, the positions of
        its rows in `rows`, in their original order."""
        order = np.argsort(self.row_cells, kind="stable")
        if order.size == 0:
            return self.row_cells, []
        starts = np.flatnonzero(np.diff(self.row_cells[order])) + 1
        return self.row_cells[order[np.r_[0, starts]]], np.split(order, starts)

    @cached_property
    def factors(self) -> CellFactors:
        """Eigendecomposed Gram matrices of the well-posed occupied cells.

        A cell is well posed when it holds at least `monomials` rows and its
        Gram matrix has lambda_min > _GRAM_RCOND * lambda_max.
        """
        counts = np.bincount(self.row_cells)
        occupied = np.flatnonzero(counts)
        mono = self.rows.shape[1]
        gram = np.empty((occupied.size, mono, mono))
        for a in range(mono):
            for b in range(a, mono):
                weights = self.rows[:, a] * self.rows[:, b]
                gram[:, a, b] = gram[:, b, a] = np.bincount(self.row_cells, weights)[occupied]
        candidate = np.flatnonzero(counts[occupied] >= mono)
        values, vectors = np.linalg.eigh(gram[candidate])
        posed = values[:, 0] > _GRAM_RCOND * values[:, -1]
        solved = candidate[posed]
        return CellFactors(
            cells=occupied[solved],
            values=values[posed],
            vectors=vectors[posed],
            fallback=np.setdiff1d(np.arange(occupied.size), solved),
        )


@dataclass(frozen=True, eq=False)
class CellFactors:
    """G = V diag(values) V^T for the Gram matrix G of each well-posed cell.

    `fallback` holds the positions, among the design's occupied cells in
    ascending order (the order of `Design.groups`), of the cells left to SVD
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

    def evaluate(self, points, design: Design | None = None) -> np.ndarray:
        """Estimator values, shape (M, out_dim), for (M, d) points.

        design, if given, is the basis design of these points.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self.basis.d)
        if design is None:
            design = self.basis.design(pts)
        else:
            self.basis._check_design(design, pts.shape[0])
        out = np.zeros((pts.shape[0], self.basis.out_dim))
        if design.inside.size:
            blocks = np.take(self.coefficients, design.row_cells, axis=0)
            out[design.inside] = np.einsum("mc,mco->mo", design.rows, blocks)
        if self.level is not None:
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
    coefficients, and rows outside the support do not influence the fit
    (their basis row is zero).  A non-finite response or point is a
    ValueError naming its row.

    Args:
        responses: per-row outputs, shape (M,) or (M, out_dim).
        basis: the approximation space; out_dim must match the responses.
        points: per-row states, shape (M, d).
        design: the basis design of the points, if already built.
    """
    resp = np.asarray(responses, dtype=float)
    if resp.ndim == 1:
        resp = resp[:, None]
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
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
    if pts.shape[1] != basis.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, basis expects {basis.d}")
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
    resp = np.take(resp, design.inside, axis=0)
    factors = design.factors
    if factors.cells.size:
        rhs = np.empty((factors.cells.size, basis.monomials, basis.out_dim))
        for a in range(basis.monomials):
            for o in range(basis.out_dim):
                weights = design.rows[:, a] * resp[:, o]
                rhs[:, a, o] = np.bincount(design.row_cells, weights)[factors.cells]
        # c = V (V^T rhs / lambda)
        spectral = np.einsum("cak,cao->cko", factors.vectors, rhs)
        spectral /= factors.values[:, :, None]
        coef[factors.cells] = np.einsum("cak,cko->cao", factors.vectors, spectral)
    if factors.fallback.size:
        occupied, groups = design.groups
        for position in factors.fallback:
            group = groups[position]
            rows = design.rows[group]
            rcond = np.finfo(float).eps * max(rows.shape)
            solution, *_ = np.linalg.lstsq(rows, resp[group], rcond=rcond)
            coef[occupied[position]] = solution
    return LocalPolynomialEstimator(basis=basis, coefficients=coef, level=None)


def truncate_estimator(
    estimator: LocalPolynomialEstimator, level: float
) -> LocalPolynomialEstimator:
    """Clamp the estimator's values componentwise to [-level, level].

    The clamp is 1-Lipschitz on values, so truncation never increases the
    distance to any function already bounded by the level.
    """
    if level < 0.0:
        raise ValueError(f"truncation level must be >= 0, got {level}")
    return replace(estimator, level=float(level))
