"""Tests for the local-polynomial basis and empirical least squares."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwls.regression import (
    LocalPolynomialBasis,
    LocalPolynomialEstimator,
    evaluate_basis,
    ols_fit,
    truncate_estimator,
)


def _dense_design(basis, points):
    """Dense (M, K) design matrix built row by row from evaluate_basis."""
    return np.stack([evaluate_basis(basis, x) for x in points])


def _random_instance(rng):
    """Small random fitting instance with K <= 10 and M <= 50."""
    d, degree, delta, radius = [
        (1, 0, 0.7, 1.0),   # 3 cells, K = 3
        (1, 1, 1.0, 1.0),   # 2 cells, K = 4
        (1, 2, 2.0, 1.0),   # 1 cell,  K = 3
        (2, 0, 1.0, 1.0),   # 4 cells, K = 4
        (2, 1, 2.0, 1.0),   # 1 cell,  K = 3
    ][rng.integers(0, 5)]
    out_dim = int(rng.integers(1, 3))
    basis = LocalPolynomialBasis(
        degree=degree, delta=delta, radius=radius, d=d, out_dim=out_dim
    )
    m = int(rng.integers(1, 51))
    # widen the draw slightly so some rows fall outside the support
    points = rng.uniform(-radius - 0.2, radius + 0.2, size=(m, d))
    responses = rng.normal(size=(m, out_dim))
    return basis, points, responses


# ---------------------------------------------------------------------------
# basis structure and cell geometry


def test_cell_count_and_dimension_fixtures():
    flat = LocalPolynomialBasis(degree=0, delta=2.0, radius=1.0, d=1)
    assert flat.cells_per_axis == 1
    assert flat.K == 1

    lin = LocalPolynomialBasis(degree=1, delta=1.0, radius=1.0, d=1)
    assert lin.cells_per_axis == 2
    assert lin.monomials == 2
    assert lin.K == 4

    # exact division must not gain a spurious extra cell from float fuzz
    tight = LocalPolynomialBasis(degree=0, delta=0.1, radius=1.0, d=1)
    assert tight.cells_per_axis == 20

    square = LocalPolynomialBasis(degree=2, delta=0.5, radius=1.0, d=2)
    assert square.cells_per_axis == 4
    assert square.monomials == 6  # C(2 + 2, 2)
    assert square.K == 16 * 6


def test_powers_graded_order():
    basis = LocalPolynomialBasis(degree=2, delta=1.0, radius=1.0, d=2)
    expected = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert basis.powers.tolist() == expected


def test_cell_index_fixtures():
    basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=1.0, d=1)
    # the boundary point 1.0 joins the last cell
    cells = basis.design([-0.5, 0.5, 1.0, -1.0, 1.5, -1.0000001]).cells
    assert cells.tolist() == [0, 1, 1, 0, -1, -1]


def test_cell_index_multidim_raveling():
    basis = LocalPolynomialBasis(degree=0, delta=1.0, radius=1.0, d=2)
    # row-major over axes: cell = k0 * cells_per_axis + k1
    points = [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, 1.5]]
    assert basis.design(points).cells.tolist() == [0, 1, 2, 3, -1]


def test_evaluate_basis_block_structure():
    basis = LocalPolynomialBasis(degree=1, delta=1.0, radius=1.0, d=1)
    # x = -0.5 is the midpoint of cell 0: unit coordinate 0
    np.testing.assert_allclose(evaluate_basis(basis, -0.5), [1.0, 0.0, 0.0, 0.0])
    # x = 0.75 sits at unit coordinate 0.5 of cell 1
    np.testing.assert_allclose(evaluate_basis(basis, 0.75), [0.0, 0.0, 1.0, 0.5])
    # the right edge maps to unit coordinate 1 of the last cell
    np.testing.assert_allclose(evaluate_basis(basis, 1.0), [0.0, 0.0, 1.0, 1.0])
    assert np.all(evaluate_basis(basis, 1.5) == 0.0)

    flat = LocalPolynomialBasis(degree=0, delta=2.0, radius=1.0, d=1)
    np.testing.assert_allclose(evaluate_basis(flat, 0.3), [1.0])


def test_basis_validation():
    with pytest.raises(ValueError, match="degree"):
        LocalPolynomialBasis(degree=-1, delta=1.0, radius=1.0, d=1)
    with pytest.raises(ValueError, match="edge"):
        LocalPolynomialBasis(degree=0, delta=0.0, radius=1.0, d=1)
    with pytest.raises(ValueError, match="half-width"):
        LocalPolynomialBasis(degree=0, delta=1.0, radius=-1.0, d=1)
    with pytest.raises(ValueError, match="dimension"):
        LocalPolynomialBasis(degree=0, delta=1.0, radius=1.0, d=0)
    with pytest.raises(ValueError, match="output"):
        LocalPolynomialBasis(degree=0, delta=1.0, radius=1.0, d=1, out_dim=0)


# ---------------------------------------------------------------------------
# least-squares fit against a dense oracle


def test_fit_matches_dense_normal_equations_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        basis, points, responses = _random_instance(rng)
        estimator = ols_fit(responses, basis, points)

        design = _dense_design(basis, points)
        gram = design.T @ design
        beta = np.linalg.pinv(gram) @ (design.T @ responses)

        # predictions at the sample points agree
        scale = max(1.0, float(np.max(np.abs(responses))))
        np.testing.assert_allclose(
            estimator.evaluate(points), design @ beta, atol=1e-8 * scale
        )
        # both solutions are the per-block minimal-norm coefficients
        flat = estimator.coefficients.reshape(basis.K, basis.out_dim)
        np.testing.assert_allclose(flat, beta, atol=1e-8 * scale)


def test_fit_reproduces_responses_in_span():
    rng = np.random.default_rng(405)
    for _ in range(20):
        basis, points, _ = _random_instance(rng)
        design = _dense_design(basis, points)
        beta = rng.normal(size=(basis.K, basis.out_dim))
        responses = design @ beta
        estimator = ols_fit(responses, basis, points)
        scale = max(1.0, float(np.max(np.abs(responses))))
        np.testing.assert_allclose(
            estimator.evaluate(points), responses, atol=1e-8 * scale
        )


def test_fit_empirical_stability():
    rng = np.random.default_rng(406)
    for _ in range(50):
        basis, points, responses = _random_instance(rng)
        fitted = ols_fit(responses, basis, points).evaluate(points)
        lhs = np.mean(np.sum(fitted**2, axis=1))
        rhs = np.mean(np.sum(responses**2, axis=1))
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_fit_is_linear_in_responses():
    rng = np.random.default_rng(407)
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=1)
    points = rng.uniform(-1.2, 1.2, size=(80, 1))
    s1 = rng.normal(size=(80, 1))
    s2 = rng.normal(size=(80, 1))
    a, b = 0.7, -2.3
    combined = ols_fit(a * s1 + b * s2, basis, points)
    f1 = ols_fit(s1, basis, points)
    f2 = ols_fit(s2, basis, points)
    np.testing.assert_allclose(
        combined.coefficients,
        a * f1.coefficients + b * f2.coefficients,
        atol=1e-10,
    )


def test_constant_response_recovers_constant():
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=1)
    rng = np.random.default_rng(408)
    # ample, well-spread rows: every cell holds many points
    points = (np.linspace(-1.0, 1.0, 200) + rng.normal(0.0, 1e-3, 200)).reshape(-1, 1)
    points = np.clip(points, -1.0, 1.0)
    responses = np.full(200, 3.25)
    estimator = ols_fit(responses, basis, points)
    fresh = rng.uniform(-1.0, 1.0, size=(500, 1))
    np.testing.assert_allclose(estimator.evaluate(fresh), 3.25, atol=1e-10)


def test_empty_cells_are_zero():
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=1)
    rng = np.random.default_rng(409)
    points = rng.uniform(-1.0, -0.1, size=(60, 1))  # left half only
    responses = rng.normal(size=60) + 5.0
    estimator = ols_fit(responses, basis, points)
    right = rng.uniform(0.6, 1.0, size=(40, 1))
    assert np.all(estimator.evaluate(right) == 0.0)


def test_out_of_support_rows_do_not_affect_fit():
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=1)
    rng = np.random.default_rng(410)
    points = rng.uniform(-1.0, 1.0, size=(50, 1))
    responses = rng.normal(size=50)
    base = ols_fit(responses, basis, points)

    extra_pts = np.vstack([points, [[2.0], [-3.5]]])
    extra_resp = np.concatenate([responses, [1e6, -1e7]])
    padded = ols_fit(extra_resp, basis, extra_pts)
    np.testing.assert_array_equal(padded.coefficients, base.coefficients)


def test_fit_validation():
    basis = LocalPolynomialBasis(degree=0, delta=1.0, radius=1.0, d=1)
    pts = np.zeros((4, 1))
    with pytest.raises(ValueError, match="row 2"):
        ols_fit(np.array([0.0, 1.0, np.nan, 2.0]), basis, pts)
    with pytest.raises(ValueError, match="row 1"):
        ols_fit(np.array([0.0, np.inf, 0.0, 2.0]), basis, pts)
    with pytest.raises(ValueError, match="row count"):
        ols_fit(np.zeros(3), basis, pts)
    with pytest.raises(ValueError, match="components"):
        ols_fit(np.zeros((4, 2)), basis, pts)
    with pytest.raises(ValueError, match="dimension"):
        ols_fit(np.zeros(4), basis, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="at least one"):
        ols_fit(np.zeros(0), basis, np.zeros((0, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_points_naming_the_row(bad):
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=2)
    pts = np.array([[0.1, 0.1], [0.2, 0.3], [0.2, bad], [0.3, -0.4]])
    with pytest.raises(ValueError, match="non-finite point at row 2"):
        ols_fit(np.zeros(4), basis, pts)


# ---------------------------------------------------------------------------
# the shared design: properties over d, degree and edge-case points


@st.composite
def _bases_and_points(draw):
    """A basis with d in {1, 2, 3} and degree 0-3, and points that mix
    interior draws with cell faces, +-R and slightly outside the support."""
    d = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([0.5, 1.0, 3.0]))
    per_axis = draw(st.integers(1, 3))
    # some edges divide 2R exactly, others leave a partial last cell
    delta = 2.0 * radius / per_axis * draw(st.sampled_from([1.0, 0.85]))
    basis = LocalPolynomialBasis(
        degree=draw(st.integers(0, 3)), delta=delta, radius=radius, d=d,
        out_dim=draw(st.integers(1, 2)),
    )
    faces = [-radius + j * delta for j in range(basis.cells_per_axis + 1)]
    coordinate = st.one_of(
        st.floats(-1.1 * radius, 1.1 * radius),
        st.sampled_from(faces + [-radius, radius]),
    )
    m = draw(st.integers(1, 30))
    coords = draw(st.lists(coordinate, min_size=m * d, max_size=m * d))
    return basis, np.array(coords).reshape(m, d)


def _reference_rows(basis, points):
    """Cells and rows as computed before the shared design existed: cell
    midpoints, then u ** powers multiplied across axes."""
    outside = np.any(np.abs(points) > basis.radius, axis=1)
    k = np.floor((points + basis.radius) / basis.delta).astype(int)
    np.clip(k, 0, basis.cells_per_axis - 1, out=k)
    cells = np.ravel_multi_index(k.T, (basis.cells_per_axis,) * basis.d)
    mid = -basis.radius + (k[~outside] + 0.5) * basis.delta
    u = (points[~outside] - mid) / (0.5 * basis.delta)
    rows = np.prod(u[:, None, :] ** basis.powers[None], axis=2)
    return np.where(outside, -1, cells), rows


@settings(max_examples=150, deadline=None)
@given(_bases_and_points())
def test_design_rows_are_bitwise_the_pow_reference(case):
    basis, points = case
    design = basis.design(points)
    cells, rows = _reference_rows(basis, points)
    np.testing.assert_array_equal(design.cells, cells)
    assert design.rows.shape == (points.shape[0], basis.monomials)
    inside = design.rows[cells >= 0]
    assert inside.shape == rows.shape
    assert inside.tobytes() == rows.tobytes()
    # an outside point has the row of u = 0: one in column 0, zeros after
    outside = np.zeros(basis.monomials)
    outside[0] = 1.0
    assert np.all(design.rows[cells < 0] == outside)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_design_support_of_nan_and_infinite_points_is_the_any_reference(d):
    # a NaN coordinate compares False against R: the point stays inside
    # unless another coordinate is outside
    basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=d)
    specials = [0.3, -1.0, 1.0, 1.2, np.nan, np.inf, -np.inf]
    points = np.array(list(itertools.product(specials, repeat=d)))
    with np.errstate(invalid="ignore"):
        design = basis.design(points)
        cells, _ = _reference_rows(basis, points)
    np.testing.assert_array_equal(design.cells, cells)
    assert design.rows.shape == (points.shape[0], basis.monomials)
    assert np.all(np.isfinite(design.rows[cells < 0]))


@settings(max_examples=100, deadline=None)
@given(_bases_and_points(), st.integers(0, 2**32 - 1))
def test_fit_and_evaluate_with_a_design_are_bitwise_unchanged(case, seed):
    basis, points = case
    rng = np.random.default_rng(seed)
    responses = rng.normal(size=(points.shape[0], basis.out_dim))
    # a design only depends on the cell geometry, not on out_dim
    other = dataclasses.replace(basis, out_dim=3 - basis.out_dim)
    design = other.design(points)
    plain = ols_fit(responses, basis, points)
    shared = ols_fit(responses, basis, points, design=design)
    assert shared.coefficients.tobytes() == plain.coefficients.tobytes()
    assert (
        plain.evaluate(points, design=design).tobytes()
        == plain.evaluate(points).tobytes()
    )


def _reference_values(basis, coefficients, points):
    """Estimator values as the broadcast column sum over the reference rows:
    row c, as an (M, 1) column, times coefficient c, in ascending c; zero
    outside the support."""
    cells, rows = _reference_rows(basis, points)
    inside = cells >= 0
    blocks = coefficients[cells[inside]]
    total = rows[:, 0:1] * blocks[:, 0]
    for c in range(1, basis.monomials):
        total = total + rows[:, c : c + 1] * blocks[:, c]
    expected = np.zeros((points.shape[0], basis.out_dim))
    expected[inside] = total
    return expected


@settings(max_examples=150, deadline=None)
@given(_bases_and_points(), st.integers(0, 2**32 - 1))
def test_evaluate_is_bitwise_the_ascending_column_sum(case, seed):
    basis, points = case
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=(basis.n_cells, basis.monomials, basis.out_dim))
    estimator = LocalPolynomialEstimator(basis=basis, coefficients=coefficients)
    values = estimator.evaluate(points)
    assert values.tobytes() == _reference_values(basis, coefficients, points).tobytes()
    # outside points read +0.0, sign bit clear
    inside = _reference_rows(basis, points)[0] >= 0
    assert not np.any(np.signbit(values[~inside]))


@pytest.mark.parametrize("degree", [1, 2])
def test_design_and_evaluate_at_d3_are_bitwise_the_broadcast_forms(degree):
    # thousands of rows, so the column passes run their long inner loops,
    # with a fifth of the points outside the support
    basis = LocalPolynomialBasis(degree=degree, delta=0.5, radius=2.0, d=3, out_dim=3)
    rng = np.random.default_rng(31)
    points = rng.uniform(-2.15, 2.15, size=(5003, 3))
    design = basis.design(points)
    cells, rows = _reference_rows(basis, points)
    np.testing.assert_array_equal(design.cells, cells)
    assert design.rows[cells >= 0].tobytes() == rows.tobytes()
    assert np.all(design.rows[cells < 0] == np.eye(1, basis.monomials))
    coefficients = rng.normal(size=(basis.n_cells, basis.monomials, 3))
    estimator = LocalPolynomialEstimator(basis=basis, coefficients=coefficients)
    expected = _reference_values(basis, coefficients, points)
    assert estimator.evaluate(points, design=design).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_infinite_points_evaluate_to_zero_without_warnings(degree):
    basis = LocalPolynomialBasis(degree=degree, delta=0.5, radius=1.0, d=2, out_dim=2)
    rng = np.random.default_rng(415)
    points = rng.uniform(-1.0, 1.0, size=(200, 2))
    estimator = ols_fit(rng.normal(size=(200, 2)) + 3.0, basis, points)
    probe = np.array(
        [[np.inf, 0.1], [0.1, -np.inf], [-np.inf, np.inf], [np.inf, np.inf], [0.1, 0.2]]
    )
    values = estimator.evaluate(probe)
    assert values[:4].tobytes() == np.zeros((4, 2)).tobytes()
    assert np.all(values[4] != 0.0)
    assert basis.design(probe).cells[:4].tolist() == [-1, -1, -1, -1]


@settings(max_examples=60, deadline=None)
@given(_bases_and_points(), st.sampled_from(["degree", "delta", "radius", "d", "rows"]))
def test_design_of_other_geometry_or_size_is_rejected(case, change):
    basis, points = case
    responses = np.zeros((points.shape[0], basis.out_dim))
    estimator = ols_fit(responses, basis, points)
    if change == "rows":
        design = basis.design(np.vstack([points, points[:1]]))
    elif change == "d":
        other = dataclasses.replace(basis, d=basis.d % 3 + 1)
        design = other.design(np.zeros((points.shape[0], other.d)))
    else:
        bumped = {"degree": basis.degree + 1, "delta": basis.delta / 2, "radius": basis.radius * 2}
        design = dataclasses.replace(basis, **{change: bumped[change]}).design(points)
    with pytest.raises(ValueError, match="design"):
        ols_fit(responses, basis, points, design=design)
    with pytest.raises(ValueError, match="design"):
        estimator.evaluate(points, design=design)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(1, 60),
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_fit_is_invariant_to_row_permutation(d, degree, m, specials, seed):
    # points in general position, plus a few on the faces x = 0 and at +-R:
    # exactly collinear cells would make the minimal-norm fit ill-posed
    basis = LocalPolynomialBasis(degree=degree, delta=1.0, radius=1.0, d=d)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.1, 1.1, size=(m, d))
    for row, value in enumerate(specials[: m]):
        points[row] = value
    responses = rng.normal(size=m)
    order = rng.permutation(m)
    base = ols_fit(responses, basis, points)
    shuffled = ols_fit(responses[order], basis, points[order])
    scale = max(1.0, float(np.max(np.abs(base.coefficients))))
    np.testing.assert_allclose(
        shuffled.coefficients, base.coefficients, rtol=1e-7, atol=1e-9 * scale
    )


# ---------------------------------------------------------------------------
# the batched per-cell solve against per-cell SVD least squares


def _lstsq_cell(rows, responses):
    """SVD least squares on one cell's rows, with ols_fit's rcond."""
    rcond = np.finfo(float).eps * max(rows.shape)
    return np.linalg.lstsq(rows, responses, rcond=rcond)[0]


@st.composite
def _fallback_prone_fits(draw):
    """Few rows over up to 27 cells, so many cells are sparse, plus repeated
    points and points on one line through a cell (rank-deficient for d >= 2
    and degree >= 1)."""
    d = draw(st.integers(1, 3))
    basis = LocalPolynomialBasis(
        degree=draw(st.integers(0, 3)),
        delta=2.0 / draw(st.integers(1, 3)),
        radius=1.0,
        d=d,
        out_dim=draw(st.integers(1, 2)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.uniform(-1.1, 1.1, size=(draw(st.integers(1, 80)), d))]
    repeats = draw(st.integers(0, 20))
    if repeats:
        blocks.append(blocks[0][rng.integers(0, blocks[0].shape[0], repeats)])
    on_line = draw(st.integers(0, 20))
    if on_line:
        start = rng.uniform(-0.9, 0.9, size=d)
        step = rng.normal(size=d) * 0.05
        blocks.append(start + np.linspace(-1.0, 1.0, on_line)[:, None] * step)
    points = np.vstack(blocks)[rng.permutation(sum(b.shape[0] for b in blocks))]
    responses = rng.normal(size=(points.shape[0], basis.out_dim))
    return basis, points, responses


@settings(max_examples=300)
@given(_fallback_prone_fits())
def test_fit_matches_per_cell_svd_least_squares(case):
    basis, points, responses = case
    cells, rows = _reference_rows(basis, points)
    inside = cells >= 0
    cells, inside_responses = cells[inside], responses[inside]
    expected = np.zeros((basis.n_cells, basis.monomials, basis.out_dim))
    for cell in np.unique(cells):
        expected[cell] = _lstsq_cell(rows[cells == cell], inside_responses[cells == cell])
    fitted = ols_fit(responses, basis, points).coefficients
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(fitted, expected, rtol=1e-7, atol=1e-9 * scale)


@settings(max_examples=200)
@given(_fallback_prone_fits())
def test_fit_with_outside_rows_is_bitwise_the_fit_of_the_inside_rows(case):
    basis, points, responses = case
    inside = np.all(np.abs(points) <= basis.radius, axis=1)
    fitted = ols_fit(responses, basis, points).coefficients
    if not inside.any():
        assert not np.any(fitted)
        return
    alone = ols_fit(responses[inside], basis, points[inside]).coefficients
    assert fitted.tobytes() == alone.tobytes()


def test_fallback_cells_are_bitwise_svd_least_squares():
    # degree 2 on four unit cells of [-2, 2]: 3 monomials per cell
    basis = LocalPolynomialBasis(degree=2, delta=1.0, radius=2.0, d=1, out_dim=2)
    cell_points = [
        np.repeat([-1.5, -1.2], 3),  # two distinct points: rank 2 of 3
        np.array([-0.7, -0.2]),  # fewer rows than monomials
        0.5 + 0.05 * np.linspace(-1.0, 1.0, 8),  # full rank, cond(G) near 7e4
        np.linspace(1.05, 1.95, 40),  # well conditioned
    ]
    rng = np.random.default_rng(413)
    points = np.concatenate(cell_points)
    order = rng.permutation(points.size)  # interleave the cells' rows
    points = points[order].reshape(-1, 1)
    responses = rng.normal(size=(points.shape[0], 2))
    design = basis.design(points)
    np.testing.assert_array_equal(design.factors.cells, [3])
    coefficients = ols_fit(responses, basis, points, design=design).coefficients
    for cell in range(4):
        members = design.cells == cell
        expected = _lstsq_cell(design.rows[members], responses[members])
        if cell < 3:
            assert coefficients[cell].tobytes() == expected.tobytes()
        else:
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(coefficients[cell], expected, rtol=1e-10, atol=1e-10 * scale)


def test_design_is_factorized_once_for_the_z_and_y_fits(monkeypatch):
    z_basis = LocalPolynomialBasis(degree=1, delta=0.5, radius=1.0, d=2, out_dim=2)
    y_basis = dataclasses.replace(z_basis, out_dim=1)
    rng = np.random.default_rng(414)
    points = rng.uniform(-1.0, 1.0, size=(400, 2))
    calls = {"eigh": 0, "lstsq": 0}
    eigh, lstsq = np.linalg.eigh, np.linalg.lstsq

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
    design = z_basis.design(points)
    ols_fit(rng.normal(size=(400, 2)), z_basis, points, design=design)
    ols_fit(rng.normal(size=400), y_basis, points, design=design)
    assert calls == {"eigh": 1, "lstsq": 0}
    # every cell is well posed: no fallback, so no per-cell grouping either
    assert design.factors.cells.size == z_basis.n_cells
    assert "groups" not in design.__dict__


# ---------------------------------------------------------------------------
# truncation


def _step_estimator():
    """Piecewise-constant estimator with values 3 on [-1,0) and -5 on [0,1]."""
    basis = LocalPolynomialBasis(degree=0, delta=1.0, radius=1.0, d=1)
    points = np.array([[-0.5], [0.5]])
    responses = np.array([3.0, -5.0])
    return ols_fit(responses, basis, points)


def test_truncation_fixture():
    estimator = _step_estimator()
    probe = np.array([[-0.5], [0.5]])
    clamped = truncate_estimator(estimator, 2.0)
    np.testing.assert_allclose(clamped.evaluate(probe).ravel(), [2.0, -2.0])
    # a generous level leaves values untouched
    loose = truncate_estimator(estimator, 10.0)
    np.testing.assert_allclose(loose.evaluate(probe).ravel(), [3.0, -5.0])
    # the original estimator is not modified in place
    np.testing.assert_allclose(estimator.evaluate(probe).ravel(), [3.0, -5.0])
    with pytest.raises(ValueError, match="level"):
        truncate_estimator(estimator, -1.0)
    with pytest.raises(ValueError, match="truncation level must be >= 0, got nan"):
        truncate_estimator(estimator, np.nan)
    # an infinite level is no clamp at all
    unclamped = truncate_estimator(estimator, np.inf)
    assert unclamped.evaluate(probe).tobytes() == estimator.evaluate(probe).tobytes()


def test_truncation_is_one_lipschitz():
    rng = np.random.default_rng(411)
    a = rng.normal(0.0, 3.0, size=1000)
    b = rng.normal(0.0, 3.0, size=1000)
    levels = rng.uniform(0.0, 4.0, size=1000)
    gap = np.abs(np.clip(a, -levels, levels) - np.clip(b, -levels, levels))
    assert np.all(gap <= np.abs(a - b) + 1e-15)


# ---------------------------------------------------------------------------
# approximation quality


def test_smooth_target_error_decays_at_expected_rate():
    rng = np.random.default_rng(412)
    target = lambda x: np.sin(2.0 * x)  # noqa: E731
    base = np.linspace(-1.0, 1.0, 4001)
    probe = np.linspace(-0.999, 0.999, 2000).reshape(-1, 1)
    deltas = np.array([0.5, 0.25, 0.125])
    errors = []
    for delta in deltas:
        basis = LocalPolynomialBasis(degree=1, delta=float(delta), radius=1.0, d=1)
        pts = np.clip(base + rng.normal(0.0, 1e-4, base.size), -1.0, 1.0).reshape(-1, 1)
        estimator = ols_fit(target(pts[:, 0]), basis, pts)
        errors.append(np.max(np.abs(estimator.evaluate(probe)[:, 0] - target(probe[:, 0]))))
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert slope >= 2.0 - 0.3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_huge_finite_points_are_outside_without_overflow_warnings(degree, d):
    basis = LocalPolynomialBasis(degree=degree, delta=0.5, radius=1.0, d=d, out_dim=2)
    rng = np.random.default_rng(416)
    points = rng.uniform(-1.0, 1.0, size=(200, d))
    estimator = ols_fit(rng.normal(size=(200, 2)) + 3.0, basis, points)
    huge = [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]
    probe = np.full((4 * d, d), 0.1)
    for axis in range(d):
        probe[4 * axis : 4 * axis + 4, axis] = huge
    design = basis.design(probe)
    assert design.cells.tolist() == [-1] * probe.shape[0]
    assert np.all(np.isfinite(design.rows))
    # +0.0 bytes: the sign bit is clear
    assert estimator.evaluate(probe).tobytes() == np.zeros((probe.shape[0], 2)).tobytes()
