"""Explicit constants pipeline for the discrete backward equations.

Everything the error analysis needs is computed in closed form from the
declared problem constants: the weighted-sum bounds B_{alpha,beta}, the
recursive-inequality constants (c_w, c_hat, c^gamma), the stability
constants A^(1..3)_{y,z}, the almost-sure truncation bounds C_{y,i} and
C_{z,i}, the observation bounds Theta_{y,i} and Theta_{z,i} on regression
responses, the interdependence errors of the nested regressions, and the
global error-bound evaluator combining all of them.

The one special function involved, the Beta function inside B_{alpha,beta},
comes from `math.gamma` and `math.lgamma`, so the module needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid

__all__ = [
    "ProblemConstants",
    "AprioriConstants",
    "BoundsTable",
    "B_const",
    "c_gamma",
    "apriori_constants",
    "as_bounds",
    "obs_bounds",
    "dep_errors",
    "propagation_constants",
    "global_error_bound",
    "bounds_table",
]


def _safe_prod(*factors: float) -> float:
    """Product that treats a zero factor as annihilating, even next to inf.

    The pipeline constants can exceed double range in strongly-coupled
    regimes (they are finite but astronomically large); they are then
    carried as inf, which still upper-bounds everything.  A zero factor
    (e.g. C_M = 0 or L_f = 0) must win over such an inf: the exact constant
    it multiplies is finite, so the product is truly zero.
    """
    if any(f == 0.0 for f in factors):
        return 0.0
    out = 1.0
    for f in factors:
        out *= f
    return out


def _safe_exp(x: float) -> float:
    """exp(x), returning inf instead of raising past the double range."""
    return math.exp(x) if x < 709.0 else math.inf


def _scaled(coef, arr) -> np.ndarray:
    """Elementwise coef * arr with the 0 * inf corners resolved to 0."""
    coef, arr = np.broadcast_arrays(np.asarray(coef, dtype=float), np.asarray(arr, dtype=float))
    out = np.zeros(arr.shape)
    mask = (coef != 0.0) & (arr != 0.0)
    out[mask] = coef[mask] * arr[mask]
    return out


@dataclass(frozen=True)
class ProblemConstants:
    """Declared constants of a discrete backward problem.

    The driver is assumed locally Lipschitz with a time singularity,

        |f_i(x, y, z) - f_i(x, y', z')|
            <= L_f (|y - y'| + |z - z'|) / (T - t_i)^((1-theta_L)/2),
        |f_i(x, 0, 0)| <= C_f / (T - t_i)^(1-theta_C),

    the terminal value xi = Phi(X_N) satisfies |xi| <= C_xi, and the weights
    satisfy E[H^(i)_j | F_i] = 0 with conditional second moment at most
    C_M^2 / (t_j - t_i).  The optional pair (C_phi, theta_phi) declares the
    fractional smoothness |xi - E_i xi|_{2,i} <= C_phi (T - t_i)^(theta_phi/2),
    which sharpens the z-bounds near T.
    """

    L_f: float
    C_f: float
    theta_L: float
    theta_C: float
    C_M: float
    C_xi: float
    T: float
    R_pi: float = 1.0
    q: int = 1
    C_phi: float | None = None
    theta_phi: float | None = None

    def __post_init__(self) -> None:
        for name in ("L_f", "C_f", "C_M"):
            _check_constant(name, getattr(self, name))
        _check_terminal_constants(self.C_xi, self.C_phi, self.theta_phi)
        if not 0.0 < self.theta_L <= 1.0:
            raise ValueError(f"theta_L must lie in (0, 1], got {self.theta_L}")
        if not 0.0 < self.theta_C <= 1.0:
            raise ValueError(f"theta_C must lie in (0, 1], got {self.theta_C}")
        if not self.T > 0.0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"horizon T must be finite, got {self.T}")
        if not self.R_pi >= 1.0:
            raise ValueError(f"step-ratio bound R_pi must be >= 1, got {self.R_pi}")
        if not self.q >= 1:
            raise ValueError(f"weight dimension q must be >= 1, got {self.q}")


def _check_constant(name: str, value: float) -> None:
    """Raise ValueError, naming the constant, unless it is finite and >= 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _check_terminal_constants(
    C_xi: float, C_phi: float | None, theta_phi: float | None
) -> None:
    """Raise ValueError unless C_xi is finite and >= 0, and (C_phi, theta_phi)
    is either absent or a finite C_phi >= 0 with theta_phi in (0, 1]."""
    _check_constant("C_xi", C_xi)
    if (C_phi is None) != (theta_phi is None):
        raise ValueError("C_phi and theta_phi must be supplied together")
    if C_phi is not None:
        _check_constant("C_phi", C_phi)
        if not 0.0 < theta_phi <= 1.0:
            raise ValueError(f"theta_phi must lie in (0, 1], got {theta_phi}")


def _beta_function(a: float, b: float) -> float:
    """Beta(a, b) for a, b > 0 with min(a, b) < 1, the case B_const needs.

    Gamma(a) Gamma(b) / Gamma(a + b) while all three Gammas are in double
    range (a + b below about 171.6, both above about 5.6e-309): within
    2e-15 relative of scipy.special.beta there.  Past that range, the exp
    of the lgamma form, whose cancellation costs about
    1e-16 (a + b) log(a + b) relative: 1e-12 at a + b = 300, 4e-8 at 1e7.
    From 1e7 on, Gamma(large) / Gamma(large + small) is large**-small to
    within small |1 - small| / (2 large) < 2e-8 relative, which also keeps
    clear of lgamma's own overflow near 2.6e305.  A Beta past the double
    range (the smaller argument below about 5.6e-309) is inf.
    """
    try:
        value = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    small, large = sorted((a, b))
    if large < 1e7:
        log_value = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    else:
        log_value = math.lgamma(small) - small * math.log(large)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def B_const(alpha: float, beta: float, r_pi: float = 1.0) -> float:
    """Uniform-in-grid constant bounding the singular weighted step sums.

    For every grid with consecutive step ratios at most r_pi,

        sum_{j=i}^{k-1}   Delta_j (t_k-t_j)^(alpha-1)
                          <= B_const(alpha, 1)    * (t_k - t_i)^alpha,
        sum_{j=i+1}^{k-1} Delta_j (t_k-t_j)^(alpha-1) (t_j-t_i)^(beta-1)
                          <= B_const(alpha, beta) * (t_k - t_i)^(alpha+beta-1).

    The value is 1 when both exponents are >= 1 (the integrand is bounded
    by 1), 1/alpha when beta == 1 (comparison with the left-point integral,
    valid for the double form too since it subsets the single sum), and
    (1 + r_pi) * Beta(alpha, beta) in general.  The first two cases are
    exact.  Beta comes from `math.gamma`, within 2e-15 relative of
    scipy.special.beta for exponents in (0, 3], which covers every call in
    this package (all exponents are <= 2.5); `_beta_function` gives the
    accuracy of its lgamma fallbacks for larger or tinier exponents.  It
    never raises OverflowError: a Beta past the double range gives inf.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError(f"exponents must be positive, got alpha = {alpha}, beta = {beta}")
    if not r_pi >= 1.0:
        raise ValueError(f"step-ratio bound r_pi must be >= 1, got {r_pi}")
    if alpha >= 1.0 and beta >= 1.0:
        return 1.0
    if beta == 1.0:
        return 1.0 / alpha
    return (1.0 + r_pi) * _beta_function(alpha, beta)


def _exponent_iteration(
    C_u: float, T: float, alpha: float, beta: float, r_pi: float
) -> tuple[float, float]:
    """Iterate the exponent-improvement substitution until the inner
    singularity exponent reaches 1/2.

    Starting from  u_j <= w_j + C_u * S_u(alpha)_j  with

        S_x(a)_j := sum_{l>j} x_l Delta_l / ((T-t_l)^(1/2-beta) (t_l-t_j)^(1/2-a)),

    repeatedly substituting the inequality into its own feedback term keeps
    the invariant  u_j <= w_j + D * S_w(alpha)_j + C * S_u(a)_j  while the
    exponent doubles, a -> 2a + beta.  Once a >= 1/2 the remaining feedback
    sum no longer carries a (t_l - t_j) singularity and can be flattened.

    Returns (c_w, c_hat) with
        u_j <= c_w w_j + c_w S_w(alpha)_j
               + c_hat * sum_{l>j} u_l Delta_l / (T-t_l)^(1/2-beta).
    """
    a = alpha
    C = C_u
    D = 0.0
    while a < 0.5:
        step_w = B_const(alpha + beta, 0.5 + a, r_pi)
        step_u = B_const(a + beta, 0.5 + a, r_pi)
        D = D * (1.0 + C * step_w * T ** (a + beta)) + C * T ** (a - alpha)
        C = C * C * step_u
        a = 2.0 * a + beta
    c_w = max(1.0, D)
    c_hat = C * T ** (a - 0.5)
    return c_w, c_hat


def c_gamma(
    C_u: float,
    T: float,
    alpha: float,
    beta: float,
    gamma: float,
    r_pi: float = 1.0,
) -> float:
    """Constant closing the recursive inequality with feedback strength C_u.

    If nonnegative sequences (u, w) on a grid satisfy, for all j,

        u_j <= w_j + C_u sum_{l>j} u_l Delta_l
                          / ((T-t_l)^(1/2-beta) (t_l-t_j)^(1/2-alpha)),

    then for every gamma > 0,

        sum_{l>j} u_l Delta_l / ((T-t_l)^(1/2-beta) (t_l-t_j)^(1-gamma))
            <= c_gamma(...) * (same sum with w in place of u).

    The value is assembled from the exponent-improvement iteration (c_w,
    c_hat), a discrete backward Gronwall bound on the flattened feedback sum
    (factor e^zeta_T), and one more weighted-sum exchange per term.

    In strongly-coupled singular regimes (large C_u with small alpha and
    beta) the exact constant exceeds the double range; inf is returned then,
    which is still a valid, if vacuous, upper bound.
    """
    if not C_u >= 0.0:
        raise ValueError(f"feedback constant C_u must be nonnegative, got {C_u}")
    if not T > 0.0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T}")
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not 0.0 < beta <= 0.5:
        raise ValueError(f"beta must lie in (0, 1/2], got {beta}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not r_pi >= 1.0:
        raise ValueError(f"step-ratio bound r_pi must be >= 1, got {r_pi}")

    c_w, c_hat = _exponent_iteration(C_u, T, alpha, beta, r_pi)
    zeta_T = 4.0 * c_hat * T ** (0.5 + beta) / (1.0 + 2.0 * beta)
    c_bar = (
        2.0
        * c_w
        * _safe_exp(zeta_T)
        * (1.0 + B_const(alpha + beta, 1.0, r_pi) * T ** (alpha + beta))
    )
    return c_bar * (
        1.0 + B_const(alpha + beta, gamma, r_pi) * T ** (alpha + beta)
    ) + _safe_prod(c_hat, c_bar, B_const(0.5 + beta, gamma, r_pi), T ** (0.5 + beta))


@dataclass(frozen=True)
class AprioriConstants:
    """Stability constants of the backward system.

    A1y/A2y weigh the terminal and driver contributions in the y-bounds;
    A1z/A2z/A3z weigh the oscillation, driver and terminal contributions in
    the z-bounds.
    """

    A1y: float
    A2y: float
    A1z: float
    A2z: float
    A3z: float


def apriori_constants(pc: ProblemConstants) -> AprioriConstants:
    """Stability constants, written out from the closed recursive inequality
    with feedback strength C_u = L_f (C_M + sqrt(T))."""
    L_f, T, C_M = pc.L_f, pc.T, pc.C_M
    th = pc.theta_L
    sqrt_T = math.sqrt(T)
    C_u = L_f * (C_M + sqrt_T)
    c1 = c_gamma(C_u, T, 0.0, th / 2.0, 1.0, pc.R_pi)
    c12 = c_gamma(C_u, T, 0.0, th / 2.0, 0.5, pc.R_pi)
    b_h1 = B_const(th / 2.0, 1.0, pc.R_pi)
    b_hh1 = B_const(0.5 + th / 2.0, 1.0, pc.R_pi)
    b_h12 = B_const(th / 2.0, 0.5, pc.R_pi)
    b_hh12 = B_const(0.5 + th / 2.0, 0.5, pc.R_pi)
    t_pow = T ** (th / 2.0)
    return AprioriConstants(
        A1y=1.0 + _safe_prod(L_f, c1, C_M * b_h1 + b_hh1 * sqrt_T, t_pow),
        A2y=1.0 + _safe_prod(L_f, c1, C_M + sqrt_T, b_h1, t_pow),
        A1z=_safe_prod(C_M, 1.0 + _safe_prod(L_f, c12, C_M, b_h12, t_pow)),
        A2z=_safe_prod(C_M, 1.0 + _safe_prod(L_f, c12, C_M + sqrt_T, b_h12, t_pow)),
        A3z=_safe_prod(C_M, L_f, c12, b_hh12),
    )


def _oscillation(pc: ProblemConstants, ttg: np.ndarray) -> np.ndarray:
    """Per-index bound on the conditional oscillation |xi - E_i xi|_{2,i}.

    Uses the declared fractional smoothness when available, else the crude
    2 * C_xi (centering can at most double the sup bound).
    """
    if pc.C_phi is not None:
        return pc.C_phi * ttg ** (pc.theta_phi / 2.0)
    return np.full_like(ttg, 2.0 * pc.C_xi)


def _time_to_go(pc: ProblemConstants, grid: TimeGrid) -> np.ndarray:
    """T - t_i for i = 0..N-1, once the grid's horizon matches pc.T."""
    if abs(grid.T - pc.T) > 1e-12 * max(1.0, pc.T):
        raise ValueError(
            f"grid horizon {grid.T} does not match declared horizon {pc.T}"
        )
    return pc.T - grid.points[:-1]


def as_bounds(pc: ProblemConstants, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Almost-sure bounds (C_y[i], C_z[i]) on the solution, i = 0..N-1.

    These are the truncation levels applied to the fitted estimators:

        C_y[i] = A1y C_xi + A2y C_f B_{theta_C,1} (T-t_i)^theta_C
        C_z[i] = A1z osc_i / sqrt(T-t_i)
                 + A2z C_f B_{theta_C,1/2} (T-t_i)^(theta_C - 1/2)
                 + A3z C_xi (T-t_i)^(theta_L / 2)

    with osc_i the conditional-oscillation bound (see `_oscillation`).
    """
    ttg = _time_to_go(pc, grid)
    a = apriori_constants(pc)
    c_y = _safe_prod(a.A1y, pc.C_xi) + _scaled(
        _safe_prod(a.A2y, pc.C_f, B_const(pc.theta_C, 1.0, pc.R_pi)),
        ttg**pc.theta_C,
    )
    c_z = (
        _scaled(a.A1z, _oscillation(pc, ttg) / np.sqrt(ttg))
        + _scaled(
            _safe_prod(a.A2z, pc.C_f, B_const(pc.theta_C, 0.5, pc.R_pi)),
            ttg ** (pc.theta_C - 0.5),
        )
        + _scaled(_safe_prod(a.A3z, pc.C_xi), ttg ** (pc.theta_L / 2.0))
    )
    return c_y, c_z


def _driver_output_terms(pc: ProblemConstants) -> list[tuple[float, float, bool]]:
    """Term list (coefficient, power, is_driver_bucket) such that the driver
    values inside the responses satisfy

        |f_j(x_j, y^M_{j+1}(x_{j+1}), z^M_j(x_j))|
            <= sum over terms of  coefficient * (T - t_j)^power.

    Built from the Lipschitz/boundedness declaration with the same truncation
    levels C_{y,j+1}, C_{z,j} that `as_bounds` produces (the j+1 in the
    y-bound is dominated by the j-value since C_y is nonincreasing toward T
    term by term — each term's (T-t)^positive factor is simply bounded by the
    value at t_j).  Terms flagged is_driver_bucket carry the C_f factor and
    fold into the (T-t_i)^theta_C bucket; the others fold into constants.
    """
    a = apriori_constants(pc)
    lip = pc.L_f
    sing = (pc.theta_L - 1.0) / 2.0  # power of (T-t_j) on the Lipschitz factor
    terms: list[tuple[float, float, bool]] = []
    # y-truncation contribution L_f * C_{y,j+1} / (T-t_j)^((1-theta_L)/2):
    terms.append((_safe_prod(lip, a.A1y, pc.C_xi), sing, False))
    terms.append(
        (
            _safe_prod(lip, a.A2y, pc.C_f, B_const(pc.theta_C, 1.0, pc.R_pi)),
            pc.theta_C + sing,
            True,
        )
    )
    # z-truncation contribution L_f * C_{z,j} / (T-t_j)^((1-theta_L)/2):
    if pc.C_phi is not None:
        terms.append(
            (_safe_prod(lip, a.A1z, pc.C_phi), (pc.theta_phi - 1.0) / 2.0 + sing, False)
        )
    else:
        terms.append((_safe_prod(lip, a.A1z, 2.0 * pc.C_xi), -0.5 + sing, False))
    terms.append(
        (
            _safe_prod(lip, a.A2z, pc.C_f, B_const(pc.theta_C, 0.5, pc.R_pi)),
            pc.theta_C - 0.5 + sing,
            True,
        )
    )
    terms.append((_safe_prod(lip, a.A3z, pc.C_xi), pc.theta_L / 2.0 + sing, False))
    # zero-point bound C_f / (T-t_j)^(1-theta_C):
    terms.append((pc.C_f, pc.theta_C - 1.0, True))
    return terms


def _theta_coefficients(pc: ProblemConstants) -> tuple[float, float, float, float]:
    """Canonical observation-bound coefficients (c1, c2, c3, c4) with

        Theta_y[i] = c1 + c2 * (T - t_i)^theta_C
        Theta_z[i] = c3 * (T - t_i)^(-1/2) + c4 * (T - t_i)^(theta_C - 1/2).

    Each driver term coefficient * (T-t_j)^p is summed over j with the
    single (for y) or double-with-sqrt (for z) weighted-sum bound and the
    leftover positive power of (T - t_i) is folded into the matching bucket
    by bounding it with the same power of T.
    """
    terms = _driver_output_terms(pc)
    T, R = pc.T, pc.R_pi
    c1 = pc.C_xi
    c2 = 0.0
    c3 = 2.0 * pc.C_M * pc.C_xi  # the centered terminal term, see obs_bounds
    c4 = 0.0
    for coef, power, driver_bucket in terms:
        a_y = power + 1.0  # exponent after the single-sum bound
        val_y = coef * B_const(a_y, 1.0, R)
        a_z = power + 0.5  # exponent after the double-sum bound, beta = 1/2
        val_z = coef * pc.C_M * B_const(a_y, 0.5, R)
        if driver_bucket:
            c2 += val_y * T ** (a_y - pc.theta_C)
            c4 += val_z * T ** (a_z - (pc.theta_C - 0.5))
        else:
            c1 += val_y * T**a_y
            c3 += val_z * T ** (a_z + 0.5)
    return c1, c2, c3, c4


def obs_bounds(pc: ProblemConstants, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Observation bounds (Theta_y[i], Theta_z[i]) on regression responses.

    Theta_y[i] bounds the y-response almost surely; Theta_z[i] bounds the
    conditional L2 norm (E[|.|^2 | F_i])^(1/2) of each z-response component.
    Both are assembled from the driver output bound and the weighted-sum
    constants, in the canonical shape

        Theta_y[i] = c1 + c2 (T-t_i)^theta_C,
        Theta_z[i] = c3 (T-t_i)^(-1/2) + c4 (T-t_i)^(theta_C-1/2).

    The terminal part of c3 is 2 C_M C_xi, for the centered terminal term
    (phi(X_N) - phi(X_i)) H^(i)_N of the solver's z-response: almost surely
    |phi(X_N) - phi(X_i)| <= 2 C_xi, and the weight moment bound gives
    (E[|H^(i)_N|^2 | F_i])^(1/2) <= C_M (T-t_i)^(-1/2).  C_phi is not used
    here: it bounds |xi - E[xi | F_i]|_{2,i}, and phi(X_i) is not
    E[xi | F_i], so it gives no bound on |phi(X_N) - phi(X_i)|.
    """
    ttg = _time_to_go(pc, grid)
    c1, c2, c3, c4 = _theta_coefficients(pc)
    theta_y = c1 + c2 * ttg**pc.theta_C
    theta_z = c3 / np.sqrt(ttg) + c4 * ttg ** (pc.theta_C - 0.5)
    return theta_y, theta_z


def dep_errors(C_bound, K, M, q: int = 1):
    """Interdependence error of one nested regression:

        C_bound * sqrt(2028 (K+1) q log(3M) / M)

    with q = 1 for the y-component and q the weight dimension for the
    z-component.

    Accepts scalars or aligned arrays.  The switch between the empirical
    norm of a fit and the true-measure norm costs at most sqrt(2) times the
    empirical error plus this quantity.
    """
    C_arr = np.asarray(C_bound, dtype=float)
    K_arr = np.asarray(K, dtype=float)
    M_arr = np.asarray(M, dtype=float)
    if not np.all(C_arr >= 0.0):
        raise ValueError("bound C_bound must be nonnegative")
    if not np.all(K_arr >= 0.0):
        raise ValueError("basis dimension K must be nonnegative")
    if not np.all(M_arr >= 1.0):
        raise ValueError("sample count M must be >= 1")
    if not q >= 1:
        raise ValueError(f"weight dimension q must be >= 1, got {q}")
    out = C_arr * np.sqrt(2028.0 * (K_arr + 1.0) * float(q) * np.log(3.0 * M_arr) / M_arr)
    return float(out) if np.isscalar(C_bound) and out.ndim == 0 else out


def propagation_constants(pc: ProblemConstants) -> tuple[float, float]:
    """Constants (A_My, A_Mz) weighing the local error terms in the global
    error bound; built from the closed recursive inequality with feedback
    strength C_u = L_f (sqrt(2) C_M + 4 sqrt(T))."""
    T, C_M, L_f = pc.T, pc.C_M, pc.L_f
    th = pc.theta_L
    sqrt_T = math.sqrt(T)
    C_u = L_f * (math.sqrt(2.0) * C_M + 4.0 * sqrt_T)
    c1 = c_gamma(C_u, T, 0.0, th / 2.0, 1.0, pc.R_pi)
    c12 = c_gamma(C_u, T, 0.0, th / 2.0, 0.5, pc.R_pi)
    a_my = 2.0 + _safe_prod(
        4.0,
        L_f,
        c1,
        1.0 + B_const(th / 2.0, 1.0, pc.R_pi) * T ** (th / 2.0) * (C_M + 2.0 * sqrt_T),
    )
    a_mz = C_M + _safe_prod(
        math.sqrt(2.0),
        C_M,
        L_f,
        c12,
        1.0 + B_const(th / 2.0, 0.5, pc.R_pi) * T ** (th / 2.0) * (C_M + 2.0 * sqrt_T),
    )
    return a_my, a_mz


def _per_index_array(name: str, values, n: int) -> np.ndarray:
    """values as a float array, checked to hold one value per index."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(
            f"{name} must supply one value per index 0..N-1 "
            f"(expected length {n}, got shape {arr.shape})"
        )
    return arr


def global_error_bound(table: BoundsTable, e_app_y, e_app_z) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the global error bound from a bounds table and the
    best-approximation errors per index, e_app_y and e_app_z, length N.

    The table must be `bounds_table(pc, grid, k_y, k_z, m)`, built with the
    basis dimensions and cloud sizes; its constants C, Theta, E_dep and A_M
    and its K and M enter the bound.

    Returns (bound_y, bound_z), upper bounds for the empirical-norm errors
    of the fitted y- and z-estimators at every index.  Contributions indexed
    at N are zero: the terminal estimator is the terminal function itself
    and no regression happens there.
    """
    if table.M is None:
        raise ValueError(
            "the error bound needs a bounds table built with the basis dimensions "
            "and cloud sizes, bounds_table(pc, grid, k_y, k_z, m)"
        )
    pc, grid = table.pc, table.grid
    N = grid.N
    e_app_y = _per_index_array("e_app_y", e_app_y, N)
    e_app_z = _per_index_array("e_app_z", e_app_z, N)
    if np.any(e_app_y < 0.0) or np.any(e_app_z < 0.0):
        raise ValueError("approximation errors must be nonnegative")

    # Theta sqrt(K/M), 0 at K = 0 even when Theta overflowed to inf
    stat_y = _scaled(table.Theta_y, np.sqrt(table.K_y / table.M))
    stat_z = _scaled(table.Theta_z, np.sqrt(table.K_z / table.M))
    dep_y, dep_z = table.E_dep_Y, table.E_dep_Z

    local_y = e_app_y + stat_y  # per-index y-term of E(k)
    local = np.empty(N)
    for k in range(N):
        next_y = local_y[k + 1] if k + 1 < N else 0.0
        next_dep = dep_y[k + 1] if k + 1 < N else 0.0
        local[k] = next_y + e_app_z[k] + stat_z[k] + _safe_prod(pc.L_f, next_dep + dep_z[k])

    a_my, a_mz = table.AMy, table.AMz
    t = grid.points
    ttg = pc.T - t[:-1]
    sing = ttg ** ((1.0 - pc.theta_L) / 2.0)
    weighted = local * grid.steps / sing

    bound_y = np.empty(N)
    bound_z = np.empty(N)
    for k in range(N):
        bound_y[k] = local_y[k] + a_my * weighted[k:].sum()
        j = np.arange(k + 1, N)
        tail = (weighted[j] / np.sqrt(t[j] - t[k])).sum() if j.size else 0.0
        bound_z[k] = e_app_z[k] + stat_z[k] + a_mz * tail
    return bound_y, bound_z


@dataclass(frozen=True)
class BoundsTable:
    """Per-index constants of a problem on a grid, plus the scalar stability
    and propagation constants.  Immutable after construction.

    pc, grid, and the basis dimensions K_y, K_z and cloud sizes M per index
    are the inputs the table was built from; K_y, K_z and M are None for a
    table built without them.
    """

    pc: ProblemConstants
    grid: TimeGrid
    K_y: np.ndarray | None
    K_z: np.ndarray | None
    M: np.ndarray | None
    C_y: np.ndarray
    C_z: np.ndarray
    Theta_y: np.ndarray
    Theta_z: np.ndarray
    E_dep_Y: np.ndarray
    E_dep_Z: np.ndarray
    A1y: float
    A2y: float
    A1z: float
    A2z: float
    A3z: float
    AMy: float
    AMz: float


def bounds_table(
    pc: ProblemConstants,
    grid: TimeGrid,
    k_y=None,
    k_z=None,
    m=None,
) -> BoundsTable:
    """Assemble the full per-index constants table.

    The interdependence-error columns need the basis dimensions k_y, k_z and
    the cloud sizes m, each with one value per index; given none of the
    three, the columns are zero.
    """
    c_y, c_z = as_bounds(pc, grid)
    theta_y, theta_z = obs_bounds(pc, grid)
    if k_y is None and k_z is None and m is None:
        dep_y = np.zeros(grid.N)
        dep_z = np.zeros(grid.N)
    else:
        k_y, k_z, m = (
            _per_index_array(name, values, grid.N)
            for name, values in (("k_y", k_y), ("k_z", k_z), ("m", m))
        )
        dep_y = dep_errors(c_y, k_y, m)
        dep_z = dep_errors(c_z, k_z, m, pc.q)
    a = apriori_constants(pc)
    a_my, a_mz = propagation_constants(pc)
    return BoundsTable(
        pc=pc,
        grid=grid,
        K_y=k_y,
        K_z=k_z,
        M=m,
        C_y=c_y,
        C_z=c_z,
        Theta_y=theta_y,
        Theta_z=theta_z,
        E_dep_Y=dep_y,
        E_dep_Z=dep_z,
        A1y=a.A1y,
        A2y=a.A2y,
        A1z=a.A1z,
        A2z=a.A2z,
        A3z=a.A3z,
        AMy=a_my,
        AMz=a_mz,
    )
