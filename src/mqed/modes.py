"""The 6x6 Laplace-domain constitutive/Maxwell system and the
mode-coefficient tensors of the field operators.

Lambda(k, rho) stacks the curl symbol against the rho-weighted material
tensors,

    Lambda = [[O(k), -rho mu_hat], [rho eps_hat (+ sigma_hat), O(k)]],

and its inverse, pushed through the inverse Laplace transform, yields the
coefficient tensors gamma, xi, zeta, eta (electric rows) and their tilde
partners (magnetic rows):

    gamma_ij   = L^-1[ (Lambda^-1)_{i, j+3} ]
    xi_ij      = -L^-1[ (Lambda^-1)_{i, j} ]
    zeta_ij    = mu0 L^-1[ rho/(rho + i w_q) (Lambda^-1)_{i, l} g_lj ]
    eta_ij     = -L^-1[ rho/(rho + i w_q) (Lambda^-1)_{i, l+3} f_lj ]

with rows i+3 for the tilde set. Three inverse-transform methods are
provided (`METHODS`, with "auto"): exact partial fractions for rational
(isotropic damped-oscillator) media, a deformed cotangent contour that
cross-checks them, and a vacuum-subtracted Bromwich line for
continuum-absorption media whose imaginary-axis branch cut blocks contour
deformation. Their numerical controls are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .couplings import ELECTRIC, MAGNETIC, eval_coupling_batch, zero_coupling
from .errors import (
    LeftHalfPlane,
    PoleFindingFailed,
    SingularLambda,
    TalbotNotConverged,
    ValidationError,
)
from .rational import Rational, ilt_rational, partial_fractions
from .response import _TABLE_ELEMENTS, LaplaceResponse, laplace_response, uniform_step
from .tensors import (
    curl_symbol,
    longitudinal_projector,
    reciprocal_condition,
    transverse_projector,
)

MARGINAL_POLE_TOL = 1e-12
METHODS = ("auto", "rational_exact", "talbot", "bromwich_line")
# the relative tolerance of pole finding; the contour's node-count range,
# tolerance and t = 0 limit point; the line's abscissa (times 1 / t_max),
# half-width (times the largest frequency scale) and halving tolerance
_POLE_TOL = 1e-7
_TALBOT_START_N = 24
_TALBOT_MAX_N = 2048
_TALBOT_RTOL = 1e-9
_LIMIT_RHO = 1e8
_LINE_ABSCISSA_FACTOR = 3.0
_LINE_HALFWIDTH_FACTOR = 160.0
_LINE_RTOL = 1e-4


@dataclass(frozen=True)
class LambdaMatrix:
    k: np.ndarray
    rho: complex | np.ndarray  # a scalar, or the 1-d stack of rho values
    value: np.ndarray  # (6, 6), or (n, 6, 6) for a 1-d rho


def assemble_lambda(
    response: LaplaceResponse,
    k,
    rho,
    continued: bool = False,
    curl_sign: int = +1,
) -> LambdaMatrix:
    """Build Lambda(k, rho); a response with a free-carrier part adds its
    sigma_hat to the rho eps_hat block. A scalar rho gives one (6, 6)
    matrix, a 1-d rho the (n, 6, 6) stack from one batched evaluation of
    each material tensor.

    continued=True allows Re rho <= 0 through analytic continuation, which
    only rational responses support (contour transforms use it internally).
    curl_sign flips the curl blocks (Lambda(-k, rho) for even media): the
    mode solver uses -1 internally, the one reading of the block system that
    reproduces the initial-data expansions with forward-evolving phases and
    conserves the equal-time commutators (see mode_coefficients).
    """
    scalar = np.ndim(rho) == 0
    rho = np.asarray(rho, dtype=complex)
    left = np.real(rho) <= 0.0
    if not continued and np.any(left):
        raise LeftHalfPlane(f"Lambda requires Re rho > 0, got {complex(rho[left][0])}")
    k = np.asarray(k, dtype=float)
    r = rho[..., None, None]
    value = np.empty(rho.shape + (6, 6), dtype=complex)
    value[..., :3, :3] = value[..., 3:, 3:] = curl_sign * curl_symbol(k)
    value[..., :3, 3:] = -r * response.mu(k, rho, continued=continued)
    value[..., 3:, :3] = r * response.eps(k, rho, continued=continued)
    if response.model_free is not None:
        value[..., 3:, :3] += response.sigma(k, rho, continued=continued)
    return LambdaMatrix(k=k, rho=complex(rho) if scalar else rho, value=value)


def _checked_inverse(lam: LambdaMatrix, rcond_min: float = 1e-12):
    """Lambda^-1 (of one matrix or of every member of a stack) and the
    reciprocal conditions that guarded it."""
    rc = np.atleast_1d(reciprocal_condition(lam.value))
    worst = int(np.argmin(rc))
    if rc[worst] < rcond_min:
        rho = complex(np.ravel(lam.rho)[worst])
        raise SingularLambda(
            f"Lambda reciprocal condition {rc[worst]:.3e} below {rcond_min:g} at rho={rho}",
            k=lam.k,
            rho=rho,
        )
    return np.linalg.inv(lam.value), rc


def invert_lambda(lam: LambdaMatrix, rcond_min: float = 1e-12) -> np.ndarray:
    """Inverse of Lambda with a reciprocal-condition guard on every member
    of a stack; SingularLambda names the worst member's rho.

    Singular inversions happen on the imaginary-rho dispersion shell; callers
    must keep the contour off the imaginary axis.
    """
    return _checked_inverse(lam, rcond_min)[0]


# cotangent-contour parameters tuned for the midpoint rule; exp(rho t) stays
# bounded by exp(0.18 n) along the contour, so node doubling does not blow up
# in double precision the way the classic r = 2n/(5t) scaling does
_TALBOT_SIGMA = 0.6122
_TALBOT_MU = 0.5017
_TALBOT_ALPHA = 0.6407
_TALBOT_NU = 0.2645


def _talbot_nodes(t: float, n: int):
    """Two-sided deformed-contour nodes and quadrature weights.

    The midpoint discretization over theta in (-pi, pi) keeps both contour
    halves without assuming the transform is real-valued (the reservoir
    factors rho/(rho + i w_q) are not). Poles must lie left of the contour,
    which crosses the imaginary axis near +-0.33 n / t."""
    if n % 2:
        n += 1
    if 0.18 * n > 700.0:
        raise TalbotNotConverged("node count beyond double-precision contour range")
    theta = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    s = n / t
    at = _TALBOT_ALPHA * theta
    cot = np.cos(at) / np.sin(at)
    rho = s * (-_TALBOT_SIGMA + _TALBOT_MU * theta * cot + 1j * _TALBOT_NU * theta)
    drho = s * (
        _TALBOT_MU * cot
        - _TALBOT_MU * _TALBOT_ALPHA * theta / np.sin(at) ** 2
        + 1j * _TALBOT_NU
    )
    weights = np.exp(rho * t) * drho / (1j * n)
    return rho, weights


def _limit_value(evaluator):
    """t -> 0+ value through the initial-value theorem: rho F(rho) at two
    large real rho, Richardson-extrapolated against the 1/rho correction."""
    g1 = _LIMIT_RHO * np.asarray(evaluator(_LIMIT_RHO + 0.0j))
    g2 = 2.0 * _LIMIT_RHO * np.asarray(evaluator(2.0 * _LIMIT_RHO + 0.0j))
    return 2.0 * g2 - g1


@dataclass(frozen=True)
class ModeCoefficients:
    """gamma/xi/zeta/eta (electric rows) and tilde partners (magnetic rows)
    on the (t, reservoir frequency) grids, plus the coupling tensors at the
    reservoir nodes that the field assembly contracts against."""

    k: np.ndarray
    t_grid: np.ndarray
    omega_q_grid: np.ndarray
    gamma: np.ndarray  # (n_t, 3, 3)
    xi: np.ndarray
    gamma_tilde: np.ndarray
    xi_tilde: np.ndarray
    zeta: np.ndarray  # (n_q, n_t, 3, 3)
    eta: np.ndarray
    zeta_tilde: np.ndarray
    eta_tilde: np.ndarray
    f_q: np.ndarray  # (n_q, 3, 3) electric coupling at (omega_q, k)
    g_q: np.ndarray
    metadata: dict = field(default_factory=dict)


def _scalar_rationals(response: LaplaceResponse, k: np.ndarray):
    """Scalar transverse/longitudinal pieces of Lambda^-1 for isotropic
    rational media. Returns (t_eh, t_ee, l_e, t_he, l_h) with
    D_T = k^2 + rho mu_hat (rho eps_hat + sigma_hat)."""
    eps_rat, mu_rat, sigma_rat = response.rational_scalars()
    rho = Rational.variable()
    a_rat = rho * eps_rat + sigma_rat
    d_t = (rho * mu_rat) * a_rat + float(k @ k)
    t_eh = (rho * mu_rat) / d_t
    t_ee = Rational.constant(1.0) / d_t
    l_e = Rational.constant(1.0) / a_rat
    t_he = a_rat / d_t
    l_h = Rational.constant(1.0) / (rho * mu_rat)
    return t_eh, t_ee, l_e, t_he, l_h


def _pole_flags(poles: np.ndarray) -> dict:
    re = np.real(poles)
    return {
        "n_poles": int(poles.size),
        "max_re_pole": float(np.max(re)) if poles.size else 0.0,
        "marginal_poles": int(np.sum(np.abs(re) <= MARGINAL_POLE_TOL)),
        "unstable_poles": int(np.sum(re > MARGINAL_POLE_TOL)),
    }


def _ilt_with_reservoir(rat: Rational, omega_q: np.ndarray, t: np.ndarray):
    """L^-1[rho/(rho + i w_q) * rat] for every reservoir frequency at once.

    The base poles are shared; only the extra pole at -i w_q and the residue
    weights depend on w_q, so the expansion vectorizes over the grid."""
    if rat.is_zero or omega_q.size == 0:
        return np.zeros((omega_q.size, t.size), dtype=complex)
    poles, _ = partial_fractions(rat, _POLE_TOL)
    num = rat.num
    den = rat.den
    from numpy.polynomial import polynomial as P

    dden = P.polyder(den)
    extra = -1j * omega_q  # (n_q,)
    if poles.size:
        dist = np.abs(extra[:, None] - poles[None, :])
        if float(np.min(dist)) < _POLE_TOL * max(1.0, float(np.max(np.abs(poles)))):
            raise PoleFindingFailed("reservoir pole collides with a medium pole")
        # residue of rho/(rho+iw) rat at base pole p: p num(p) / ((p+iw) den'(p))
        pn = P.polyval(poles, num) * poles / P.polyval(poles, dden)  # (n_p,)
        res_base = pn[None, :] / (poles[None, :] - extra[:, None])  # (n_q, n_p)
    else:
        res_base = np.zeros((omega_q.size, 0), dtype=complex)
    # residue at rho = -i w_q: (-i w) num(-i w) / den(-i w)
    res_extra = extra * P.polyval(extra, num) / P.polyval(extra, den)  # (n_q,)
    exp_base = np.exp(np.outer(poles, t))  # (n_p, n_t)
    exp_extra = np.exp(np.outer(extra, t))  # (n_q, n_t)
    out = res_base @ exp_base + res_extra[:, None] * exp_extra
    return out


def _rational_mode_path(response, model_f, model_g, k, t, omega_q):
    p_t = transverse_projector(k).astype(complex)
    p_l = longitudinal_projector(k).astype(complex)
    o = -curl_symbol(k)  # the commutator-conserving curl-block orientation
    t_eh, t_ee, l_e, t_he, l_h = _scalar_rationals(response, k)
    mu0 = response.constants.mu0

    ilt = {}
    all_poles = []
    for name, rat in (("t_eh", t_eh), ("t_ee", t_ee), ("l_e", l_e), ("t_he", t_he), ("l_h", l_h)):
        values, poles, _ = ilt_rational(rat, t, pole_tol=_POLE_TOL)
        ilt[name] = values
        all_poles.append(poles)
    gamma = ilt["t_eh"][:, None, None] * p_t + ilt["l_e"][:, None, None] * p_l
    xi = -ilt["t_ee"][:, None, None] * o
    gamma_t = ilt["t_ee"][:, None, None] * o
    xi_t = ilt["t_he"][:, None, None] * p_t + ilt["l_h"][:, None, None] * p_l

    f_q = eval_coupling_batch(model_f, omega_q, k) if omega_q.size else np.zeros((0, 3, 3), complex)
    g_q = eval_coupling_batch(model_g, omega_q, k) if omega_q.size else np.zeros((0, 3, 3), complex)
    shape = (omega_q.size, t.size, 3, 3)
    zeta = np.zeros(shape, dtype=complex)
    eta = np.zeros(shape, dtype=complex)
    zeta_t = np.zeros(shape, dtype=complex)
    eta_t = np.zeros(shape, dtype=complex)
    if omega_q.size and not (model_f.is_zero and model_g.is_zero):
        w_ee = _ilt_with_reservoir(t_ee, omega_q, t)  # read by zeta and eta-tilde
        if not model_g.is_zero:
            zeta = mu0 * np.einsum("qt,ab,qbc->qtac", w_ee, o, g_q)
            w_he = _ilt_with_reservoir(t_he, omega_q, t)
            w_lh = _ilt_with_reservoir(l_h, omega_q, t)
            zeta_t = -mu0 * (
                np.einsum("qt,ab,qbc->qtac", w_he, p_t, g_q)
                + np.einsum("qt,ab,qbc->qtac", w_lh, p_l, g_q)
            )
        if not model_f.is_zero:
            w_eh = _ilt_with_reservoir(t_eh, omega_q, t)
            w_le = _ilt_with_reservoir(l_e, omega_q, t)
            eta = -(
                np.einsum("qt,ab,qbc->qtac", w_eh, p_t, f_q)
                + np.einsum("qt,ab,qbc->qtac", w_le, p_l, f_q)
            )
            eta_t = -np.einsum("qt,ab,qbc->qtac", w_ee, o, f_q)
    poles = np.concatenate(all_poles) if all_poles else np.zeros(0, complex)
    return ModeCoefficients(
        k=k, t_grid=t, omega_q_grid=omega_q,
        gamma=gamma, xi=xi, gamma_tilde=gamma_t, xi_tilde=xi_t,
        zeta=zeta, eta=eta, zeta_tilde=zeta_t, eta_tilde=eta_t,
        f_q=f_q, g_q=g_q,
        metadata={"method": "rational_exact", **_pole_flags(poles)},
    )


# rows and columns of the four 3x3 blocks of Lambda^-1
_BLOCKS = {
    "ee": (slice(0, 3), slice(0, 3)),
    "eh": (slice(0, 3), slice(3, 6)),
    "he": (slice(3, 6), slice(0, 3)),
    "hh": (slice(3, 6), slice(3, 6)),
}


def _talbot_mode_path(response, model_f, model_g, k, t, omega_q):
    """Contour inversion with the reservoir oscillation split off exactly.

    The factor rho/(rho + i w_q) carries a pole at -i w_q that can sit far
    up the imaginary axis, where no contour reaches at large w_q t. Writing

      L^-1[fac G] = g(t) - i w_q ( L^-1[(G - G_ax)/(rho + i w_q)] + G_ax e^{-i w_q t} )

    with G_ax = G(-i w_q) removes that pole from the contour integrand (the
    subtracted numerator vanishes there), leaving only medium-scale poles.
    The response is rational on this path, so G_ax is its analytic
    continuation to the axis, which is the boundary value there."""
    mu0 = response.constants.mu0
    f_q = eval_coupling_batch(model_f, omega_q, k) if omega_q.size else np.zeros((0, 3, 3), complex)
    g_q = eval_coupling_batch(model_g, omega_q, k) if omega_q.size else np.zeros((0, 3, 3), complex)
    n_t = t.size
    n_q = omega_q.size
    need_f = n_q > 0 and not model_f.is_zero
    need_g = n_q > 0 and not model_g.is_zero
    gamma = np.empty((n_t, 3, 3), dtype=complex)
    xi = np.empty_like(gamma)
    gamma_t = np.empty_like(gamma)
    xi_t = np.empty_like(gamma)
    zeta = np.zeros((n_q, n_t, 3, 3), dtype=complex)
    eta = np.zeros_like(zeta)
    zeta_t = np.zeros_like(zeta)
    eta_t = np.zeros_like(zeta)
    rcond_worst = 1.0

    def lam_inv(rho):
        # one guarded inversion of a contour node set (or of a large real
        # rho); its conditions feed the worst_rcond metadata
        nonlocal rcond_worst
        lam = assemble_lambda(response, k, rho, continued=True, curl_sign=-1)
        inv, rc = _checked_inverse(lam)
        rcond_worst = min(rcond_worst, float(np.min(rc)))
        return inv

    inv_ax = None
    if need_f or need_g:
        inv_ax = invert_lambda(assemble_lambda(
            response, k, -1j * omega_q, continued=True, curl_sign=-1
        ))

    def limit_parts(rho):
        # the four base blocks, then the four reservoir families: (4 + 4 n_q, 3, 3)
        inv = lam_inv(rho)
        parts = [inv[None, :3, 3:], -inv[None, :3, :3], inv[None, 3:, 3:], -inv[None, 3:, :3]]
        if n_q:
            fac = rho / (rho + 1j * omega_q)  # (q,)
            parts.append(mu0 * fac[:, None, None] * (inv[:3, :3] @ g_q))
            parts.append(-fac[:, None, None] * (inv[:3, 3:] @ f_q))
            parts.append(mu0 * fac[:, None, None] * (inv[3:, :3] @ g_q))
            parts.append(-fac[:, None, None] * (inv[3:, 3:] @ f_q))
        return np.concatenate(parts)

    def eval_all(ti, n):
        rho_nodes, w_nodes = _talbot_nodes(ti, n)
        inv = lam_inv(rho_nodes)  # (n, 6, 6)
        base = (
            np.einsum("n,nab->ab", w_nodes, inv[:, :3, 3:]),
            -np.einsum("n,nab->ab", w_nodes, inv[:, :3, :3]),
            np.einsum("n,nab->ab", w_nodes, inv[:, 3:, 3:]),
            -np.einsum("n,nab->ab", w_nodes, inv[:, 3:, :3]),
        )
        convs = {}
        if inv_ax is not None:
            denom = rho_nodes[None, :] + 1j * omega_q[:, None]  # (q, n)
            cw = w_nodes[None, :] / denom
            for name, (rows, cols) in _BLOCKS.items():
                convs[name] = np.einsum("qn,nab->qab", cw, inv[:, rows, cols]) - np.einsum(
                    "qn,qab->qab", cw, inv_ax[:, rows, cols]
                )
        return base, convs

    for it, ti in enumerate(t):
        if ti == 0.0:
            lim = _limit_value(limit_parts)
            gamma[it], xi[it], gamma_t[it], xi_t[it] = lim[:4]
            if n_q:
                zeta[:, it], eta[:, it], zeta_t[:, it], eta_t[:, it] = np.split(lim[4:], 4)
            continue

        n = _TALBOT_START_N
        got = None
        best = np.inf
        while n <= _TALBOT_MAX_N:
            # paired evaluation: n and n+16 sit at a similar round-off floor,
            # so their difference is an honest error estimate even past the
            # accuracy optimum (where plain doubling misleads)
            a_base, a_convs = eval_all(ti, n)
            b_base, b_convs = eval_all(ti, n + 16)
            flat_a = np.concatenate([np.ravel(x) for x in a_base]
                                    + [np.ravel(v) for v in a_convs.values()])
            flat_b = np.concatenate([np.ravel(x) for x in b_base]
                                    + [np.ravel(v) for v in b_convs.values()])
            scale = float(np.max(np.abs(flat_b))) or 1.0
            diff = float(np.max(np.abs(flat_a - flat_b)))
            if diff <= _TALBOT_RTOL * scale:
                got = (b_base, b_convs)
                break
            if diff > 4.0 * best and best < 1e-3 * scale:
                break  # round-off floor passed; more nodes only hurt
            best = min(best, diff)
            n = int(np.ceil(n * 1.4))
        if got is None:
            raise TalbotNotConverged(
                f"talbot mode coefficients at t={ti:g} stalled at estimate {best:g}"
            )
        (g, x, gt, xt), convs = got
        gamma[it], xi[it], gamma_t[it], xi_t[it] = g, x, gt, xt
        if inv_ax is not None:
            osc = np.exp(-1j * omega_q * ti)  # (q,)
            iw = 1j * omega_q

            def reservoir(name, g_of_t, coupling):
                rows, cols = _BLOCKS[name]
                conv = convs[name] + osc[:, None, None] * inv_ax[:, rows, cols]
                total = g_of_t[None, :, :] - iw[:, None, None] * conv
                return total @ coupling

            if need_g:
                zeta[:, it] = mu0 * reservoir("ee", -x, g_q)
                zeta_t[:, it] = mu0 * reservoir("he", -xt, g_q)
            if need_f:
                eta[:, it] = -reservoir("eh", g, f_q)
                eta_t[:, it] = -reservoir("hh", gt, f_q)

    return ModeCoefficients(
        k=k, t_grid=t, omega_q_grid=omega_q,
        gamma=gamma, xi=xi, gamma_tilde=gamma_t, xi_tilde=xi_t,
        zeta=zeta, eta=eta, zeta_tilde=zeta_t, eta_tilde=eta_t,
        f_q=f_q, g_q=g_q,
        metadata={"method": "talbot", "worst_rcond": rcond_worst},
    )


def _line_mode_path(response, model_f, model_g, k, t, omega_q):
    """Vacuum-subtracted Bromwich-line inversion for continuum-absorption
    media.

    The free-space part of Lambda^-1 is inverted exactly (rational path, with
    the reservoir factors included), and only the medium-vacuum difference,
    which decays like |rho|^-3 along the line Re rho = a, is integrated
    numerically. All material evaluations stay in Re rho > 0, so the
    imaginary-axis branch cut of the absorption continuum is never crossed.
    """
    constants = response.constants
    vac = laplace_response(zero_coupling(ELECTRIC), zero_coupling(MAGNETIC),
                           constants=constants, quad=response.quad)
    vac_modes = _rational_mode_path(vac, model_f, model_g, k, t, omega_q)
    f_q, g_q = vac_modes.f_q, vac_modes.g_q
    n_q = omega_q.size
    need_f = n_q > 0 and not model_f.is_zero
    need_g = n_q > 0 and not model_g.is_zero

    t_max = float(np.max(t)) if np.max(t) > 0 else 1.0
    a = _LINE_ABSCISSA_FACTOR / t_max
    scales = [1.0, constants.c * float(np.linalg.norm(k))]
    for m in (model_f, model_g):
        if not m.is_zero:
            scales.append(m.frequency_scale)
    y_top = _LINE_HALFWIDTH_FACTOR * max(scales)
    dy = min(0.5 / t_max, a / 6.0)
    n_y = int(2.0 * y_top / dy) + 1
    y = np.linspace(-y_top, y_top, n_y)
    dy = y[1] - y[0]
    rho = a + 1j * y

    # unguarded: a guard would cost one SVD per line point, and the line
    # stays a distance a off the imaginary-axis dispersion shell
    inv_med = np.linalg.inv(assemble_lambda(response, k, rho, curl_sign=-1).value)
    inv_vac = np.linalg.inv(assemble_lambda(vac, k, rho, curl_sign=-1).value)
    # the medium-vacuum difference, ~ |rho|^-3 tail, with the line measure
    # dy / 2 pi folded in; columns hold all four 3x3 blocks of the 6x6
    diff = (inv_med - inv_vac).reshape(n_y, 36) * (dy / (2.0 * np.pi))
    # right-hand side of every line sum: the sum itself, and as a zero-
    # interleaved second half the same sum over every other line point
    # (the grid-halving error estimate)
    rhs = np.zeros((n_y, 72), dtype=complex)
    rhs[:, :36] = diff
    rhs[::2, 36:] = 2.0 * diff[::2]
    diff = diff.reshape(n_y, 6, 6)

    # reservoir sums conv[q] = sum_j phase_j block_j / (rho_j + i w_q), with
    # the factor folded into the block side in column chunks of bounded size
    res_names = (("ee", "he") if need_g else ()) + (("eh", "hh") if need_f else ())
    res_blocks = {n: diff[:, _BLOCKS[n][0], _BLOCKS[n][1]].reshape(n_y, 9) for n in res_names}
    conv = {n: np.empty((n_q, t.size, 3, 3), dtype=complex) for n in res_names}
    fac_d = 1.0 / (rho[:, None] + 1j * omega_q[None, :])  # (j, q)
    q_step = max(1, _TABLE_ELEMENTS // (9 * n_y))

    # phase table exp(t rho_j) in t-row chunks of bounded size. On a uniform
    # grid, t[start + i] = t[i] + start h, so every chunk reuses the first
    # chunk's table, with the factor exp(start h rho_j) folded into the
    # right-hand sides: n_y (72 + n_q) multiplies per chunk instead of a
    # complex exp per table entry
    base = np.empty((t.size, 36), dtype=complex)
    halving = 0.0
    rows = max(1, _TABLE_ELEMENTS // n_y)
    h = uniform_step(t)
    table = None
    for start in range(0, t.size, rows):
        sl = slice(start, start + rows)
        if h is None or table is None:
            table = np.multiply.outer(t[sl], rho)
            np.exp(table, out=table)
            lhs, rhs_c, fac_c = table, rhs, fac_d
        else:
            shift = np.exp((start * h) * rho)[:, None]
            lhs = table[: t[sl].size]
            rhs_c, fac_c = shift * rhs, shift * fac_d
        both = lhs @ rhs_c
        base[sl] = both[:, :36]
        halving = max(halving, float(np.max(np.abs(both[:, :36] - both[:, 36:]))))
        for name in res_names:
            for q0 in range(0, n_q, q_step):
                qs = slice(q0, q0 + q_step)
                scaled = fac_c[:, qs, None] * res_blocks[name][:, None, :]  # (j, q, 9)
                part = (lhs @ scaled.reshape(n_y, -1)).reshape(lhs.shape[0], -1, 3, 3)
                conv[name][qs, sl] = part.swapaxes(0, 1)
    base = base.reshape(t.size, 6, 6)
    scale = max(float(np.max(np.abs(base[:, :3, 3:]))), 1e-30)
    est = halving / scale
    if est > _LINE_RTOL:
        raise TalbotNotConverged(
            f"bromwich line grid-halving estimate {est:g} above {_LINE_RTOL:g}"
        )

    def reservoir_diff(name, coupling):
        rows_b, cols_b = _BLOCKS[name]
        total = base[None, :, rows_b, cols_b] - 1j * omega_q[:, None, None, None] * conv[name]
        return total @ coupling[:, None, :, :]

    sums = {
        "gamma": vac_modes.gamma + base[:, :3, 3:],
        "xi": vac_modes.xi - base[:, :3, :3],
        "gamma_tilde": vac_modes.gamma_tilde + base[:, 3:, 3:],
        "xi_tilde": vac_modes.xi_tilde - base[:, 3:, :3],
    }
    if need_g:
        sums["zeta"] = vac_modes.zeta + constants.mu0 * reservoir_diff("ee", g_q)
        sums["zeta_tilde"] = vac_modes.zeta_tilde + constants.mu0 * reservoir_diff("he", g_q)
    if need_f:
        sums["eta"] = vac_modes.eta - reservoir_diff("eh", f_q)
        sums["eta_tilde"] = vac_modes.eta_tilde - reservoir_diff("hh", f_q)
    meta = {
        "method": "bromwich_line",
        "line_points": int(n_y),
        "line_halfwidth": float(y_top),
        "line_abscissa": float(a),
        "est_rel_error": est,
    }
    return replace(vac_modes, metadata=meta, **sums)


def mode_coefficients(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    method: str = "auto",
) -> ModeCoefficients:
    """Mode-coefficient tensors of the medium `response` on the (t, omega_q)
    grids; the reservoir columns contract against its electric (bound plus
    free) and magnetic couplings.

    method is one of `METHODS`. "rational_exact" needs a rational transform
    and is exact up to pole finding; "talbot" deforms the contour into the
    left half-plane and therefore also needs an analytically continuable
    (rational) response; "bromwich_line" integrates along Re rho = const
    with the vacuum part split off exactly, and is the generic path for
    continuum-absorption media (whose branch cut blocks contour
    deformation). "auto" picks rational_exact when possible, bromwich_line
    otherwise. Internally the block system is oriented
    with flipped curl blocks (Lambda(-k, rho) for even media), the one
    reading of the index map that reproduces the initial-data expansions at
    t = 0 with forward-evolving phases and keeps the equal-time commutators
    conserved; the t = 0 condition alone does not fix it because the zeta
    and eta-tilde families vanish there.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    omega_q = np.asarray(omega_q_grid, dtype=float)
    if t.size == 0:
        raise ValidationError("t_grid must be nonempty")
    if method not in METHODS:
        raise ValidationError(f"unknown inverse-laplace method '{method}'")
    couplings = (response.reservoir_electric, response.model_m)
    if method == "auto":
        method = "rational_exact" if response.is_rational else "bromwich_line"
    if method == "rational_exact":
        if not response.is_rational:
            raise ValidationError(
                "rational_exact needs a rational material response; use bromwich_line"
            )
        return _rational_mode_path(response, *couplings, k, t, omega_q)
    if method == "talbot":
        if not response.is_rational:
            raise ValidationError(
                "talbot deforms into the left half-plane, which a continuum-"
                "absorption response cannot continue across; use bromwich_line"
            )
        return _talbot_mode_path(response, *couplings, k, t, omega_q)
    return _line_mode_path(response, *couplings, k, t, omega_q)


@dataclass(frozen=True)
class RealityScanReport:
    max_deviation: float
    n_samples: int
    worst_k: np.ndarray | None
    worst_rho: float | None


def lambda_reality_scan(response: LaplaceResponse, k_set, rho_set) -> RealityScanReport:
    """Max deviation of Lambda(-k, rho) - conj(Lambda(k, rho)) on real rho > 0.

    The conjugation identity holds on the real rho axis for media whose
    k-space kernels respect real-space reality; violations (e.g. a tabulated
    model with complex entries) are reported, never raised."""
    rho = np.asarray(rho_set, dtype=float)
    worst = 0.0
    worst_k = None
    worst_rho = None
    n = 0
    for k in k_set if rho.size else ():
        k = np.asarray(k, dtype=float)
        a = assemble_lambda(response, k, rho).value
        b = assemble_lambda(response, -k, rho).value
        dev = np.max(np.abs(b - np.conj(a)), axis=(1, 2))
        j = int(np.argmax(dev))
        n += rho.size
        if dev[j] > worst:
            worst, worst_k, worst_rho = float(dev[j]), k, float(rho[j])
    return RealityScanReport(max_deviation=worst, n_samples=n, worst_k=worst_k, worst_rho=worst_rho)
