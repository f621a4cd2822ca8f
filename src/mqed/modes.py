"""The 6x6 Laplace-domain constitutive/Maxwell system and the
mode-coefficient tensors of the field operators.

Lambda(k, rho) stacks the curl symbol against the rho-weighted material
tensors,

    Lambda = [[-O(k), -rho mu_hat], [rho eps_hat, -O(k)]],

in one curl orientation (`_curl_block`), at Re rho > 0, where every medium
defines its tensors (`LaplaceResponse.chi`). The field operators are read
from two transforms of its inverse: the (n_t, 6, 6) base L^-1[Lambda^-1]
and, for each 3x3 block a nonzero coupling reads, R[block] =
L^-1[rho/(rho + i w_q) Lambda^-1 block]. One index map (`_families`) turns
them into the coefficient tensors gamma, xi, zeta, eta (electric rows) and
their tilde partners (magnetic rows):

    gamma = [eh]   xi = -[ee]   zeta = R[ee] g   eta = -R[eh] f
    gamma~ = [hh]  xi~ = -[he]  zeta~ = R[he] g  eta~ = -R[hh] f

with f, g the electric and magnetic sector couplings at the reservoir
nodes: a lone part's own coupling, or the PSD square root of the summed
f f^dag of a sector's parts (`couplings.sector_coupling`).
The medium picks the inverse transform that produces them: exact partial
fractions for rational (isotropic damped-oscillator) media, of five scalars
formed from the sectors' polynomials (`rational.lambda_scalars`), and a
vacuum-subtracted Bromwich line Re rho = a > 0 for continuum-absorption
media, whose imaginary-axis branch cut bounds the domain of chi_hat. The
line serves every medium; on a rational one it is the reference route
(`line_mode_coefficients`). It takes the |rho|^-3 and |rho|^-4 terms of the
medium-vacuum difference in closed form, from the moments of chi_hat
(`_line_tail`), and sums only the remainder. A medium has one line per k
(`bromwich_line`), fixed by the horizon and top reservoir frequency of its
response and shared by every request. The request's grid picks how the
line's reservoir sums are formed: one line sum per reservoir node, or on a
uniform t from 0 one per node of a Gauss-Legendre rule over each step
(`_panel_sums`) when that rule has fewer nodes. Their numerical controls
are the module constants below.

Under a sign flip R = diag(+-1, +-1, +-1) of k on a medium that keeps it
(`LaplaceResponse.sign_flip_symmetric`), either path's arithmetic at R k is
its arithmetic at k with the signs of some entries flipped, so its families
are +-R X(k) R bit for bit (`observables.sign_flipped`, which a run uses in
place of the solve at R k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .couplings import ELECTRIC, MAGNETIC, sector_coupling
from .errors import BudgetExceeded, LineNotConverged, PoleFindingFailed, ValidationError
from .quadrature import gauss_legendre
from .rational import POLE_TOL, Rational, ilt_rational, lambda_scalars
from .response import LaplaceResponse, _chunks, _fft_size, laplace_response, uniform_step
from .tensors import curl_symbol, longitudinal_projector, transverse_projector

MARGINAL_POLE_TOL = 1e-12
# the line's abscissa (times 1 / horizon), half-width and margin past the
# top reservoir frequency (times the largest frequency scale), and the
# tolerance of its two error estimates
_LINE_ABSCISSA_FACTOR = 3.0
_LINE_HALFWIDTH_FACTOR = 40.0
_LINE_RESERVOIR_MARGIN = 20.0
_LINE_RTOL = 1e-4
# the most points a line may take, so its (n_y, 36) sums stay within tens of MB
_LINE_POINTS = 1 << 15
# the bound on the panel rule's error per step (`_panel_order`)
_PANEL_TOL = 1e-17


@dataclass(frozen=True)
class LambdaMatrix:
    k: np.ndarray
    rho: complex | np.ndarray  # a scalar, or the 1-d stack of rho values
    value: np.ndarray  # (6, 6), or (n, 6, 6) for a 1-d rho


def _curl_block(k) -> np.ndarray:
    """-O(k), the curl blocks of Lambda: the one orientation whose index map
    reproduces the initial-data expansions with forward-evolving phases and
    conserves the equal-time commutators (t = 0 alone does not fix it)."""
    return -curl_symbol(k)


def _ladder(upper, lower) -> np.ndarray:  # [[0, upper], [lower, 0]]
    out = np.zeros((6, 6), dtype=complex)
    out[:3, 3:], out[3:, :3] = upper, lower
    return out


# A^-1 = [[0, I], [-I, 0]] for Lambda = rho A + O(1): the t = 0 value of
# L^-1[Lambda^-1] and of every reservoir-weighted block, as rho Lambda^-1 and
# rho^2 Lambda^-1 / (rho + i w_q) tend to it
_INITIAL_DATA = _ladder(np.eye(3), -np.eye(3))


def assemble_lambda(response: LaplaceResponse, k, rho) -> LambdaMatrix:
    """Build Lambda(k, rho). A scalar rho gives one (6, 6) matrix, a 1-d rho
    the (n, 6, 6) stack from one batched evaluation of each material tensor.

    Its tensors are defined at Re rho > 0 only (`LaplaceResponse.chi`).
    """
    scalar = np.ndim(rho) == 0
    rho = np.asarray(rho, dtype=complex)
    k = np.asarray(k, dtype=float)
    r = rho[..., None, None]
    value = np.empty(rho.shape + (6, 6), dtype=complex)
    value[..., :3, :3] = value[..., 3:, 3:] = _curl_block(k)
    value[..., :3, 3:] = -r * response.mu(k, rho)
    value[..., 3:, :3] = r * response.eps(k, rho)
    return LambdaMatrix(k=k, rho=complex(rho) if scalar else rho, value=value)


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


# rows and columns of the four 3x3 blocks of Lambda^-1
_BLOCKS = {
    "ee": (slice(0, 3), slice(0, 3)),
    "eh": (slice(0, 3), slice(3, 6)),
    "he": (slice(3, 6), slice(0, 3)),
    "hh": (slice(3, 6), slice(3, 6)),
}


def _families(k, t, omega_q, f_q, g_q, transforms) -> ModeCoefficients:
    """The index map from a path's transforms (base, res, metadata) to the
    field-operator families, which frees base once its blocks are copied
    out and each reservoir block once its family is built.

    base is L^-1[Lambda^-1] on t, (n_t, 6, 6); res[block] is
    L^-1[rho/(rho + i w_q) Lambda^-1 block], (n_q, n_t, 3, 3), for the
    blocks a nonzero coupling reads (a missing block gives zero families)."""
    base, res, metadata = transforms
    del transforms  # the caller keeps none, so `del base` frees it
    e, h = slice(0, 3), slice(3, 6)
    # copies, so that no family is a strided view that keeps base alive
    gamma, xi = base[:, e, h].copy(), -base[:, e, e]
    gamma_tilde, xi_tilde = base[:, h, h].copy(), -base[:, h, e]
    del base

    def reservoir(name, coupling, sign=1.0):
        if name not in res:
            return np.zeros((omega_q.size, t.size, 3, 3), dtype=complex)
        return sign * np.einsum("qtab,qbc->qtac", res.pop(name), coupling)

    return ModeCoefficients(
        k=k, t_grid=t, omega_q_grid=omega_q,
        gamma=gamma, xi=xi, gamma_tilde=gamma_tilde, xi_tilde=xi_tilde,
        zeta=reservoir("ee", g_q), eta=reservoir("eh", f_q, -1.0),
        zeta_tilde=reservoir("he", g_q), eta_tilde=reservoir("hh", f_q, -1.0),
        f_q=f_q, g_q=g_q, metadata=metadata,
    )


def _pole_flags(poles: np.ndarray) -> dict:
    """Pole counts: a pole is marginal when |Re p| is at most
    MARGINAL_POLE_TOL max(1, |p|), the rounding of a root of that size, and
    unstable past it."""
    re = np.real(poles)
    tol = MARGINAL_POLE_TOL * np.maximum(1.0, np.abs(poles))
    return {
        "n_poles": int(poles.size),
        "max_re_pole": float(np.max(re)) if poles.size else 0.0,
        "marginal_poles": int(np.sum(np.abs(re) <= tol)),
        "unstable_poles": int(np.sum(re > tol)),
    }


def _ilt_with_reservoir(rat: Rational, poles, residues, omega_q: np.ndarray, t: np.ndarray):
    """L^-1[rho/(rho + i w_q) * rat] for every reservoir frequency at once,
    from the simple-pole expansion (poles, residues) of rat.

    The base poles are shared; only the extra pole at -i w_q and the residue
    weights depend on w_q, so the expansion vectorizes over the grid."""
    extra = -1j * omega_q  # (n_q,)
    dist = np.abs(extra[:, None] - poles[None, :])
    # each pair against POLE_TOL times the larger of the two
    if np.any(dist <= POLE_TOL * np.maximum(np.abs(extra)[:, None], np.abs(poles))):
        raise PoleFindingFailed("reservoir pole collides with a medium pole")
    # residue of rho/(rho+iw) rat at base pole p: p res_p / (p + iw)
    res_base = (poles * residues)[None, :] / (poles[None, :] - extra[:, None])  # (n_q, n_p)
    # residue at rho = -i w_q: (-i w) num(-i w) / den(-i w)
    res_extra = extra * rat(extra)  # (n_q,)
    exp_base = np.exp(np.outer(poles, t))  # (n_p, n_t)
    exp_extra = np.exp(np.outer(extra, t))  # (n_q, n_t)
    out = res_base @ exp_base + res_extra[:, None] * exp_extra
    return out


def _rational_mode_path(response, blocks, k, t, omega_q):
    """Exact partial-fraction transforms for isotropic rational media: each
    block of Lambda^-1 is a sum of scalar rationals times the transverse
    projector, the longitudinal one or the curl blocks' orientation.

    With D_T = k^2 + rho^2 mu_hat eps_hat, the scalars are t_eh = rho mu_hat
    / D_T, t_ee = 1 / D_T, l_e = 1 / (rho eps_hat), t_he = rho eps_hat / D_T
    and l_h = 1 / (rho mu_hat), each formed from the sectors' polynomials
    (`rational.lambda_scalars`), so that it lists no pole that cancels."""
    scalars = lambda_scalars(*([part.closed_form for part in response.sector(which)]
                               for which in (ELECTRIC, MAGNETIC)), float(k @ k))
    p_t = transverse_projector(k).astype(complex)
    p_l = longitudinal_projector(k).astype(complex)
    o = _curl_block(k)
    terms = {
        "ee": (("t_ee", o),),
        "eh": (("t_eh", p_t), ("l_e", p_l)),
        "he": (("t_he", -p_t), ("l_h", -p_l)),
        "hh": (("t_ee", o),),
    }

    def block(values, name):
        return sum(values[scalar][..., None, None] * proj for scalar, proj in terms[name])

    ilt, fractions = {}, {}  # each scalar's transform on t, and its [poles, residues]
    for name, rat in scalars.items():
        ilt[name], *fractions[name] = ilt_rational(rat, t)
    base = np.empty((t.size, 6, 6), dtype=complex)
    for name, (rows, cols) in _BLOCKS.items():
        base[:, rows, cols] = block(ilt, name)
    needed = {scalar for name in blocks for scalar, _ in terms[name]}
    weighted = {s: _ilt_with_reservoir(scalars[s], *fractions[s], omega_q, t)
                for s in scalars if s in needed}
    res = {name: block(weighted, name) for name in blocks}
    poles = np.concatenate([p for p, _ in fractions.values()])
    return base, res, {"method": "rational_exact", **_pole_flags(poles)}


def _chirp_z(t: np.ndarray, h: float, rho: np.ndarray):
    """(cols, out) -> out = exp(outer(t, rho)) @ cols for a uniform t (step
    h) and line rho_j = a + i y_j (step dy), by Bluestein's chirp-z
    transform in O((n_t + n_y) log) per column. With m and j counted from
    the middles of their grids (which keeps the chirp phases small where the
    line has its weight, near y = 0) and the chirp w_n = exp(i h dy n^2 / 2),

        exp(t_m rho_j) = exp(t_m (a + i y_c)) w_m conj(w_(m - j)) w_j exp(i t_c j dy):

    one FFT convolution with conj(w) between a row and a column factor, on
    column blocks of one table each (`response._chunks`), each padded and
    transformed in one buffer and its rows written into the caller's out."""
    n_t, n_y = t.size, rho.size
    dy = (rho[-1].imag - rho[0].imag) / (n_y - 1)
    theta = 0.5 * h * dy
    m_c, j_c = (n_t - 1) // 2, (n_y - 1) // 2
    size = _fft_size(n_t + n_y - 1)
    # conj(w) at m - j upwards from j_c - m_c - (n_y - 1): the sum for row m
    # is entry m + n_y - 1 of the linear convolution
    n = np.arange(n_t + n_y - 1.0) - (n_y - 1 - j_c + m_c)
    kernel = np.fft.fft(np.exp(-1j * theta * (n * n)), size)[:, None]
    j = np.arange(n_y) - j_c
    col_fold = np.exp(1j * theta * (j * j) + (1j * t[m_c] * dy) * j)[:, None]
    m = np.arange(n_t) - m_c
    row_fold = np.exp(1j * theta * (m * m) + t * (rho[0].real + 1j * rho[j_c].imag))[:, None]

    def line_sum(cols: np.ndarray, out: np.ndarray):
        for c in _chunks(cols.shape[1], size):
            buf = np.zeros((size, cols[:, c].shape[1]), dtype=complex)
            np.multiply(col_fold, cols[:, c], out=buf[:n_y])
            buf = np.fft.fft(buf, axis=0)
            buf *= kernel
            buf = np.fft.ifft(buf, axis=0)
            np.multiply(row_fold, buf[n_y - 1 : n_y - 1 + n_t], out=out[:, c])

    return line_sum


def _line_tail(response, k, a):
    """C3 and C4' of the subtracted tail C3 (rho + a)^-3 + C4' (rho + a)^-4 of
    Lambda_med^-1 - Lambda_vac^-1.

    Write Lambda = rho A + B + rho^-1 E1 + rho^-2 E2 + O(rho^-3): A =
    [[0, -I], [I, 0]], B the curl blocks, and E1, E2 the same ladder
    shape holding the moments M1, M2 of chi_hat = M1 rho^-2 + M2 rho^-3 + ...
    The difference is then C3 rho^-3 + C4 rho^-4 + O(rho^-5) with

        C3 = -A^-1 E1 A^-1,
        C4 = A^-1 B A^-1 E1 A^-1 + A^-1 E1 A^-1 B A^-1 - A^-1 E2 A^-1.

    Shifting the pole to rho = -a (C4' = C4 + 3 a C3) keeps the same two
    leading terms and makes the tail's transforms decay like e^-at."""
    m1e, m2e = response.chi_moments(ELECTRIC, k)
    m1m, m2m = response.chi_moments(MAGNETIC, k)

    a_inv = _INITIAL_DATA
    b = np.zeros((6, 6), dtype=complex)
    b[:3, :3] = b[3:, 3:] = _curl_block(k)
    x = a_inv @ b
    y = a_inv @ _ladder(-m1m, m1e)
    c3 = -y @ a_inv
    c4 = (x @ y + y @ x - a_inv @ _ladder(-m2m, m2e)) @ a_inv
    return c3, c4 + 3.0 * a * c3


def _phi(n: int, z: np.ndarray) -> np.ndarray:
    """phi_n(z) = sum_j z^j / (j + n)!, the phi-functions of exponential
    integrators: phi_(j+1) = (phi_j - 1 / j!) / z upwards from phi_0 = e^z,
    and the Taylor series where |z| < 1 and that recurrence cancels."""
    small = np.abs(z) < 1.0
    zl = np.where(small, 1.0, z)
    out = np.exp(zl)
    for j in range(n):
        out = (out - 1.0 / math.factorial(j)) / zl
    zs = np.where(small, z, 0.0)
    term = np.full(z.shape, 1.0 / math.factorial(n), dtype=complex)
    series = term.copy()
    for j in range(1, 18):
        term = term * zs / (n + j)
        series += term
    return np.where(small, series, out)


def _line_sums(t: np.ndarray, rho: np.ndarray):
    """(rows, line_sum) pairs that cover t, with line_sum(cols, out) writing
    exp(outer(t[rows], rho)) @ cols into out: one `_chirp_z` for a uniform
    grid longer than one chunk, else the phase table in row chunks
    (`response._chunks`), whose product is copied to out (numpy leaves BLAS,
    and rounds apart, for a strided matmul out)."""
    chunks = _chunks(t.size, rho.size)
    h = uniform_step(t)
    if h is not None and len(chunks) > 1:
        yield slice(None), _chirp_z(t, h, rho)
        return
    for rows in chunks:
        table = np.multiply.outer(t[rows], rho)
        np.exp(table, out=table)
        yield rows, lambda cols, out, table=table: np.copyto(out, table @ cols)


def _tail_transform(t, a, c3, c4):
    """e^-at (C3 t^2 / 2 + C4' t^3 / 6), the transform of the subtracted tail."""
    decay = np.exp(-a * t)
    tail = np.multiply.outer(decay * t**2 / 2.0, c3)
    tail += np.multiply.outer(decay * t**3 / 6.0, c4)
    return tail


@dataclass(frozen=True)
class BromwichLine:
    """The Bromwich line Re rho = a of one medium at one k: its points, the
    medium-vacuum difference of Lambda^-1 less its closed-form tail on them,
    and that tail. Every caller contracts the same stack with its own phases
    exp(t rho_j) and reservoir factors."""

    rho: np.ndarray  # (n_y,) a + i y_j
    stack: np.ndarray  # (n_y, 36) the difference less the tail, times dy / 2 pi
    c3: np.ndarray  # (6, 6) C3 and C4' of the tail C3 (rho + a)^-3 + C4' (rho + a)^-4
    c4: np.ndarray
    metadata: dict


def bromwich_line(response: LaplaceResponse, k) -> BromwichLine:
    """The line of the medium `response` at k, built on first use and kept
    in `response.lines`.

    Its geometry comes from the response's horizon T and top reservoir
    frequency W alone, never from a request: abscissa a = 3 / T, step
    dy = 0.5 / T and half-width Y = max(40 s, W + 20 s), s the largest
    frequency scale of the medium and |k|, so it runs past the top
    reservoir node, where G / (rho + i w_q) peaks. All material evaluations
    stay in Re rho > 0, so the imaginary-axis branch cut of the absorption
    continuum is never crossed.

    Two error estimates, gated by `_LINE_RTOL`, are taken once, by chirp-z
    on a uniform grid over [0, T] whose step pi / (2 Y) resolves the fastest
    phase of the sums: the grid-halving one (every other point) and the
    truncation one (the points with |y| <= Y / 2), each relative to the
    peak of the eh block of the medium-vacuum difference. Their sums are
    formed one column group at a time (the eh block's 9 columns, then the
    36 of each estimate), and only each group's peak is kept.
    """
    k = np.asarray(k, dtype=float)
    line = response.lines.get(tuple(k))
    if line is not None:
        return line
    horizon = response.horizon
    a = _LINE_ABSCISSA_FACTOR / horizon
    scales = [float(np.linalg.norm(k)),
              *(m.frequency_scale for m in response.medium if not m.is_zero)]
    y_top = max(_LINE_HALFWIDTH_FACTOR * max(scales),
                response.omega_top + _LINE_RESERVOIR_MARGIN * max(scales))
    dy = 0.5 / horizon
    n_y = int(2.0 * y_top / dy) + 1
    if n_y > _LINE_POINTS:
        raise BudgetExceeded(f"the bromwich line needs {n_y:.4g} points, above its budget "
                             f"_LINE_POINTS = {_LINE_POINTS}")
    y = np.linspace(-y_top, y_top, n_y)
    rho = a + 1j * y

    # no conditioning guard: the line stays a distance a off the
    # imaginary-axis dispersion shell, where Lambda is singular
    c3, c4 = _line_tail(response, k, a)
    u = (1.0 / (rho + a))[:, None, None]
    # the medium-vacuum difference less its tail, ~ |rho|^-5, with the line
    # measure dy / 2 pi folded in; columns hold all four 3x3 blocks of the
    # 6x6, formed in place
    stack = np.linalg.inv(assemble_lambda(response, k, rho).value)
    stack -= np.linalg.inv(assemble_lambda(laplace_response(), k, rho).value)
    stack -= u**3 * (c3 + u * c4)
    stack = stack.reshape(n_y, 36)
    stack *= (y[1] - y[0]) / (2.0 * np.pi)

    # the estimates' sums, one column group at a time into one buffer: the
    # eh block (for the scale), the sum less its every-other-point copy (the
    # points with signs alternating from -) and less its |y| <= Y / 2 part
    # (the points outside)
    t_est = np.linspace(0.0, horizon, int(np.ceil(2.0 * y_top * horizon / np.pi)) + 1)
    line_sum = _chirp_z(t_est, t_est[1], rho)
    sums = np.empty((t_est.size, 36), dtype=complex)
    line_sum(stack.reshape(n_y, 6, 6)[:, :3, 3:].reshape(n_y, 9), sums[:, :9])
    eh = sums[:, :9].reshape(-1, 3, 3) + _tail_transform(t_est, a, c3, c4)[:, :3, 3:]
    scale = max(float(np.max(np.abs(eh))), 1e-30)
    line_sum(np.where(np.arange(n_y) % 2, 1.0, -1.0)[:, None] * stack, sums)
    est = float(np.max(np.abs(sums))) / scale
    line_sum((np.abs(y) > 0.5 * y_top)[:, None] * stack, sums)
    trunc = float(np.max(np.abs(sums))) / scale
    for what, value in (("grid-halving", est), ("truncation", trunc)):
        if value > _LINE_RTOL:
            raise LineNotConverged(
                f"bromwich line {what} estimate {value:g} above {_LINE_RTOL:g}"
            )
    line = response.lines[tuple(k)] = BromwichLine(rho=rho, stack=stack, c3=c3, c4=c4, metadata={
        "method": "bromwich_line",
        "line_points": int(n_y),
        "line_halfwidth": float(y_top),
        "line_abscissa": float(a),
        "line_horizon": float(horizon),
        "line_omega_top": float(response.omega_top),
        "estimate_points": int(t_est.size),
        "est_rel_error": est,
        "est_truncation": trunc,
    })
    return line


def _panel_order(t: np.ndarray, rho: np.ndarray, omega_q: np.ndarray, cols: np.ndarray):
    """The order p of the panel rule (`_panel_sums`) on a uniform t from 0
    with step h, else None: the fewest Gauss-Legendre nodes per step whose
    remainder on every line column, weighted by the column's share of its
    block's peak, stays within `_PANEL_TOL`,

        (|D_j| / max |D|) (p!)^4 2^(2p+1) / ((2p+1) ((2p)!)^3)
            (|rho_j + i w_q| h / 2)^(2p) <= _PANEL_TOL

    for every point j and reservoir node q (the exact Gauss-Legendre
    remainder for the exponential e^((rho_j + i w_q) s) of one step).
    |D_j| is the largest entry of the point's 9 columns of a block, and
    |rho_j + i w_q| is largest at the lowest or the top w_q."""
    h = uniform_step(t)
    if h is None or t[0] != 0.0 or not omega_q.size:
        return None
    peak = np.abs(cols).reshape(rho.size, -1, 9).max(axis=2)  # (j, block)
    scale = peak.max(axis=0)
    with np.errstate(divide="ignore"):  # a point of zero weight gives -inf
        log_weight = np.log(np.max(peak / np.where(scale > 0.0, scale, 1.0), axis=1))
    log_x = np.log(0.5 * h * np.maximum(np.abs(rho + 1j * omega_q.min()),
                                        np.abs(rho + 1j * omega_q.max())))

    def log_remainder(p):  # of the largest weighted remainder
        return (4.0 * math.lgamma(p + 1) + (2 * p + 1) * math.log(2.0) - math.log(2 * p + 1)
                - 3.0 * math.lgamma(2 * p + 1) + float(np.max(log_weight + 2 * p * log_x)))

    p = 1
    while log_remainder(p) > math.log(_PANEL_TOL):
        p += 1
    return p


def _direct_sums(line_sum, n_t, rho, cols, omega_q):
    """Per block of 9 line columns D_j, the (n_q, n_t, 9) reservoir sums
    conv[q, t] = sum_j exp(t rho_j) D_j / (rho_j + i w_q), one line sum per
    reservoir node. The factors and the scaled columns are formed one node
    group at a time, each freed before the next is built: a group holds no
    more values than the block's sums (n_t n_q / n_y nodes, at least one)
    and fits in one table (`response._chunks`)."""
    n_y, n_q = rho.size, omega_q.size
    group = max(1, n_t * n_q // n_y)
    for c in range(0, cols.shape[1], 9):
        conv = np.empty((n_t, n_q * 9), dtype=complex)
        for chunk in _chunks(n_q, 9 * n_y):
            for start in range(chunk.start, min(chunk.stop, n_q), group):
                qs = slice(start, min(start + group, chunk.stop))
                fac = 1.0 / (rho[:, None] + 1j * omega_q[qs])  # (j, q)
                scaled = fac[:, :, None] * cols[:, None, c : c + 9]  # (j, q, 9)
                line_sum(scaled.reshape(n_y, -1), conv[:, 9 * qs.start : 9 * qs.stop])
                del fac, scaled
        yield conv.reshape(n_t, n_q, 9).swapaxes(0, 1)


def _panel_sums(line_sum, t, p, rho, cols, omega_q):
    """The sums of `_direct_sums` on a uniform t from 0 (step h) from the
    exact identity, with g(s) = sum_j exp(s rho_j) D_j,

        conv(t) = e^(-i w_q t) [conv(0) + int_0^t e^(i w_q s) g(s) ds],

    the integral taken over each step by a p-point Gauss-Legendre rule
    (`_panel_order`) and summed over the steps. The rule's nodes o_k lie in
    [-h, 0], so that g at t_i + o_k, one line sum on t over the columns
    exp(o_k rho_j) D_j, holds the step that ends at t_i (row 0's, before
    t = 0, goes unused). One block at a time, its columns built by node
    groups of one table: p columns per block entry where the direct sums
    take one per reservoir node."""
    n_t, (n_y, m), n_q = t.size, cols.shape, omega_q.size
    start = np.empty((n_q, m), dtype=complex)  # conv(0)
    for qs in _chunks(n_q, n_y):
        fac = rho[None, :] + 1j * omega_q[qs, None]
        start[qs] = np.divide(1.0, fac, out=fac) @ cols
    del fac
    o, w = gauss_legendre(p, -float(t[1]), 0.0)
    shift = np.exp(np.multiply.outer(rho, o))  # (j, k)
    weights = w * np.exp(1j * np.multiply.outer(omega_q, o))  # (q, k)
    turn = np.exp(1j * np.multiply.outer(omega_q, t))[:, :, None]  # e^(i w_q t)
    for c in range(0, m, 9):
        g = np.empty((n_t, p * 9), dtype=complex)
        for ks in _chunks(p, 9 * n_y):
            panel = shift[:, ks, None] * cols[:, None, c : c + 9]  # (j, k, 9)
            line_sum(panel.reshape(n_y, -1), g[:, 9 * ks.start : 9 * ks.stop])
            del panel
        # the integral over the step that ends at each t, conv(0) in place
        # of row 0's, summed up to each t
        steps = weights @ g.reshape(n_t, p, 9).swapaxes(0, 1).reshape(p, -1)
        del g
        steps = steps.reshape(n_q, n_t, 9)
        steps *= turn
        steps[:, 0] = start[:, c : c + 9]
        np.cumsum(steps, axis=1, out=steps)
        steps *= turn.conj()
        yield steps
        del steps  # freed once the caller drops it, before the next block's columns


def _line_mode_path(response, blocks, k, t, omega_q):
    """Vacuum-subtracted Bromwich-line inversion for any medium, with the
    line's slow tail taken in closed form.

    The free-space part of Lambda^-1 is inverted exactly (rational path, with
    the reservoir factors included). Of the medium-vacuum difference, which
    decays like |rho|^-3 along the line Re rho = a, the first two terms of
    its large-rho expansion (`_line_tail`) are subtracted and their exact
    transforms added back:

        L^-1[(rho + a)^-n] = e^-at t^(n-1) / (n-1)!,
        L^-1[(rho + a)^-n / (rho + i w_q)] = e^-at t^n phi_n((a - i w_q) t).

    Only the |rho|^-5 remainder is summed numerically, on the response's
    line at k (`bromwich_line`), which this call contracts with its phases
    exp(t rho_j) (`_line_sums`) and its reservoir factors. The grid picks
    how the reservoir sums are formed: by panels (`_panel_sums`) on a
    uniform t from 0 whose panel order is below the number of reservoir
    nodes, else directly, one line sum per node (`_direct_sums`). The
    order bounds the panel rule's remainder on each line column weighted by
    its share of its block's peak (`_panel_order`), so the fast, far-out
    points of the line, where the columns have fallen like |rho|^-5, do not
    set it alone. The metadata names the route (`reservoir_sums`) and the
    order (`panel_order`, None off a uniform grid from 0). t must lie in
    [0, horizon] and omega_q in [0, omega_top] of the response.
    """
    if np.min(t) < 0.0 or np.max(t) > response.horizon:
        raise ValidationError(f"bromwich line times must lie in [0, {response.horizon:g}] "
                              "(the response's horizon)")
    if omega_q.size and (np.min(omega_q) < 0.0 or np.max(omega_q) > response.omega_top):
        raise ValidationError(f"bromwich line reservoir frequencies must lie in "
                              f"[0, {response.omega_top:g}] (the response's omega_top)")
    line = bromwich_line(response, k)
    rho = line.rho
    a = float(rho[0].real)
    n_y = rho.size
    diff = line.stack.reshape(n_y, 6, 6)
    # the line columns D_j of the blocks, 9 per block
    cols = np.empty((n_y, 9 * len(blocks)), dtype=complex)
    for b, name in enumerate(blocks):
        cols[:, 9 * b : 9 * b + 9] = diff[:, _BLOCKS[name][0], _BLOCKS[name][1]].reshape(n_y, 9)
    order = _panel_order(t, rho, omega_q, cols)
    panels = order is not None and order < omega_q.size
    # the tail's transforms for the reservoir sums, e^-at t^n phi_n((a - i w_q) t)
    decay = np.exp(-a * t)
    z = np.multiply.outer(a - 1j * omega_q, t)  # (q, t)
    g3 = (decay * t**3) * _phi(3, z)
    g4 = (decay * t**4) * _phi(4, z)
    base = None
    for rows, line_sum in _line_sums(t, rho):
        # the line's part of the base: its sums plus the tail's transforms
        # e^-at (C3 t^2 / 2 + C4' t^3 / 6)
        line_base = np.empty((t[rows].size, 6, 6), dtype=complex)
        line_sum(line.stack, line_base.reshape(-1, 36))
        line_base += _tail_transform(t[rows], a, line.c3, line.c4)
        if base is None:
            # the exact vacuum part, built after the first chunk's sums: a long
            # uniform grid is one chirp-z chunk, whose tables never meet it
            base, res, _ = _rational_mode_path(laplace_response(), blocks, k, t, omega_q)
        base[rows] += line_base
        for name in blocks:
            res[name][:, rows] += line_base[None, :, _BLOCKS[name][0], _BLOCKS[name][1]]
        del line_base
        # one block at a time, the reservoir sums conv[q, t] = sum_j phase_j
        # D_j / (rho_j + i w_q) and their tail; L^-1[fac G] = L^-1[G] - i w_q
        # L^-1[G / (rho + i w_q)] for the difference. A uniform grid is one
        # pair of `_line_sums`, so the panels' rows are all of t
        sums = (_panel_sums(line_sum, t, order, rho, cols, omega_q) if panels
                else _direct_sums(line_sum, t[rows].size, rho, cols, omega_q))
        for name in blocks:  # not zip, whose result tuple would hold the last block
            rows_b, cols_b = _BLOCKS[name]
            conv = next(sums).reshape(omega_q.size, -1, 3, 3)
            for i, j in np.ndindex(3, 3):  # in place: no (n_q, n_t, 3, 3) temporary
                conv[..., i, j] += g3[:, rows] * line.c3[rows_b, cols_b][i, j]
                conv[..., i, j] += g4[:, rows] * line.c4[rows_b, cols_b][i, j]
            conv *= 1j * omega_q[:, None, None, None]
            res[name][:, rows] -= conv
            del conv  # freed before the next block's sums are formed
    return base, res, {**line.metadata, "reservoir_sums": "panels" if panels else "direct",
                       "panel_order": order}


def _solve(response: LaplaceResponse, k, t_grid, omega_q_grid, path) -> ModeCoefficients:
    """The coefficient tensors from the transforms `path` returns for the
    blocks the nonzero sectors' couplings read."""
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    omega_q = np.asarray(omega_q_grid, dtype=float)
    if t.size == 0:
        raise ValidationError("t_grid must be nonempty")
    parts_f, parts_g = response.sector(ELECTRIC), response.sector(MAGNETIC)
    f_q, g_q = sector_coupling(parts_f, omega_q, k), sector_coupling(parts_g, omega_q, k)
    # zeta and zeta-tilde read the ee and he blocks, eta and eta-tilde eh and hh
    blocks = ((("ee", "he") if parts_g else ())
              + (("eh", "hh") if parts_f else ())) if omega_q.size else ()
    return _families(k, t, omega_q, f_q, g_q, path(response, blocks, k, t, omega_q))


def mode_coefficients(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
) -> ModeCoefficients:
    """Mode-coefficient tensors of the medium `response` on the (t, omega_q)
    grids; the reservoir columns contract against its electric and magnetic
    couplings.

    The medium picks the inverse transform: exact partial fractions for a
    rational response, exact up to pole finding; otherwise the Bromwich line
    (`line_mode_coefficients`), as the branch cut of continuum absorption
    requires.
    """
    path = _rational_mode_path if response.is_rational else _line_mode_path
    return _solve(response, k, t_grid, omega_q_grid, path)


def line_mode_coefficients(response: LaplaceResponse, k, t_grid, omega_q_grid) -> ModeCoefficients:
    """`mode_coefficients` through the Bromwich line on any medium: it
    integrates along Re rho = a > 0 with the vacuum part split off exactly,
    on the response's line at k (`bromwich_line`), so t must lie in [0,
    response.horizon] and omega_q in [0, response.omega_top]. On a rational
    medium it is the reference route that cross-checks the exact one."""
    return _solve(response, k, t_grid, omega_q_grid, _line_mode_path)


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
