"""Physical verification quantities assembled from the mode coefficients:
equal-time field commutator coefficients, Maxwell-equation residuals, the
constitutive-equation round trip and vacuum fluctuation spectra.

The electric and magnetic field operators are represented by their
coefficient functions over the initial photon operators a(0) (weights
sqrt(w_k / 2 (2pi)^3), natural units) and the initial reservoir
operators d(0), b(0) (weights (2pi)^{-3/2} with triad contractions). Each
coefficient channel must satisfy the transformed Maxwell system on its own,
and the equal-time commutators assembled from the channels must keep their
free-space value O(k) in any medium; both statements are checked
numerically here. A representation reads the medium from one
`LaplaceResponse`: its Lambda system, its reservoir couplings and its memory
kernels. It holds the mode coefficients and the photon channels at one wave
vector and forms each reservoir channel from them when read (`channel`). On
a medium with the sign flips R of k as its symmetry, the representation at
R k is mapped from the one at k (`sign_flipped`), with no second solve;
parity, R = -I, holds for every medium, and the commutators pair a
representation with its parity partner at -k, mapped at their own times
only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .couplings import ELECTRIC, MAGNETIC
from .errors import ValidationError
from .modes import ModeCoefficients, mode_coefficients
from .noise import CommutatorReport, _oscillator_responses
from .response import (
    LaplaceResponse,
    SusceptibilityKernel,
    _central_difference,
    _damped_oscillator,
    _fft_size,
    _relative_deviation,
    _richardson,
    block_tensors,
    difference_step,
    uniform_step,
)
from .tensors import IDENTITY3, curl_symbol, triad

TWO_PI_CUBED = (2.0 * np.pi) ** 3
# reservoir channel -> (its mode family, or for the noise channels P_d, M_b
# the coupling that times exp(-i w_q t) is the channel; triad; weight)
_CHANNELS = {
    "E_d": ("eta", "e", TWO_PI_CUBED**-0.5), "H_d": ("eta_tilde", "e", TWO_PI_CUBED**-0.5),
    "E_b": ("zeta", "s", 1j * TWO_PI_CUBED**-0.5),
    "H_b": ("zeta_tilde", "s", 1j * TWO_PI_CUBED**-0.5),
    "P_d": ("f_q", "e", TWO_PI_CUBED**-0.5), "M_b": ("g_q", "s", 1j * TWO_PI_CUBED**-0.5),
}


@dataclass(frozen=True)
class FieldOperatorRepresentation:
    """The mode coefficients and the photon channels of E and H at one wave
    vector on the whole t grid. The reservoir channels are formed from the
    coefficients on read (`channel`), and the memory kernels (read only by
    the Maxwell residual) when first read."""

    k: np.ndarray
    t_grid: np.ndarray
    omega_q_grid: np.ndarray
    omega_q_weights: np.ndarray
    response: LaplaceResponse
    coeffs: ModeCoefficients
    photon_E: np.ndarray  # (2, n_t, 3)
    photon_H: np.ndarray

    @cached_property
    def chi_e(self) -> np.ndarray:
        """(n_t, 3, 3) electric (bound plus free) memory kernel at k."""
        return _memory_kernel(ELECTRIC, self)

    @cached_property
    def chi_m(self) -> np.ndarray:
        """(n_t, 3, 3) magnetic memory kernel at k."""
        return _memory_kernel(MAGNETIC, self)

    @property
    def radial_measure(self) -> np.ndarray:
        """Reservoir continuum measure 4 pi w_q^2 at the nodes."""
        return 4.0 * np.pi * self.omega_q_grid**2

    @cached_property
    def _channel_parts(self) -> tuple:
        """The triad vectors e_nu and s_nu at k, and the (3, n_q, 3) weighted
        couplings f_q e_nu and g_q s_nu of the noise channels."""
        tr = triad(self.k)
        vectors = {"e": [tr.e(nu) for nu in (1, 2, 3)], "s": [tr.s(nu) for nu in (1, 2, 3)]}
        noise = {name: np.stack([w * np.einsum("qij,j->qi", getattr(self.coeffs, c), v)
                                 for v in vectors[side]])
                 for name, (c, side, w) in _CHANNELS.items() if name in ("P_d", "M_b")}
        return vectors, noise

    def channel(self, name: str, nu_q: tuple | None = None, it: int | None = None) -> np.ndarray:
        """The reservoir channel `name` of `_CHANNELS`: with nu_q = (nu, q),
        its (n_t, 3) coefficient of the triad vector nu (from 0) at node q
        over the t grid; with it, the (3, n_q, 3) coefficients of every
        (nu, q) at time index it."""
        vectors, noise = self._channel_parts
        source, side, weight = _CHANNELS[name]
        if name in noise:
            if nu_q is None:
                return noise[name] * np.exp(-1j * (self.omega_q_grid * self.t_grid[it]))[:, None]
            phase = np.exp(-1j * (self.omega_q_grid[nu_q[1]] * self.t_grid))
            return noise[name][nu_q][None, :] * phase[:, None]
        coeff = getattr(self.coeffs, source)
        if nu_q is None:
            block = weight * coeff[:, it]
            return np.stack([block @ v for v in vectors[side]])
        # one product over the (n_t * 3, 3) rows, not one per 3x3 matrix
        return ((weight * coeff[nu_q[1]]).reshape(-1, 3) @ vectors[side][nu_q[0]]).reshape(-1, 3)


def _memory_kernel(which: str, rep: FieldOperatorRepresentation) -> np.ndarray:
    """The chi(t) of sector `which` on the representation's t grid whose
    transform the mode solver inverted, summed over the sector's parts at k:
    a rational part's closed form (`_damped_oscillator`, as its chi kernel),
    the kernel values of its Laplace representation for any other."""
    t = rep.t_grid
    out = np.zeros((t.size, 3, 3), dtype=complex)
    for part in rep.response.sector(which):
        if (form := part.closed_form) is not None:
            out += _damped_oscillator(form, t)[:, None, None] * IDENTITY3
        else:
            out += rep.response.laplace_rep(part, rep.k).kernel_values(t)
    return out


def field_representation(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    omega_q_weights,
) -> FieldOperatorRepresentation:
    """The coefficient representation of E and H in the medium `response` at
    one k on the (t, omega_q) grids; the memory kernels are built when first
    read. The run's `response` shares its Laplace-domain chi_hat between
    calls."""
    weights = np.asarray(omega_q_weights, dtype=float)
    if np.shape(omega_q_grid) != weights.shape:
        raise ValidationError("omega_q grid and weights must align")
    return _with_photons(response, mode_coefficients(response, k, t_grid, omega_q_grid), weights)


def _with_photons(response: LaplaceResponse, mc: ModeCoefficients, weights: np.ndarray):
    """The representation of `mc`, its photon channels over the triad of mc.k."""
    tr = triad(mc.k)
    w = np.sqrt(float(np.linalg.norm(mc.k)) / (2.0 * TWO_PI_CUBED))  # w_k = |k|
    pairs = tuple(zip((tr.e1, tr.e2), (tr.s1, tr.s2)))
    return FieldOperatorRepresentation(
        mc.k, mc.t_grid, mc.omega_q_grid, weights, response, mc,
        photon_E=np.stack([1j * (w * mc.gamma @ e + w * mc.xi @ s) for e, s in pairs]),
        photon_H=np.stack([1j * (w * mc.gamma_tilde @ e + w * mc.xi_tilde @ s)
                           for e, s in pairs]),
    )


# each family's sign under a sign flip R of det -1 (parity, R = -I, among
# them): + on the eh and he blocks, - on ee and hh
_PARITY = {"gamma": 1, "xi_tilde": 1, "eta": 1, "zeta_tilde": 1,
           "xi": -1, "gamma_tilde": -1, "zeta": -1, "eta_tilde": -1}


def flip_signs(name: str, flip) -> np.ndarray:
    """The (3, 3) entries +-1 that family `name` is multiplied by under R =
    diag(flip), X(R k) = flip_signs * X(k) (`sign_flipped`): s R_ii R_jj,
    s its `_PARITY` sign when det R = -1 and +1 otherwise."""
    r = np.asarray(flip, dtype=float)
    sign = np.multiply.outer(r, r)
    return _PARITY[name] * sign if np.prod(r) < 0.0 else sign


def sign_flipped(rep: FieldOperatorRepresentation, flip, idx=slice(None)
                 ) -> FieldOperatorRepresentation:
    """The representation at R k, R = diag(flip) of entries +-1, at rep's
    time indices idx, from rep's mode coefficients with no second solve.

    O(R k) = det R R O(k) R. When every part of the medium satisfies
    R f(w, R k) R = f(w, k) (`LaplaceResponse.sign_flip_symmetric`), so do
    eps_hat and mu_hat, and Lambda(R k)^-1 is S Lambda(k)^-1 S with
    S = diag(R, R) when det R = 1, and -S P Lambda(k)^-1 P S with
    P = diag(I3, -I3) when det R = -1. So each family X maps to s R X R
    (`flip_signs`); f_q and g_q, which read k only through |k|, are kept. A product with +-1 is exact, and the
    solve at R k only flips the signs of the solve at k, so the two agree
    bit for bit. Parity, R = -I, holds for every medium (`_parity_partner`).
    """
    r = np.asarray(flip, dtype=float)
    families = {name: flip_signs(name, r) * getattr(rep.coeffs, name)[..., idx, :, :]
                for name in _PARITY}
    return _with_photons(rep.response, replace(rep.coeffs, k=r * rep.k, t_grid=rep.t_grid[idx],
                                               **families), rep.omega_q_weights)


def _parity_partner(rep: FieldOperatorRepresentation, idx: list) -> FieldOperatorRepresentation:
    """The representation at -k at rep's time indices idx, from rep's mode
    coefficients: `sign_flipped` at R = -I."""
    return sign_flipped(rep, (-1.0, -1.0, -1.0), idx)


def _eh_coefficient(p: FieldOperatorRepresentation, m: FieldOperatorRepresentation,
                    ip: int, im: int, wq: np.ndarray) -> np.ndarray:
    """delta-normalized coefficient of [E_i(k, t), H_j^dag(k', t)] from +k
    channels `p` at time index ip and -k channels `m` at index im, before the
    i-normalization; wq holds the reservoir weights times the radial measure."""
    ph = np.einsum("la,lb->ab", p.photon_E[:, ip], np.conj(p.photon_H[:, ip])) - np.einsum(
        "la,lb->ab", np.conj(m.photon_E[:, im]), m.photon_H[:, im]
    )
    res = np.zeros((3, 3), dtype=complex)
    for e, h in (("E_d", "H_d"), ("E_b", "H_b")):
        res += np.einsum("nqa,q,nqb->ab", p.channel(e, it=ip), wq,
                         np.conj(p.channel(h, it=ip)))
        res -= np.einsum("nqa,q,nqb->ab", np.conj(m.channel(e, it=im)), wq,
                         m.channel(h, it=im))
    return TWO_PI_CUBED * (ph + res)


def _on_grid(t_grid: np.ndarray, t: float, what: str) -> int:
    """The index of t on t_grid, within 1e-9 of its smallest step (of |t| alone)."""
    it = int(np.argmin(np.abs(t_grid - t)))
    step = float(np.min(np.diff(t_grid))) if t_grid.size > 1 else abs(t)
    if abs(t_grid[it] - t) > 1e-9 * step:
        raise ValidationError(f"{what} must be drawn from the representation t_grid")
    return it


def _eh_coefficients(rep: FieldOperatorRepresentation, t_set: np.ndarray) -> np.ndarray:
    """The i-normalized [E, H^dag] coefficients at the times t_set, which must
    lie on the representation's t grid: +k is read from `rep`, -k from its
    parity partner at those times (`_parity_partner`), with no second solve."""
    idx = [_on_grid(rep.t_grid, ti, "t_set") for ti in t_set]
    minus = _parity_partner(rep, idx)
    wq = rep.omega_q_weights * rep.radial_measure
    return np.stack([_eh_coefficient(rep, minus, i, j, wq) / 1j for j, i in enumerate(idx)])


def vacuum_eh_coefficient(rep: FieldOperatorRepresentation) -> np.ndarray:
    """Closed-form free-space value of the i-normalized [E, H^dag]
    coefficient, O(k): Hermitian, time-independent (the cos/sin pairs
    combine to unity), and medium-independent by the scheme's claim."""
    return curl_symbol(rep.k)


def equal_time_commutators(rep: FieldOperatorRepresentation, t_set) -> CommutatorReport:
    """Equal-time [E, H^dag] coefficients against their free-space value.

    The i-normalized coefficients of the medium `rep` at the times t_set,
    which must lie on its t grid, are compared with the closed form O(k)
    (`vacuum_eh_coefficient`), a route that shares no factor with the
    medium's assembly. The -k channels are the +k ones mapped by parity
    (details["minus_k"] names that route), so no -k mode solve runs.
    """
    t_set = np.atleast_1d(np.asarray(t_set, dtype=float))
    lhs = _eh_coefficients(rep, t_set)
    rhs = np.broadcast_to(vacuum_eh_coefficient(rep), lhs.shape).copy()
    return CommutatorReport(
        kind="field_equal_time",
        k=rep.k,
        grid=t_set,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"n_reservoir": int(rep.omega_q_grid.size), "minus_k": "parity"},
    )


def _convolver(chi_vals: np.ndarray, h: float):
    """Trapezoid convolution u -> (chi * u)(t) on a uniform grid, for (n_t, 3)
    fields u. The zero-padded kernel is transformed once; each field then
    costs one forward and one inverse transform of 3 columns, the sum over j
    taken on the spectra. An identically zero kernel returns zeros without a
    transform."""
    n = chi_vals.shape[0]
    if not np.any(chi_vals):
        return lambda u: np.zeros((n, 3), dtype=complex)
    size = _fft_size(2 * n - 1)  # no wrap-around into the first n samples
    chi_ft = np.fft.fft(chi_vals, size, axis=0)  # (size, 3, 3)

    def convolve(u: np.ndarray) -> np.ndarray:
        u_ft = np.fft.fft(u, size, axis=0)
        product = chi_ft[:, :, 0] * u_ft[:, 0, None]
        product += chi_ft[:, :, 1] * u_ft[:, 1, None]
        product += chi_ft[:, :, 2] * u_ft[:, 2, None]
        out = np.fft.ifft(product, axis=0)[:n]
        out *= h
        out -= 0.5 * h * (u @ chi_vals[0].T + (chi_vals.reshape(-1, 3) @ u[0]).reshape(n, 3))
        return out

    return convolve


def reservoir_picks(n_q: int, samples: int) -> np.ndarray:
    """Indices of the reservoir nodes the Maxwell residual samples: `samples`
    nodes spread evenly over the grid, ends included."""
    picks = np.linspace(0, n_q - 1, min(samples, n_q)).astype(int)
    return picks[np.diff(picks, prepend=-1) > 0]


@dataclass(frozen=True)
class MaxwellResidualReport:
    """Each channel's Richardson value (4 r_h - r_2h) / 3 on the points its
    grid shares with the every-other-point subsample, and the worst of them;
    `plain` is the worst r_h, `h_estimate` the worst |r_h - r_2h| / 3."""

    k: np.ndarray
    channels: dict
    max_residual: float
    plain: float
    h_estimate: float


def maxwell_residual(rep: FieldOperatorRepresentation) -> MaxwellResidualReport:
    """Residuals of the transformed Maxwell system per coefficient channel.

    Channels: each photon polarization, and the d/b reservoir channels at
    every reservoir frequency of the representation (each must satisfy the
    system independently, by linearity), so a caller builds the
    representation on the nodes it wants checked. Faraday row: O E - dB/dt;
    Ampere row: dD/dt + O H, with D and B closed through the constitutive
    convolutions and the explicit noise channels. Both O(h^2) rules are
    taken again on every other point of the grid, whose channels are exact
    pointwise, and the residual vectors extrapolated. A channel whose fields
    and noise are all exactly 0 reads 0 without forming its rows. The worst
    channel is the result, NaN when any channel is NaN.
    """
    h = difference_step(rep.t_grid)
    difference_step(rep.t_grid[::2])  # the subsample is differenced too
    o = curl_symbol(rep.k)
    convolvers = {s: (_convolver(rep.chi_e[::s], s * h), _convolver(rep.chi_m[::s], s * h))
                  for s in (1, 2)}
    channels, plain, estimate = {}, {}, {}

    def rows(s, e_ch, h_ch, p_noise=None, m_noise=None):
        # the Faraday and Ampere rows on every s-th point, and their scale
        conv_e, conv_m = convolvers[s]
        e_ch, h_ch = e_ch[::s], h_ch[::s]
        p = conv_e(e_ch) + (0.0 if p_noise is None else p_noise[::s])
        d_rate = _central_difference(e_ch + p, s * h)
        m = conv_m(h_ch) + (0.0 if m_noise is None else m_noise[::s])
        b_rate = _central_difference(h_ch + m, s * h)
        curl_e, curl_h = e_ch @ o.T, h_ch @ o.T
        # longitudinal channels have vanishing curls and flux rates; their
        # natural scale is the displacement-rate of the field term
        rates = (float(np.max(np.abs(_central_difference(e_ch, s * h)))),
                 float(np.max(np.abs(_central_difference(h_ch, s * h)))))
        scale = max(*(float(np.max(np.abs(x))) for x in (b_rate, d_rate, curl_e, curl_h)), *rates)
        return np.concatenate([curl_e + b_rate, d_rate - curl_h], axis=1), scale

    def record(name, *fields, **noise):
        if not any(np.any(x) for x in (*fields, *noise.values())):  # its rows are 0
            channels[name] = plain[name] = estimate[name] = 0.0
            return
        (fine, scale), (coarse, _) = rows(1, *fields, **noise), rows(2, *fields, **noise)
        channels[name], plain[name], estimate[name] = _richardson(fine, coarse, scale)

    for lam in (0, 1):
        record(f"photon_{lam + 1}", rep.photon_E[lam], rep.photon_H[lam])
    for nu in range(3):
        for q in range(rep.omega_q_grid.size):
            at = (nu, q)
            record(f"d_nu{nu + 1}_q{q}", rep.channel("E_d", at), rep.channel("H_d", at),
                   p_noise=rep.channel("P_d", at))
            record(f"b_nu{nu + 1}_q{q}", rep.channel("E_b", at), rep.channel("H_b", at),
                   m_noise=rep.channel("M_b", at))
    worst = {key: float(np.max(list(values.values()))) for key, values in
             (("max_residual", channels), ("plain", plain), ("h_estimate", estimate))}
    return MaxwellResidualReport(k=rep.k, channels=channels, **worst)


@dataclass(frozen=True)
class ConstitutiveCheck:
    t_grid: np.ndarray
    p_convolution: np.ndarray  # (n_t, 3) kernel-then-convolve route, at step h
    p_ladder: np.ndarray  # (n_t, 3) per-frequency oscillator route, at step h
    residual: float  # Richardson value of the routes' difference (4 r_h - r_2h) / 3
    plain: float  # the worst r_h
    h_estimate: float  # the worst |r_h - r_2h| / 3
    probe: dict


def constitutive_roundtrip(
    model,
    kernel: SusceptibilityKernel,
    t_grid,
) -> ConstitutiveCheck:
    """Polarization under a c-number probe, two ways, from the model's
    kernel (its quadrature representation).

    Route A evaluates the memory kernel on t_grid and convolves it with the
    probe; route B drives each reservoir frequency as an independent
    oscillator (per-node sine convolution) and sums with the quadrature
    weights. The two routes share only the coupling evaluation. The probe is
    a Gaussian pulse of width 2 / frequency_scale along (1, 1, 1). Both
    routes, O(h^2) each, are taken again at step 2h on every other point,
    and each is extrapolated as (4 p_h - p_2h) / 3. Both step a uniform
    t_grid from 0 whose every-other-point subsample ends at t_grid[-1],
    within the horizon the representation was converged on; any other grid
    raises ValidationError.
    """
    t = np.asarray(t_grid, dtype=float)
    h = uniform_step(t)
    if h is None or t[0] != 0.0 or t.size % 2 == 0:
        raise ValidationError("constitutive_roundtrip needs a uniform t_grid from 0 on an odd "
                              "number of points, so that every other point ends at t_grid[-1]")
    rep = kernel.rep_to(t[-1], "constitutive_roundtrip")
    e_dir = np.ones(3) / np.linalg.norm(np.ones(3))
    tau = 2.0 / model.frequency_scale
    t0 = 5.0 * tau
    amp = np.exp(-(((t - t0) / tau) ** 2))
    probe_field = (amp[:, None] * e_dir[None, :]).astype(complex)
    chi_vals = rep.kernel_values(t)

    def routes(s):
        # on every s-th point: route A, the kernel's convolution, and route
        # B, every reservoir frequency driven as an independent oscillator by
        # the exact one-step propagator with the probe linear on each step (a
        # different discretization, so agreement is a genuine cross-check)
        p_a = _convolver(chi_vals[::s], s * h)(probe_field[::s])
        ladder = block_tensors(_oscillator_responses(rep.nodes, amp[::s], t[::s], rep.block),
                               rep.basis)
        return p_a, ladder @ e_dir.astype(complex)

    (p_a, p_b), (p_a2, p_b2) = routes(1), routes(2)
    residual, plain, h_estimate = _richardson(p_a - p_b, p_a2 - p_b2, float(np.max(np.abs(p_a))))
    return ConstitutiveCheck(
        t_grid=t,
        p_convolution=p_a,
        p_ladder=p_b,
        residual=residual,
        plain=plain,
        h_estimate=h_estimate,
        probe={"tau": tau, "center": t0, "direction": [float(x) for x in e_dir]},
    )


def vacuum_spectrum(
    rep: FieldOperatorRepresentation,
    r_offset=(0.0, 0.0, 0.0),
    t: float = 0.0,
) -> np.ndarray:
    """Symmetrized equal-time <E_i E_j> coefficient density at one k.

    Includes the +-k fold and all three operator sectors in the joint vacuum
    of a(0), d(0), b(0). Hermitian always; PSD at r_offset = 0 for a sound
    representation (a fixed nonzero separation need not give a pointwise PSD
    matrix). Positivity is returned, not enforced: a caller judges it from the
    eigenvalues.
    """
    it = _on_grid(rep.t_grid, t, "t")
    delta = np.asarray(r_offset, dtype=float)
    wq = rep.omega_q_weights * rep.radial_measure
    phase = np.exp(1j * float(rep.k @ delta))
    e_ph = rep.photon_E[:, it]
    gram = np.einsum("la,lb->ab", e_ph, np.conj(e_ph))
    for sector in ("E_d", "E_b"):
        e_res = rep.channel(sector, it=it)
        gram += np.einsum("nqa,q,nqb->ab", e_res, wq, np.conj(e_res))
    return 0.5 * (phase * gram + np.conj(phase) * gram.conj().T)
