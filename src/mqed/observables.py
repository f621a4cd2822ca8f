"""Physical verification quantities assembled from the mode coefficients:
equal-time field commutator coefficients, Maxwell-equation residuals, the
constitutive-equation round trip and vacuum fluctuation spectra.

The electric and magnetic field operators are represented by their
coefficient functions over the initial photon operators a(0) (weights
sqrt(hbar w_k eps0 / 2 (2pi)^3) and the mu0 twin) and the initial reservoir
operators d(0), b(0) (weights (2pi)^{-3/2} with triad contractions). Each
coefficient channel must satisfy the transformed Maxwell system on its own,
and the equal-time commutators assembled from the channels must be
medium-independent; both statements are checked numerically here. A
representation reads the medium from one `LaplaceResponse`: its Lambda
system, its reservoir couplings and its memory kernels. It holds the mode
coefficients and channels at one wave vector; the commutators pair it with
the representation at -k, built at their own times only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .modes import ModeCoefficients, mode_coefficients
from .noise import CommutatorReport, _oscillator_responses, _relative_deviation
from .quadrature import QuadratureSpec
from .rational import Rational, ilt_rational
from .response import (
    KernelStore,
    LaplaceResponse,
    _central_difference,
    _fft_size,
    block_tensors,
    difference_step,
    uniform_step,
)
from .tensors import (
    IDENTITY3,
    NATURAL,
    PhysicalConstants,
    curl_symbol,
    triad,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3


@dataclass(frozen=True)
class FieldOperatorRepresentation:
    """Coefficient channels of E and H at one wave vector on the whole t
    grid, and the memory kernels (read only by the Maxwell residual) when
    first read."""

    k: np.ndarray
    t_grid: np.ndarray
    omega_q_grid: np.ndarray
    omega_q_weights: np.ndarray
    response: LaplaceResponse
    method: str
    coeffs: ModeCoefficients
    photon_E: np.ndarray  # (2, n_t, 3)
    photon_H: np.ndarray
    res_E_d: np.ndarray  # (3, n_q, n_t, 3)
    res_E_b: np.ndarray
    res_H_d: np.ndarray
    res_H_b: np.ndarray
    noise_P_d: np.ndarray  # (3, n_q, n_t, 3) noise-polarization channel
    noise_M_b: np.ndarray

    @property
    def constants(self) -> PhysicalConstants:
        return self.response.constants

    @cached_property
    def chi_e(self) -> np.ndarray:
        """(n_t, 3, 3) electric (bound plus free) memory kernel at k."""
        return _memory_kernel(self.response.model_e, self)

    @cached_property
    def chi_m(self) -> np.ndarray:
        """(n_t, 3, 3) magnetic memory kernel at k."""
        return _memory_kernel(self.response.model_m, self)

    @property
    def radial_measure(self) -> np.ndarray:
        """Reservoir continuum measure 4 pi w_q^2 / c^3 at the nodes."""
        return 4.0 * np.pi * self.omega_q_grid**2 / self.constants.c**3


def _memory_kernel(model, rep: FieldOperatorRepresentation) -> np.ndarray:
    """The chi(t) of `model` on the representation's t grid whose transform
    the mode solver inverted, summed over the response's `parts` at k: the
    closed-form inverse of a rational part, the kernel values of a Laplace
    representation."""
    t = rep.t_grid
    out = np.zeros((t.size, 3, 3), dtype=complex)
    for part in rep.response.parts(model, rep.k):
        if isinstance(part, Rational):
            out += ilt_rational(part, t)[0][:, None, None] * IDENTITY3
        else:
            out += part.kernel_values(t)
    return out


def field_representation(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    omega_q_weights,
    method: str = "auto",
) -> FieldOperatorRepresentation:
    """The coefficient representation of E and H in the medium `response` at
    one k on the (t, omega_q) grids; the memory kernels are built when first
    read. The run's `response` shares its Laplace-domain chi_hat between
    calls."""
    k = np.asarray(k, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    omega_q = np.asarray(omega_q_grid, dtype=float)
    weights = np.asarray(omega_q_weights, dtype=float)
    if omega_q.shape != weights.shape:
        raise ValidationError("omega_q grid and weights must align")
    mc = mode_coefficients(response, k, t, omega_q, method=method)
    tr = triad(k)
    c = response.constants
    w_k = c.c * float(np.linalg.norm(k))
    w_e = np.sqrt(c.hbar * w_k * c.eps0 / (2.0 * TWO_PI_CUBED))
    w_m = np.sqrt(c.hbar * w_k * c.mu0 / (2.0 * TWO_PI_CUBED))
    res_w = TWO_PI_CUBED**-0.5
    e_pairs = (tr.e1, tr.e2)
    s_pairs = (tr.s1, tr.s2)
    vs = [tr.e(nu) for nu in (1, 2, 3)]
    ss = [tr.s(nu) for nu in (1, 2, 3)]
    phase = np.exp(-1j * np.outer(omega_q, t))  # (n_q, n_t)
    return FieldOperatorRepresentation(
        k, t, omega_q, weights, response, method, mc,
        photon_E=np.stack([
            1j * (w_e * mc.gamma @ e + w_m * mc.xi @ s) for e, s in zip(e_pairs, s_pairs)
        ]),
        photon_H=np.stack([
            1j * (w_e * mc.gamma_tilde @ e + w_m * mc.xi_tilde @ s)
            for e, s in zip(e_pairs, s_pairs)
        ]),
        res_E_d=np.stack([res_w * mc.eta @ v for v in vs]),
        res_E_b=np.stack([1j * res_w * mc.zeta @ s for s in ss]),
        res_H_d=np.stack([res_w * mc.eta_tilde @ v for v in vs]),
        res_H_b=np.stack([1j * res_w * mc.zeta_tilde @ s for s in ss]),
        noise_P_d=np.stack([
            res_w * np.einsum("qij,j->qi", mc.f_q, v)[:, None, :] * phase[:, :, None]
            for v in vs
        ]),
        noise_M_b=np.stack([
            1j * res_w * np.einsum("qij,j->qi", mc.g_q, s)[:, None, :] * phase[:, :, None]
            for s in ss
        ]),
    )


def _eh_coefficient(p: FieldOperatorRepresentation, m: FieldOperatorRepresentation,
                    ip: int, im: int, wq: np.ndarray) -> np.ndarray:
    """delta-normalized coefficient of [E_i(k, t), H_j^dag(k', t)] from +k
    channels `p` at time index ip and -k channels `m` at index im, before the
    i-normalization; wq holds the reservoir weights times the radial measure."""
    ph = np.einsum("la,lb->ab", p.photon_E[:, ip], np.conj(p.photon_H[:, ip])) - np.einsum(
        "la,lb->ab", np.conj(m.photon_E[:, im]), m.photon_H[:, im]
    )
    res = np.zeros((3, 3), dtype=complex)
    for e, h in (("res_E_d", "res_H_d"), ("res_E_b", "res_H_b")):
        ep, hp, em, hm = getattr(p, e), getattr(p, h), getattr(m, e), getattr(m, h)
        res += np.einsum("nqa,q,nqb->ab", ep[:, :, ip], wq, np.conj(hp[:, :, ip]))
        res -= np.einsum("nqa,q,nqb->ab", np.conj(em[:, :, im]), wq, hm[:, :, im])
    return TWO_PI_CUBED * (ph + res)


def _eh_coefficients(rep: FieldOperatorRepresentation, t_set: np.ndarray):
    """The i-normalized [E, H^dag] coefficients at the times t_set, which must
    lie on the representation's t grid, and the metadata of the -k solve: +k
    is read from `rep`, -k is solved at those times only."""
    idx = [int(np.argmin(np.abs(rep.t_grid - ti))) for ti in t_set]
    if any(abs(rep.t_grid[i] - ti) > 1e-9 * max(1.0, abs(ti)) for i, ti in zip(idx, t_set)):
        raise ValidationError("t_set must be drawn from the representation t_grid")
    minus = field_representation(rep.response, -rep.k, rep.t_grid[idx], rep.omega_q_grid,
                                 rep.omega_q_weights, method=rep.method)
    wq = rep.omega_q_weights * rep.radial_measure
    coeffs = np.stack([_eh_coefficient(rep, minus, i, j, wq) / 1j for j, i in enumerate(idx)])
    return coeffs, minus.coeffs.metadata


def vacuum_eh_coefficient(rep: FieldOperatorRepresentation) -> np.ndarray:
    """Closed-form free-space value of the i-normalized [E, H^dag]
    coefficient, hbar c^2 O(k): Hermitian, time-independent (the cos/sin
    pairs combine to unity), and medium-independent by the scheme's claim."""
    c = rep.constants
    return c.hbar * c.c**2 * curl_symbol(rep.k)


def equal_time_commutators(
    rep: FieldOperatorRepresentation,
    t_set,
    baseline: FieldOperatorRepresentation | None = None,
) -> CommutatorReport:
    """Equal-time [E, H^dag] coefficients against the vacuum baseline.

    The -k channels are solved at the times t_set, which must lie on the t
    grid of `rep` and of the vacuum `baseline` (which may hold just t_set);
    without a baseline the target is the analytic i hbar c^2 x (curl matrix).
    details["minus_k"] is the metadata of that -k solve.
    """
    t_set = np.atleast_1d(np.asarray(t_set, dtype=float))
    lhs, minus_k = _eh_coefficients(rep, t_set)
    if baseline is not None:
        rhs = _eh_coefficients(baseline, t_set)[0]
    else:
        rhs = np.broadcast_to(vacuum_eh_coefficient(rep), lhs.shape).copy()
    return CommutatorReport(
        kind="field_equal_time",
        k=rep.k,
        grid=t_set,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"n_reservoir": int(rep.omega_q_grid.size), "minus_k": dict(minus_k)},
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
        out -= 0.5 * h * (np.einsum("ij,tj->ti", chi_vals[0], u)
                          + np.einsum("tij,j->ti", chi_vals, u[0]))
        return out

    return convolve


def reservoir_picks(n_q: int, samples: int) -> np.ndarray:
    """Indices of the reservoir nodes the Maxwell residual samples: `samples`
    nodes spread evenly over the grid, ends included."""
    return np.unique(np.linspace(0, n_q - 1, min(samples, n_q)).astype(int))


@dataclass(frozen=True)
class MaxwellResidualReport:
    k: np.ndarray
    channels: dict
    max_residual: float


def maxwell_residual(
    rep: FieldOperatorRepresentation,
    reservoir_samples: int = 4,
) -> MaxwellResidualReport:
    """Residuals of the transformed Maxwell system per coefficient channel.

    Channels: each photon polarization, and the d/b reservoir channels at a
    subsample of reservoir frequencies (each must satisfy the system
    independently, by linearity). Faraday row: O E - dB/dt; Ampere row:
    dD/dt + O H, with D and B closed through the constitutive convolutions
    and the explicit noise channels.
    """
    h = difference_step(rep.t_grid)
    c = rep.constants
    o = curl_symbol(rep.k)
    conv_e = _convolver(rep.chi_e, h)
    conv_m = _convolver(rep.chi_m, h)
    channels = {}

    def record(name, e_ch, h_ch, p_noise=None, m_noise=None):
        p = c.eps0 * conv_e(e_ch)
        if p_noise is not None:
            p = p + p_noise
        d_rate = _central_difference(c.eps0 * e_ch + p, h)
        m = conv_m(h_ch)
        if m_noise is not None:
            m = m + m_noise
        b_rate = _central_difference(c.mu0 * (h_ch + m), h)
        curl_e, curl_h = e_ch @ o.T, h_ch @ o.T
        faraday = curl_e + b_rate
        ampere = d_rate - curl_h
        scale = max(
            float(np.max(np.abs(b_rate))),
            float(np.max(np.abs(d_rate))),
            float(np.max(np.abs(curl_e))),
            float(np.max(np.abs(curl_h))),
            # longitudinal channels have vanishing curls and flux rates;
            # their natural scale is the displacement-rate of the field term
            c.eps0 * float(np.max(np.abs(_central_difference(e_ch, h)))),
            c.mu0 * float(np.max(np.abs(_central_difference(h_ch, h)))),
        )
        resid = max(float(np.max(np.abs(faraday))), float(np.max(np.abs(ampere))))
        channels[name] = resid / scale if scale > 0.0 else resid

    for lam in (0, 1):
        record(f"photon_{lam + 1}", rep.photon_E[lam], rep.photon_H[lam])
    n_q = rep.omega_q_grid.size
    if n_q:
        for nu in range(3):
            for q in reservoir_picks(n_q, reservoir_samples):
                record(f"d_nu{nu + 1}_q{q}", rep.res_E_d[nu, q], rep.res_H_d[nu, q],
                       p_noise=rep.noise_P_d[nu, q])
                record(f"b_nu{nu + 1}_q{q}", rep.res_E_b[nu, q], rep.res_H_b[nu, q],
                       m_noise=rep.noise_M_b[nu, q])
    worst = max(channels.values()) if channels else 0.0
    return MaxwellResidualReport(k=rep.k, channels=channels, max_residual=worst)


@dataclass(frozen=True)
class ConstitutiveCheck:
    t_grid: np.ndarray
    p_convolution: np.ndarray  # (n_t, 3) kernel-then-convolve route
    p_ladder: np.ndarray  # (n_t, 3) per-frequency oscillator route
    residual: float
    probe: dict


def constitutive_roundtrip(
    model,
    k,
    t_grid,
    constants: PhysicalConstants = NATURAL,
    quad: QuadratureSpec = QuadratureSpec(),
    kernels: KernelStore | None = None,
) -> ConstitutiveCheck:
    """Polarization under a c-number probe, two ways.

    Route A computes the memory kernel once and convolves it with the probe;
    route B drives each reservoir frequency as an independent oscillator
    (per-node sine convolution) and sums with the quadrature weights. The two
    routes share only the coupling evaluation. The probe is a Gaussian pulse
    of width 2 / frequency_scale along (1, 1, 1). Both routes step a uniform
    t_grid from 0; any other grid raises ValidationError.
    """
    t = np.asarray(t_grid, dtype=float)
    h = uniform_step(t)
    if h is None or t[0] != 0.0:
        raise ValidationError("constitutive_roundtrip needs a uniform t_grid from 0")
    k = np.asarray(k, dtype=float)
    e_dir = np.ones(3) / np.linalg.norm(np.ones(3))
    tau = 2.0 / model.frequency_scale
    t0 = 5.0 * tau
    amp = np.exp(-(((t - t0) / tau) ** 2))
    probe_field = amp[:, None] * e_dir[None, :]

    kernel = (kernels or KernelStore()).kernel(model, k, t, constants=constants, quad=quad)
    eps0 = constants.eps0 if model.which == "electric" else 1.0
    p_a = eps0 * _convolver(kernel.values, h)(probe_field.astype(complex))

    # ladder route: every reservoir frequency driven as an independent
    # oscillator, advanced by the exact one-step propagator with the probe
    # linear on each step (a different discretization from the kernel
    # convolution above, so agreement is a genuine cross-check)
    rep = kernel.rep
    ladder = block_tensors(_oscillator_responses(rep.nodes, amp, t, rep.block), rep.basis)
    p_b = eps0 * (ladder @ e_dir.astype(complex))

    scale = float(np.max(np.abs(p_a)))
    residual = float(np.max(np.abs(p_a - p_b))) / scale if scale > 0.0 else float(np.max(np.abs(p_b)))
    return ConstitutiveCheck(
        t_grid=t,
        p_convolution=p_a,
        p_ladder=p_b,
        residual=residual,
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
    it = int(np.argmin(np.abs(rep.t_grid - t)))
    if abs(rep.t_grid[it] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError("t must be drawn from the representation t_grid")
    delta = np.asarray(r_offset, dtype=float)
    wq = rep.omega_q_weights * rep.radial_measure
    phase = np.exp(1j * float(rep.k @ delta))
    e_ph = rep.photon_E[:, it]
    gram = np.einsum("la,lb->ab", e_ph, np.conj(e_ph))
    for sector in (rep.res_E_d, rep.res_E_b):
        e_res = sector[:, :, it]
        gram += np.einsum("nqa,q,nqb->ab", e_res, wq, np.conj(e_res))
    return 0.5 * (phase * gram + np.conj(phase) * gram.conj().T)
