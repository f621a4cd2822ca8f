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
system, its reservoir couplings and its memory kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .modes import ModeCoefficients, mode_coefficients
from .noise import CommutatorReport, _kernel, _relative_deviation
from .quadrature import QuadratureSpec
from .rational import ilt_rational
from .response import (
    _TABLE_ELEMENTS,
    KernelStore,
    LaplaceResponse,
    block_tensors,
    chi_hat_rational,
    finite_difference_time,
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
class FieldSide:
    """Coefficient channels of E and H at one side (+k or -k) of the fold."""

    coeffs: ModeCoefficients
    photon_E: np.ndarray  # (2, n_t, 3)
    photon_H: np.ndarray
    res_E_d: np.ndarray  # (3, n_q, n_t, 3)
    res_E_b: np.ndarray
    res_H_d: np.ndarray
    res_H_b: np.ndarray
    noise_P_d: np.ndarray  # (3, n_q, n_t, 3) noise-polarization channel
    noise_M_b: np.ndarray


@dataclass(frozen=True)
class FieldOperatorRepresentation:
    """Coefficient families of E and H at one wave vector.

    The delta-normalized commutators fold +k and -k together, so both sides
    are available through `side(sign)`; each is built when first read, and
    the memory kernels (read only by the Maxwell residual, at +k) likewise.
    """

    k: np.ndarray
    t_grid: np.ndarray
    omega_q_grid: np.ndarray
    omega_q_weights: np.ndarray
    response: LaplaceResponse
    method: str
    kernels: KernelStore | None
    _sides: dict = field(default_factory=dict, repr=False, compare=False)

    def side(self, sign: int) -> FieldSide:
        """The channels at sign * k (sign = +1 or -1)."""
        if sign not in self._sides:
            kk = sign * self.k
            mc = mode_coefficients(self.response, kk, self.t_grid, self.omega_q_grid,
                                   method=self.method)
            self._sides[sign] = _assemble_side(mc, kk, self.constants, self.t_grid,
                                               self.omega_q_grid)
        return self._sides[sign]

    @property
    def plus(self) -> ModeCoefficients:
        return self.side(+1).coeffs

    @property
    def minus(self) -> ModeCoefficients:
        return self.side(-1).coeffs

    @property
    def constants(self) -> PhysicalConstants:
        return self.response.constants

    @cached_property
    def chi_e(self) -> np.ndarray:
        """(n_t, 3, 3) electric (bound plus free) memory kernel at +k."""
        return _memory_kernel(self.response.reservoir_electric, self)

    @cached_property
    def chi_m(self) -> np.ndarray:
        """(n_t, 3, 3) magnetic memory kernel at +k."""
        return _memory_kernel(self.response.model_m, self)

    @property
    def radial_measure(self) -> np.ndarray:
        """Reservoir continuum measure 4 pi w_q^2 / c^3 at the nodes."""
        return 4.0 * np.pi * self.omega_q_grid**2 / self.constants.c**3


def _assemble_side(coeffs: ModeCoefficients, sign_k, constants, t_grid, omega_q) -> FieldSide:
    tr = triad(sign_k)
    c = constants
    w_k = c.c * float(np.linalg.norm(sign_k))
    w_e = np.sqrt(c.hbar * w_k * c.eps0 / (2.0 * TWO_PI_CUBED))
    w_m = np.sqrt(c.hbar * w_k * c.mu0 / (2.0 * TWO_PI_CUBED))
    res_w = TWO_PI_CUBED**-0.5
    e_pairs = (tr.e1, tr.e2)
    s_pairs = (tr.s1, tr.s2)
    vs = [tr.e(nu) for nu in (1, 2, 3)]
    ss = [tr.s(nu) for nu in (1, 2, 3)]
    phase = np.exp(-1j * np.outer(omega_q, t_grid))  # (n_q, n_t)
    return FieldSide(
        coeffs=coeffs,
        photon_E=np.stack([
            1j * (w_e * coeffs.gamma @ e + w_m * coeffs.xi @ s) for e, s in zip(e_pairs, s_pairs)
        ]),
        photon_H=np.stack([
            1j * (w_e * coeffs.gamma_tilde @ e + w_m * coeffs.xi_tilde @ s)
            for e, s in zip(e_pairs, s_pairs)
        ]),
        res_E_d=np.stack([res_w * coeffs.eta @ v for v in vs]),
        res_E_b=np.stack([1j * res_w * coeffs.zeta @ s for s in ss]),
        res_H_d=np.stack([res_w * coeffs.eta_tilde @ v for v in vs]),
        res_H_b=np.stack([1j * res_w * coeffs.zeta_tilde @ s for s in ss]),
        noise_P_d=np.stack([
            res_w * np.einsum("qij,j->qi", coeffs.f_q, v)[:, None, :] * phase[:, :, None]
            for v in vs
        ]),
        noise_M_b=np.stack([
            1j * res_w * np.einsum("qij,j->qi", coeffs.g_q, s)[:, None, :] * phase[:, :, None]
            for s in ss
        ]),
    )


def _memory_kernel(model, rep: FieldOperatorRepresentation) -> np.ndarray:
    """Susceptibility kernel values of `model` on the representation's t grid
    for the constitutive convolutions, matched to the representation the
    mode solver uses (closed form for rational media, quadrature otherwise)."""
    t = rep.t_grid
    if model.is_zero:
        return np.zeros((t.size, 3, 3), dtype=complex)
    if model.is_rational:
        vals, _, _ = ilt_rational(chi_hat_rational(model), t)
        return vals[:, None, None] * IDENTITY3[None, :, :].astype(complex)
    return _kernel(model, rep.k, t, rep.constants, rep.response.quad, rep.kernels).values


def field_representation(
    response: LaplaceResponse,
    k,
    t_grid,
    omega_q_grid,
    omega_q_weights,
    method: str = "auto",
    kernels: KernelStore | None = None,
) -> FieldOperatorRepresentation:
    """The coefficient representation of E and H in the medium `response` at
    one k, with the +k side built; the -k side and the memory kernels are
    built when first read.

    The run's `response` shares its Laplace-domain chi_hat between calls, and
    the run's `kernels` store shares the memory kernels."""
    k = np.asarray(k, dtype=float)
    omega_q = np.asarray(omega_q_grid, dtype=float)
    weights = np.asarray(omega_q_weights, dtype=float)
    if omega_q.shape != weights.shape:
        raise ValidationError("omega_q grid and weights must align")
    rep = FieldOperatorRepresentation(
        k=k,
        t_grid=np.asarray(t_grid, dtype=float),
        omega_q_grid=omega_q,
        omega_q_weights=weights,
        response=response,
        method=method,
        kernels=kernels,
    )
    rep.side(+1)
    return rep


def _eh_coefficient(rep: FieldOperatorRepresentation, it: int) -> np.ndarray:
    """delta-normalized coefficient of [E_i(k, t), H_j^dag(k', t)] at one
    time index (before the i-normalization of the report)."""
    p, m = rep.side(+1), rep.side(-1)
    ph = np.einsum("la,lb->ab", p.photon_E[:, it], np.conj(p.photon_H[:, it])) - np.einsum(
        "la,lb->ab", np.conj(m.photon_E[:, it]), m.photon_H[:, it]
    )
    wq = rep.omega_q_weights * rep.radial_measure
    res = np.zeros((3, 3), dtype=complex)
    for e_name, h_name in (("res_E_d", "res_H_d"), ("res_E_b", "res_H_b")):
        ep, hp = getattr(p, e_name), getattr(p, h_name)
        em, hm = getattr(m, e_name), getattr(m, h_name)
        res += np.einsum("nqa,q,nqb->ab", ep[:, :, it], wq, np.conj(hp[:, :, it]))
        res -= np.einsum("nqa,q,nqb->ab", np.conj(em[:, :, it]), wq, hm[:, :, it])
    return TWO_PI_CUBED * (ph + res)


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

    The baseline defaults to the vacuum representation assembled through the
    same pipeline on the same grids; its analytic value is
    i hbar c^2 x (curl matrix).
    """
    t_set = np.atleast_1d(np.asarray(t_set, dtype=float))
    idx = [int(np.argmin(np.abs(rep.t_grid - ti))) for ti in t_set]
    if any(abs(rep.t_grid[i] - ti) > 1e-9 * max(1.0, abs(ti)) for i, ti in zip(idx, t_set)):
        raise ValidationError("t_set must be drawn from the representation t_grid")
    lhs = np.stack([_eh_coefficient(rep, i) / 1j for i in idx])
    if baseline is not None:
        rhs = np.stack([_eh_coefficient(baseline, i) / 1j for i in idx])
    else:
        rhs = np.broadcast_to(vacuum_eh_coefficient(rep), lhs.shape).copy()
    return CommutatorReport(
        kind="field_equal_time",
        k=rep.k,
        grid=t_set,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details={"n_reservoir": int(rep.omega_q_grid.size)},
    )


def _fft_size(n: int) -> int:
    """Smallest 11-smooth length >= n, which pocketfft transforms fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _convolver(chi_vals: np.ndarray, h: float):
    """Trapezoid convolution u -> (chi * u)(t) on a uniform grid, for (n_t, 3)
    fields u. The zero-padded kernel is transformed once; each field then
    costs 3 forward and one batch of 9 inverse transforms, whose products are
    summed over j in the time domain."""
    n = chi_vals.shape[0]
    size = _fft_size(2 * n - 1)  # no wrap-around into the first n samples
    chi_ft = np.fft.fft(chi_vals, size, axis=0)  # (size, 3, 3)

    def convolve(u: np.ndarray) -> np.ndarray:
        u_ft = np.fft.fft(u, size, axis=0)
        terms = np.fft.ifft(chi_ft * u_ft[:, None, :], axis=0)[:n]  # (n, i, j)
        out = terms[:, :, 0] + terms[:, :, 1]
        out += terms[:, :, 2]
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
    t = rep.t_grid
    h = float(t[1] - t[0])
    if np.max(np.abs(np.diff(t) - h)) > 1e-9 * h:
        raise ValidationError("maxwell_residual needs a uniform t_grid")
    c = rep.constants
    o = curl_symbol(rep.k)
    conv_e = _convolver(rep.chi_e, h)
    conv_m = _convolver(rep.chi_m, h)
    side = rep.side(+1)
    channels = {}

    def record(name, e_ch, h_ch, p_noise=None, m_noise=None):
        p = c.eps0 * conv_e(e_ch)
        if p_noise is not None:
            p = p + p_noise
        d_ch = c.eps0 * e_ch + p
        m = conv_m(h_ch)
        if m_noise is not None:
            m = m + m_noise
        b_ch = c.mu0 * (h_ch + m)
        faraday = e_ch @ o.T + finite_difference_time(b_ch, t)
        ampere = finite_difference_time(d_ch, t) - h_ch @ o.T
        scale = max(
            float(np.max(np.abs(finite_difference_time(b_ch, t)))),
            float(np.max(np.abs(finite_difference_time(d_ch, t)))),
            float(np.max(np.abs(e_ch @ o.T))),
            float(np.max(np.abs(h_ch @ o.T))),
            # longitudinal channels have vanishing curls and flux rates;
            # their natural scale is the displacement-rate of the field term
            c.eps0 * float(np.max(np.abs(finite_difference_time(e_ch, t)))),
            c.mu0 * float(np.max(np.abs(finite_difference_time(h_ch, t)))),
        )
        resid = max(float(np.max(np.abs(faraday))), float(np.max(np.abs(ampere))))
        channels[name] = resid / scale if scale > 0.0 else resid

    for lam in (0, 1):
        record(f"photon_{lam + 1}", side.photon_E[lam], side.photon_H[lam])
    n_q = rep.omega_q_grid.size
    if n_q:
        for nu in range(3):
            for q in reservoir_picks(n_q, reservoir_samples):
                record(f"d_nu{nu + 1}_q{q}", side.res_E_d[nu, q], side.res_H_d[nu, q],
                       p_noise=side.noise_P_d[nu, q])
                record(f"b_nu{nu + 1}_q{q}", side.res_E_b[nu, q], side.res_H_b[nu, q],
                       m_noise=side.noise_M_b[nu, q])
    worst = max(channels.values()) if channels else 0.0
    return MaxwellResidualReport(k=rep.k, channels=channels, max_residual=worst)


def _oscillator_responses(
    omega: np.ndarray, drive: np.ndarray, t: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """int_0^t sin(w (t - s)) drive(s) ds for every frequency, by the exact
    one-step exponential propagator with the drive piecewise linear,
    contracted against the (n_w, m) coefficient block: (n_t, m).

    The responses of consecutive steps fill a (steps, n_w) table within
    `_TABLE_ELEMENTS`, one contiguous row per step, and each full table is
    contracted at once. The steps stay a loop: a cumulative-sum form of the
    same recurrence over such tables moves far more memory per step."""
    h = float(t[1] - t[0])
    wh = omega * h
    phi = np.exp(1j * wh)
    iw = 1j * omega
    small = np.abs(wh) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(small, h * (1.0 + 0.5j * wh - wh**2 / 6.0), (phi - 1.0) / iw)
        j1 = np.where(
            small,
            h**2 * (0.5 + 1j * wh / 6.0 - wh**2 / 24.0),
            h * (phi - 1.0) / iw - (phi * (1.0 - 1j * wh) - 1.0) / omega**2,
        )
    coeff_old = j0 - j1 / h  # weight of drive(t_m)
    coeff_new = j1 / h  # weight of drive(t_{m+1})
    rows = max(1, _TABLE_ELEMENTS // max(1, omega.size))
    out = np.zeros((t.size, block.shape[1]))
    state = np.zeros(omega.size, dtype=complex)
    for start in range(1, t.size, rows):
        table = np.empty((min(rows, t.size - start), omega.size))
        for i, m in enumerate(range(start - 1, start - 1 + table.shape[0])):
            state = phi * state + coeff_old * drive[m] + coeff_new * drive[m + 1]
            table[i] = state.imag
        out[start : start + table.shape[0]] = table @ block
    return out


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
    of width 2 / frequency_scale along (1, 1, 1).
    """
    t = np.asarray(t_grid, dtype=float)
    h = float(t[1] - t[0])
    k = np.asarray(k, dtype=float)
    e_dir = np.ones(3) / np.linalg.norm(np.ones(3))
    tau = 2.0 / model.frequency_scale
    t0 = 5.0 * tau
    amp = np.exp(-(((t - t0) / tau) ** 2))
    probe_field = amp[:, None] * e_dir[None, :]

    kernel = _kernel(model, k, t, constants, quad, kernels)
    eps0 = constants.eps0 if model.which == "electric" else 1.0
    p_a = eps0 * _convolver(kernel.values, h)(probe_field.astype(complex))

    # ladder route: every reservoir frequency driven as an independent
    # oscillator, advanced by the exact one-step propagator with the probe
    # linear on each step (a different discretization from the kernel
    # convolution above, so agreement is a genuine cross-check)
    rep = kernel.rep
    ladder = block_tensors(_oscillator_responses(rep.nodes, amp, t, rep.block))
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
    of a(0), d(0), b(0). Hermitian always; PSD whenever r_offset = 0 (a fixed
    nonzero separation need not give a pointwise PSD matrix).
    """
    it = int(np.argmin(np.abs(rep.t_grid - t)))
    if abs(rep.t_grid[it] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError("t must be drawn from the representation t_grid")
    delta = np.asarray(r_offset, dtype=float)
    wq = rep.omega_q_weights * rep.radial_measure
    phase = np.exp(1j * float(rep.k @ delta))
    side = rep.side(+1)
    e_ph = side.photon_E[:, it]
    gram = np.einsum("la,lb->ab", e_ph, np.conj(e_ph))
    for sector in (side.res_E_d, side.res_E_b):
        e_res = sector[:, :, it]
        gram += np.einsum("nqa,q,nqb->ab", e_res, wq, np.conj(e_res))
    out = 0.5 * (phase * gram + np.conj(phase) * gram.conj().T)
    if np.allclose(delta, 0.0):
        eigs = np.linalg.eigvalsh(out)
        scale = float(np.max(np.abs(eigs))) or 1.0
        if float(np.min(eigs)) < -1e-10 * scale:
            raise ValidationError("vacuum spectrum lost positivity at zero separation")
    return out
