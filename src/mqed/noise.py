"""Delta-normalized commutator coefficients of the noise polarization
densities and the noise current, plus the t = 0 continuity probe.

The equal-frequency commutator of the noise polarization reduces, after the
reservoir continuum is collapsed onto its radial frequency label (angular
measure 4 pi, radial Jacobian omega^2), to

    lhs(omega, k) = 4 pi omega^2 sum_nu (f v_nu)(f v_nu)^dag,

which the fluctuation-dissipation relation equates to Im chi_hat / pi of
the coupling's sector (natural units, as in every numerical module). The
two sides are
computed by disjoint numerical routes: direct coefficient assembly on the
left, the part's spectrum on the right, which is the closed form chi_hat of
a rational part (so the check compares the coupling formula with it point
by point) and the kernel-quadrature + half-line transform pipeline of any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .couplings import ELECTRIC, eval_coupling_batch
from .errors import ValidationError
from .quadrature import gauss_legendre
from .response import (ResponseSpectrum, SusceptibilityKernel, _angle_table, _fft_size,
                       _CHECK_HORIZON, _relative_deviation, _richardson, block_tensors)
from .response import chi_kernel  # noqa: F401  (perfbench's tracer test reads noise.chi_kernel)
from .tensors import triad

# the stencil step of `pdot_continuity`, in units of its probe's width
_CONTINUITY_STEP = 2e-4


@dataclass(frozen=True)
class CommutatorReport:
    """Computed vs target commutator coefficient tensors on a grid.

    For noise kinds both sides are Hermitian PSD densities of
    delta(omega - omega'); max_rel_err is normalized by the largest target
    tensor on the grid and never clipped.
    """

    kind: str  # noise_P | noise_M | noise_J | field_equal_time
    k: np.ndarray
    grid: np.ndarray
    lhs: np.ndarray  # (n, 3, 3)
    rhs: np.ndarray
    max_rel_err: float
    details: dict = field(default_factory=dict)


def noise_coefficient_density(model, k, omega_grid):
    """Direct assembly of the noise commutator density from the coupling
    tensors and the polarization triad at k (no susceptibility involved)."""
    omega = np.asarray(omega_grid, dtype=float)
    tr = triad(k)
    f = eval_coupling_batch(model, omega, k)
    vs = [tr.e(nu) if model.which == ELECTRIC else tr.s(nu) for nu in (1, 2, 3)]
    acc = np.zeros((omega.size, 3, 3), dtype=complex)
    for v in vs:
        fv = f @ v.astype(complex)  # (n, 3)
        acc += fv[:, :, None] * np.conj(fv)[:, None, :]
    return (4.0 * np.pi * omega**2)[:, None, None] * acc


def noise_commutator(model, spectrum: ResponseSpectrum) -> CommutatorReport:
    """Fluctuation-dissipation check for the noise polarization densities,
    on the wave vector and frequency grid of `spectrum`, the model's chi_hat.

    The model's sector selects the pairing: an electric model gives the P
    report against Im chi_hat_e / pi, a magnetic one the M report against
    Im chi_hat_m / pi.
    """
    omega, k = spectrum.omega_grid, spectrum.k
    lhs = noise_coefficient_density(model, k, omega)
    rhs = (1.0 / np.pi) * spectrum.imag_hermitian()
    return CommutatorReport(
        kind="noise_P" if model.which == ELECTRIC else "noise_M",
        k=k,
        grid=omega,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
    )


def noise_current_coefficient(report: CommutatorReport) -> CommutatorReport:
    """Commutator coefficient of the noise current density from the noise
    polarization report of an electric model.

    The current picks up one power of the reservoir frequency relative to the
    noise polarization, so both sides are omega^2 times the polarization
    ones: the coefficient density against omega^2 Im chi_hat_e / pi.
    """
    if report.kind != "noise_P":
        raise ValidationError("the noise current pairs with an electric (noise_P) report")
    w2 = (report.grid**2)[:, None, None]
    lhs, rhs = w2 * report.lhs, w2 * report.rhs
    return CommutatorReport(
        kind="noise_J",
        k=report.k,
        grid=report.grid,
        lhs=lhs,
        rhs=rhs,
        max_rel_err=_relative_deviation(lhs, rhs),
        details=report.details,
    )


@dataclass(frozen=True)
class ContinuityReport:
    """The jump of the one-sided dP/dt at t = 0 at step dt, and over the peak
    rate its Richardson value (8 r_h - r_2h) / 7 from the steps dt and 2 dt
    (`relative_jump`) and |r_h - r_2h| / 7 (`h_estimate`), for the stencil's
    O(dt^3) error."""

    dt: float
    jump: float
    peak_rate: float
    relative_jump: float
    h_estimate: float


def _gaussian_probe(tau: float):
    return lambda s: np.exp(-((s / tau) ** 2))


def _convolution_at(rep, probe, t: float, order: int = 24) -> np.ndarray:
    """integral_0^t chi(t - s) E(s) ds with the quadrature-representation
    kernel, the inner time integral done by fixed-order Gauss-Legendre."""
    if t == 0.0:
        return np.zeros((3, 3), dtype=complex)
    s, w = gauss_legendre(order, 0.0, t)
    sin_block = np.sin(np.outer(t - s, rep.nodes))  # (m, n)
    return rep.contract(((w * probe(s)) @ sin_block)[None, :])[0]


def _oscillator_responses(
    omega: np.ndarray, drive: np.ndarray, t: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """int_0^t sin(w (t - s)) drive(s) ds for every frequency, contracted
    against the (n_w, m) coefficient block: (n_t, m), on a uniform grid from
    t[0], where every oscillator is at rest.

    Each node takes the exact one-step propagator with the drive linear on
    each step, s_{j+1} = phi s_j + alpha d_j + beta d_{j+1} with phi = e^{iwh}.
    Unrolled and contracted, the responses are one causal convolution,

        out[j] = sum_l K_alpha[j - 1 - l] d_l + K_beta[j - 1 - l] d_{l+1},
        K_c[i] = Im sum_n block_n c_n phi_n^i
               = sum_n sin(i h w_n) block_n Re c_n + cos(i h w_n) block_n Im c_n,

    whose impulse responses K are one angle-addition table
    (`response._angle_table`) on the lags i h, and whose sum is one real FFT
    product."""
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
    m = block.shape[1]
    # alpha, the weight of drive(t_l), then beta, the weight of drive(t_{l+1})
    coeff = np.concatenate([block * (j0 - j1 / h)[:, None], block * (j1 / h)[:, None]], axis=1)
    lags = t.size - 1
    kern = _angle_table(h * np.arange(lags), omega, coeff.real, coeff.imag)  # (lags, 2m)
    size = _fft_size(2 * lags - 1)  # no wrap-around into the first `lags` samples
    spectra = np.fft.rfft(kern, size, axis=0)
    product = spectra[:, :m] * np.fft.rfft(drive[:-1], size)[:, None]
    product += spectra[:, m:] * np.fft.rfft(drive[1:], size)[:, None]
    out = np.zeros((t.size, m))
    out[1:] = np.fft.irfft(product, size, axis=0)[:lags]
    return out


def pdot_continuity(model, kernel: SusceptibilityKernel, dt: float | None = None
                    ) -> ContinuityReport:
    """dP/dt at t = 0+ under a smooth probe, against its peak over the pulse.

    The polarization is the convolution of the model's kernel (its
    quadrature representation) with a Gaussian probe pulse of width
    tau = 5 / frequency_scale, a quarter of the checks' horizon
    (`_CHECK_HORIZON`) over which its peak rate is taken. The kernel
    vanishing at t = 0+ forces dP/dt(0+) to zero. The probe is even and
    P(0) = 0, so the negative-time branch is the mirror image and the jump of
    the one-sided limits is exactly twice the right-hand rate, which a
    second-order one-sided stencil estimates at step dt (by default
    `_CONTINUITY_STEP` tau) and again at 2 dt; it must shrink as dt does.
    P holds only even powers of t, so the stencil's error is O(dt^3), and
    the Richardson value takes p = 3.
    """
    tau = _CHECK_HORIZON / (4.0 * model.frequency_scale)
    dt = _CONTINUITY_STEP * tau if dt is None else float(dt)
    wide = np.linspace(0.0, 4.0 * tau, 801)
    probe = _gaussian_probe(tau)
    rep = kernel.rep_to(wide[-1], "pdot_continuity")

    # twice the right-hand rate (-3 P(0) + 4 P(h) - P(2h)) / 2h, P(0) = 0,
    # at h = dt and at 2 dt
    p = {n: _convolution_at(rep, probe, n * dt) for n in (1, 2, 4)}
    fine = (4.0 * p[1] - p[2]) / dt
    coarse = (4.0 * p[2] - p[4]) / (2.0 * dt)

    # peak |dP/dt| over the pulse for normalization, from the oscillator
    # responses of the quadrature nodes to the probe on a uniform grid
    h = wide[1] - wide[0]
    responses = _oscillator_responses(rep.nodes, probe(wide), wide, rep.block)
    rate = np.abs(np.diff(block_tensors(responses, rep.basis), axis=0)) / h
    peak = float(np.max(rate)) if rate.size else 0.0
    # the stencil's error is O(dt^3): the kernel is odd in t and the probe
    # even, so P holds only even powers of t, and the stencil is exact for t^2
    relative, _, estimate = _richardson(fine[None], coarse[None], peak, order=3)
    return ContinuityReport(dt=dt, jump=float(np.max(np.abs(fine))), peak_rate=peak,
                            relative_jump=relative, h_estimate=estimate)
