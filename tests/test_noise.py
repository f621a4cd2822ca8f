import numpy as np
import pytest

from helpers import random_orthogonal_gauge
from mqed.couplings import (
    TabulatedTable,
    apply_gauge,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    tabulated,
    zero_coupling,
)
from mqed import noise
from mqed.noise import noise_commutator, noise_current_coefficient, pdot_continuity
from mqed.response import chi_kernel, chi_spectrum
from mqed.scenario import part_kernel

K = np.array([0.3, -0.2, 0.9])
OMEGA = np.linspace(0.1, 5.0, 80)
T_ZERO = np.linspace(0.0, 10.0, 101)  # the grid of a zero part's kernel


def kernel(model):
    """The kernel a run builds for the medium part at K."""
    return part_kernel(model, K, T_ZERO)


def fdt(model):
    return noise_commutator(model, chi_spectrum(kernel(model), OMEGA))


def test_zero_coupling_gives_zero_sides():
    report = fdt(zero_coupling())
    assert np.allclose(report.lhs, 0.0)
    assert np.allclose(report.rhs, 0.0)


def test_lorentz_fdt_electric():
    report = fdt(lorentz_isotropic(1.3, 1.0, 0.5))
    assert report.max_rel_err < 1e-5


def test_lorentz_fdt_magnetic():
    report = fdt(lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic"))
    assert report.max_rel_err < 1e-5


def test_lhs_hermitian_psd():
    report = fdt(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5))
    herm = np.max(np.abs(report.lhs - np.conj(np.transpose(report.lhs, (0, 2, 1)))))
    assert herm < 1e-12
    assert float(np.min(np.linalg.eigvalsh(report.lhs))) >= -1e-12


def test_gauge_invariance_of_commutator():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    base = fdt(model)
    for seed in range(3):
        gauge = random_orthogonal_gauge(np.random.default_rng(seed))
        gauged = fdt(apply_gauge(model, gauge))
        assert np.max(np.abs(base.lhs - gauged.lhs)) < 1e-12


def test_noise_current_ratio_is_omega_squared():
    model = drude(1.1, 0.5)
    rep_p = fdt(model)
    rep_j = noise_current_coefficient(rep_p)
    mask = np.abs(rep_p.lhs) > 1e-14 * np.max(np.abs(rep_p.lhs))
    ratio = rep_j.lhs[mask] / rep_p.lhs[mask]
    expected = np.broadcast_to((OMEGA**2)[:, None, None], rep_p.lhs.shape)[mask]
    assert np.max(np.abs(ratio - expected) / expected) < 1e-10


def test_noise_current_fdt():
    rep_p = fdt(lorentz_isotropic(1.3, 1.0, 0.5))
    report = noise_current_coefficient(rep_p)
    assert report.max_rel_err < 1e-5


def test_pdot_continuity_zero_coupling():
    report = pdot_continuity(zero_coupling(), kernel(zero_coupling()), dt=1e-3)
    assert report.jump == 0.0


def test_pdot_continuity_lorentz():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    report = pdot_continuity(model, kernel(model), dt=1e-3)
    assert report.relative_jump < 1e-5


def test_pdot_continuity_shrinks_with_dt():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    chi = kernel(model)
    jumps = [pdot_continuity(model, chi, dt=dt).jump for dt in (2e-3, 1e-3, 5e-4)]
    assert jumps[1] <= jumps[0] / 2.0
    assert jumps[2] <= jumps[1] / 2.0


def test_pdot_continuity_extrapolates_its_dt_cubed_error(monkeypatch):
    # lorentz.cfg's electric part at the default step: P holds only even
    # powers of t, so the stencil's error is O(dt^3) and (8 r_h - r_2h) / 7
    # cancels its leading term, where (4 r_h - r_2h) / 3 reads 4/3 of the
    # plain jump and is no sharper than it
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    chi = part_kernel(model, np.array([0.0, 0.0, 1.3]), T_ZERO)
    report = pdot_continuity(model, chi)
    plain = report.jump / report.peak_rate
    assert report.relative_jump <= 1e-2 * plain
    assert report.h_estimate == pytest.approx(plain, rel=1e-2)  # |r_h - 8 r_h| / 7
    richardson = noise._richardson
    monkeypatch.setattr(noise, "_richardson",
                        lambda fine, coarse, scale, order: richardson(fine, coarse, scale))
    second_order = pdot_continuity(model, chi)
    assert second_order.relative_jump == pytest.approx(4.0 / 3.0 * plain, rel=1e-2)


def _dense_peak_rate(rep, tau, eps0=1.0):
    """The peak |dP/dt| over the probe pulse from whole (nodes x 801)
    tables: P(s) = eps0 sum_n [sin(w_n s) C_n(s) - cos(w_n s) S_n(s)] c_n,
    with C_n, S_n the running trapezoid integrals of cos(w_n s') E(s') and
    sin(w_n s') E(s')."""
    wide = np.linspace(0.0, 4.0 * tau, 801)
    h = wide[1] - wide[0]
    ew = np.exp(-((wide / tau) ** 2))
    phase = np.outer(rep.nodes, wide)
    cosm = np.cos(phase) * ew
    sinm = np.sin(phase) * ew
    cum_c = np.zeros_like(cosm)
    cum_s = np.zeros_like(sinm)
    cum_c[:, 1:] = np.cumsum(0.5 * h * (cosm[:, 1:] + cosm[:, :-1]), axis=1)
    cum_s[:, 1:] = np.cumsum(0.5 * h * (sinm[:, 1:] + sinm[:, :-1]), axis=1)
    inner = np.sin(phase) * cum_c - np.cos(phase) * cum_s
    p_wide = eps0 * rep.contract(inner.T)
    return float(np.max(np.abs(np.diff(p_wide, axis=0)))) / h


def test_pdot_peak_rate_matches_dense_trapezoid(monkeypatch, pin_order):
    import mqed.response

    # an anisotropic part s1 diag(a) + s2 I with a = (1, 0.7, 0.7), whose
    # f f^dag is diagonal with two equal entries (a 2-column block, so the
    # multi-column contraction is covered), 300 nodes; each oscillator table
    # chunk holds one of the 28 groups of 29 lags (the last group 17). The
    # exact propagator with a piecewise-linear probe and the trapezoid of the
    # reference are different O(h^2) discretizations
    w = np.linspace(0.0, 4.0, 401)
    s1, s2 = w * np.exp(-0.5 * w**2), 0.5 / (1.0 + w**2)
    values = s1[:, None, None] * np.diag([1.0, 0.7, 0.7]) + s2[:, None, None] * np.eye(3)
    model = tabulated(TabulatedTable(omegas=w, kmags=np.array([0.0, 2.0]),
                                     values=np.repeat(values[:, None], 2, axis=1) + 0j))
    pin_order(300)
    chi = chi_kernel(model, K, np.linspace(0.0, 60.0, 1200))
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 7 * 300 + 5)
    report = pdot_continuity(model, chi)
    rep = chi.rep
    assert rep.block.shape == (300, 2)
    ref = _dense_peak_rate(rep, 5.0 / model.frequency_scale)
    assert ref > 0.0
    assert abs(report.peak_rate - ref) <= 1e-3 * ref
