import numpy as np

from mqed.couplings import (
    apply_gauge,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    random_orthogonal_gauge,
    zero_coupling,
)
from mqed import noise
from mqed.noise import noise_commutator, noise_current_coefficient, pdot_continuity
from mqed.quadrature import QuadratureSpec
from mqed.response import KernelStore

K = np.array([0.3, -0.2, 0.9])
OMEGA = np.linspace(0.1, 5.0, 80)


def test_zero_coupling_gives_zero_sides():
    report = noise_commutator(zero_coupling(), K, OMEGA)
    assert np.allclose(report.lhs, 0.0)
    assert np.allclose(report.rhs, 0.0)


def test_lorentz_fdt_electric():
    report = noise_commutator(lorentz_isotropic(1.3, 1.0, 0.5), K, OMEGA)
    assert report.max_rel_err < 1e-5


def test_lorentz_fdt_magnetic():
    report = noise_commutator(
        lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic"), K, OMEGA
    )
    assert report.max_rel_err < 1e-5


def test_lhs_hermitian_psd():
    report = noise_commutator(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5), K, OMEGA)
    herm = np.max(np.abs(report.lhs - np.conj(np.transpose(report.lhs, (0, 2, 1)))))
    assert herm < 1e-12
    assert float(np.min(np.linalg.eigvalsh(report.lhs))) >= -1e-12


def test_gauge_invariance_of_commutator():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    base = noise_commutator(model, K, OMEGA)
    for seed in range(3):
        gauge = random_orthogonal_gauge(np.random.default_rng(seed))
        gauged = noise_commutator(apply_gauge(model, gauge), K, OMEGA)
        assert np.max(np.abs(base.lhs - gauged.lhs)) < 1e-12


def test_noise_current_ratio_is_omega_squared():
    model = drude(1.1, 0.5)
    rep_p = noise_commutator(model, K, OMEGA)
    rep_j = noise_current_coefficient(rep_p)
    mask = np.abs(rep_p.lhs) > 1e-14 * np.max(np.abs(rep_p.lhs))
    ratio = rep_j.lhs[mask] / rep_p.lhs[mask]
    expected = np.broadcast_to((OMEGA**2)[:, None, None], rep_p.lhs.shape)[mask]
    assert np.max(np.abs(ratio - expected) / expected) < 1e-10


def test_noise_current_fdt():
    rep_p = noise_commutator(lorentz_isotropic(1.3, 1.0, 0.5), K, OMEGA)
    report = noise_current_coefficient(rep_p)
    assert report.max_rel_err < 1e-5


def test_pdot_continuity_zero_coupling():
    report = pdot_continuity(zero_coupling(), K, dt=1e-3)
    assert report.jump == 0.0


def test_pdot_continuity_lorentz():
    report = pdot_continuity(lorentz_isotropic(1.3, 1.0, 0.5), K, dt=1e-3)
    assert report.relative_jump < 1e-5


def test_pdot_continuity_shrinks_with_dt():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    jumps = [pdot_continuity(model, K, dt=dt).jump for dt in (2e-3, 1e-3, 5e-4)]
    assert jumps[1] <= jumps[0] / 2.0
    assert jumps[2] <= jumps[1] / 2.0


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


def test_pdot_peak_rate_matches_dense_trapezoid(monkeypatch):
    # anisotropic medium (9-column block), 300 nodes; the oscillator tables
    # hold 7 of the 800 steps (114 full tables and a last one of 2). The
    # exact propagator with a piecewise-linear probe and the trapezoid of
    # the reference are different O(h^2) discretizations
    model = gaussian_anisotropic([1.0, 0.7, 0.4], 1.0, 0.8)
    quad = QuadratureSpec(fixed_order=300)
    kernels = KernelStore()
    monkeypatch.setattr(noise, "_TABLE_ELEMENTS", 7 * 300 + 5)
    report = pdot_continuity(model, K, quad=quad, kernels=kernels)
    rep = kernels.kernel(model, K, noise._default_t_grid(model), quad=quad).rep
    assert rep.block.shape == (300, 9)
    ref = _dense_peak_rate(rep, 5.0 / model.frequency_scale)
    assert ref > 0.0
    assert abs(report.peak_rate - ref) <= 1e-3 * ref
