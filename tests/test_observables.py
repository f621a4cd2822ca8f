import numpy as np
import pytest

from mqed import noise, observables
from mqed.couplings import (
    apply_gauge,
    gaussian_anisotropic,
    lorentz_isotropic,
    random_orthogonal_gauge,
    zero_coupling,
)
from mqed.observables import (
    constitutive_roundtrip,
    equal_time_commutators,
    field_representation,
    maxwell_residual,
    vacuum_eh_coefficient,
    vacuum_spectrum,
)
from mqed.quadrature import QuadratureSpec, gauss_legendre
from mqed.response import chi_kernel, laplace_response
from mqed.tensors import NATURAL, transverse_projector

K = np.array([0.4, -0.3, 1.1])
WK = float(np.linalg.norm(K))


def make_rep(model_e, model_m, t_grid, order=128, cutoff=50.0, k=K):
    nodes, weights = gauss_legendre(order, 0.0, cutoff)
    return field_representation(laplace_response(model_e, model_m), k, t_grid, nodes, weights)


@pytest.fixture(scope="module")
def vacuum_rep():
    t = np.linspace(0.0, 20.0, 81)
    return make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=32)


@pytest.fixture(scope="module")
def lorentz_models():
    return (
        lorentz_isotropic(1.3, 1.0, 0.5),
        lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic"),
    )


@pytest.fixture(scope="module")
def lorentz_rep(lorentz_models):
    t = np.linspace(0.0, 20.0, 81)
    return make_rep(*lorentz_models, t, order=256)


def test_vacuum_commutator_closed_form(vacuum_rep):
    report = equal_time_commutators(vacuum_rep, [0.0, 1.0, 5.0, 20.0])
    assert report.max_rel_err < 1e-10
    target = vacuum_eh_coefficient(vacuum_rep)
    assert np.max(np.abs(report.lhs[0] - target)) < 1e-12
    herm = np.max(np.abs(report.lhs[0] - report.lhs[0].conj().T))
    assert herm < 1e-12


def test_medium_commutator_t0_exact(lorentz_rep, vacuum_rep):
    # at t = 0 the expansion reduces to the initial-data operators
    report = equal_time_commutators(lorentz_rep, [0.0])
    assert report.max_rel_err < 1e-10


def test_medium_commutator_medium_independence(lorentz_models):
    t = np.linspace(0.0, 20.0, 81)
    devs = {}
    for order in (64, 256):
        rep = make_rep(*lorentz_models, t, order=order)
        vac = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=order)
        report = equal_time_commutators(rep, [0.0, 1.0, 5.0, 20.0], baseline=vac)
        devs[order] = report.max_rel_err
    assert devs[256] < 1e-4
    assert devs[256] <= devs[64] * 1.05


def test_gauge_leaves_commutator_and_spectrum_invariant(lorentz_models):
    me, mm = lorentz_models
    t = np.linspace(0.0, 8.0, 17)
    rep = make_rep(me, mm, t, order=48)
    base = equal_time_commutators(rep, [0.0, 4.0, 8.0])
    base_spec = vacuum_spectrum(rep, (0.0, 0.0, 0.0), 4.0)
    rng = np.random.default_rng(31)
    for _ in range(3):
        gauge = random_orthogonal_gauge(rng)
        rep_g = make_rep(apply_gauge(me, gauge), apply_gauge(mm, gauge), t, order=48)
        got = equal_time_commutators(rep_g, [0.0, 4.0, 8.0])
        assert np.max(np.abs(got.lhs - base.lhs)) < 1e-10
        spec_g = vacuum_spectrum(rep_g, (0.0, 0.0, 0.0), 4.0)
        assert np.max(np.abs(spec_g - base_spec)) < 1e-10
        # the individual reservoir channels do change
        assert not np.allclose(rep_g.coeffs.eta, rep.coeffs.eta, atol=1e-6)


def test_maxwell_residual_vacuum_photon_channel():
    # pure second-order differencing: (w h)^2 / 6 sets the floor
    t = np.linspace(0.0, 2.0, 20001)  # h = 1e-4
    rep = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=16)
    report = maxwell_residual(rep)
    assert report.channels["photon_1"] < 1e-8
    t2 = np.linspace(0.0, 2.0, 2001)  # h = 1e-3
    rep2 = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t2, order=16)
    assert maxwell_residual(rep2).channels["photon_1"] < 1e-6


def test_maxwell_residual_medium_all_channels(lorentz_models):
    t = np.linspace(0.0, 6.0, 8001)
    nodes, weights = gauss_legendre(16, 0.0, 7.0)
    rep = field_representation(laplace_response(*lorentz_models), K, t, nodes, weights)
    report = maxwell_residual(rep, reservoir_samples=3)
    assert report.max_residual < 1e-5
    assert len(report.channels) == 2 + 2 * 3 * 3


def test_maxwell_residual_zero_channel_is_zero():
    # zero-coefficient reservoir channels satisfy the system identically
    t = np.linspace(0.0, 2.0, 2001)
    rep = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=16)
    report = maxwell_residual(rep)
    for name, value in report.channels.items():
        if name.startswith(("d_", "b_")):
            assert value == 0.0


def test_constitutive_roundtrip_lorentz():
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    t = np.linspace(0.0, 30.0, 3001)
    check = constitutive_roundtrip(model, K, t, quad=QuadratureSpec(rtol=1e-9))
    assert check.residual < 1e-5
    assert np.max(np.abs(check.p_convolution)) > 0.0


def test_constitutive_roundtrip_zero_cases():
    t = np.linspace(0.0, 10.0, 501)
    check = constitutive_roundtrip(zero_coupling(), K, t)
    assert np.allclose(check.p_convolution, 0.0)
    assert np.allclose(check.p_ladder, 0.0)


def test_vacuum_spectrum_per_k_density(vacuum_rep):
    got = vacuum_spectrum(vacuum_rep, (0.0, 0.0, 0.0), 0.0)
    target = (NATURAL.hbar * NATURAL.c * WK / (2.0 * (2.0 * np.pi) ** 3 * NATURAL.eps0)) \
        * transverse_projector(K)
    assert np.max(np.abs(got - target)) < 1e-14


def test_vacuum_spectrum_psd_absorbing_medium(lorentz_rep):
    for t in (0.0, 5.0, 20.0):
        s = vacuum_spectrum(lorentz_rep, (0.0, 0.0, 0.0), t)
        assert float(np.min(np.linalg.eigvalsh(s))) >= -1e-12
        assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_vacuum_spectrum_offset_hermitian(lorentz_rep):
    s = vacuum_spectrum(lorentz_rep, (0.4, 0.0, 1.0), 5.0)
    assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_vacuum_spectrum_no_magnetic_reservoir_for_pure_dielectric():
    me = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    t = np.linspace(0.0, 4.0, 9)
    rep = make_rep(me, zero_coupling("magnetic"), t, order=32)
    assert np.max(np.abs(rep.res_E_b)) == 0.0
    assert np.max(np.abs(rep.coeffs.zeta)) == 0.0


def test_minus_side_solved_once_at_commutator_times(monkeypatch, lorentz_models):
    calls = []
    build = observables.mode_coefficients

    def counted(*args, **kwargs):
        calls.append((args[1], args[2]))
        return build(*args, **kwargs)

    monkeypatch.setattr(observables, "mode_coefficients", counted)
    t = np.linspace(0.0, 2.0, 201)
    rep = make_rep(*lorentz_models, t, order=8)
    assert rep.coeffs.gamma.shape == (201, 3, 3)
    assert len(calls) == 1
    maxwell_residual(rep, reservoir_samples=2)
    assert len(calls) == 1
    equal_time_commutators(rep, [0.0, 1.0, 2.0])
    assert len(calls) == 2
    k_minus, t_minus = calls[1]
    assert np.array_equal(k_minus, -calls[0][0])
    assert np.array_equal(t_minus, t[[0, 100, 200]])


def test_commutators_equal_full_grid_minus_side(lorentz_rep):
    # the -k channels on the whole t grid, read at the commutator times, as
    # the commutators were computed before -k was solved at those times only
    rep = lorentz_rep
    t_set = rep.t_grid[[0, 4, 20, 80]]
    minus = field_representation(rep.response, -rep.k, rep.t_grid, rep.omega_q_grid,
                                 rep.omega_q_weights, method=rep.method)
    wq = rep.omega_q_weights * rep.radial_measure
    want = np.stack([observables._eh_coefficient(rep, minus, i, i, wq) / 1j
                     for i in (0, 4, 20, 80)])
    got = equal_time_commutators(rep, t_set).lhs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_memory_kernel_is_the_mode_solvers_laplace_kernel():
    model = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.8)
    quad = QuadratureSpec()
    response = laplace_response(model, zero_coupling("magnetic"), quad=quad)
    t = np.linspace(0.0, 4.0, 801)
    rep = field_representation(response, K, t, [1.0], [0.5], method="bromwich_line")
    got = rep.chi_e
    # the representation the mode solve converged for chi_hat at +k
    assert np.array_equal(got, response.laplace_rep(model, K).kernel_values(t))
    # the time-domain kernel converged on the long horizon of the chi stage
    # (8192 nodes), which the Maxwell residual read before
    t_long = np.linspace(0.0, model.suggested_t_max(1e-11), 2200)
    want = chi_kernel(model, K, t_long, quad=quad).rep.kernel_values(t)
    assert np.max(np.abs(got - want)) <= quad.rtol * np.max(np.abs(want))


def test_oscillator_tables_match_stepwise_recurrence(monkeypatch):
    omega = np.array([0.0, 1e-4, 0.7, 3.1, 40.0])
    t = np.linspace(0.0, 12.0, 602)
    drive = np.exp(-((t - 4.0) / 1.5) ** 2)
    block = np.random.default_rng(5).normal(size=(omega.size, 2))
    # step-by-step exact propagator with the drive linear on each step
    h = t[1] - t[0]
    phi = np.exp(1j * omega * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(omega * h < 1e-3, h * (1.0 + 0.5j * omega * h - (omega * h) ** 2 / 6.0),
                      (phi - 1.0) / (1j * omega))
        j1 = np.where(omega * h < 1e-3,
                      h**2 * (0.5 + 1j * omega * h / 6.0 - (omega * h) ** 2 / 24.0),
                      h * (phi - 1.0) / (1j * omega)
                      - (phi * (1.0 - 1j * omega * h) - 1.0) / omega**2)
    state = np.zeros(omega.size, dtype=complex)
    want = np.zeros((omega.size, t.size))
    for m in range(t.size - 1):
        state = phi * state + (j0 - j1 / h) * drive[m] + (j1 / h) * drive[m + 1]
        want[:, m + 1] = state.imag
    want = want.T @ block
    # 7 steps per table: 601 steps end on a ragged table
    monkeypatch.setattr(noise, "_TABLE_ELEMENTS", 7 * omega.size)
    got = noise._oscillator_responses(omega, drive, t, block)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fft_convolver_matches_direct_trapezoid_sum():
    rng = np.random.default_rng(2)
    n, h = 37, 0.1
    chi = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    u = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    want = np.zeros((n, 3), dtype=complex)
    for m in range(1, n):
        terms = np.einsum("sij,sj->si", chi[m::-1], u[: m + 1])
        want[m] = h * (terms.sum(axis=0) - 0.5 * (terms[0] + terms[-1]))
    got = observables._convolver(chi, h)(u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
