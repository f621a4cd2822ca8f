from pathlib import Path

import numpy as np
import pytest

import mqed.response
from mqed import noise, observables
from helpers import gaussian_response, random_orthogonal_gauge
from mqed.couplings import (
    apply_gauge,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    zero_coupling,
)
from mqed.errors import ValidationError
from mqed.observables import (
    constitutive_roundtrip,
    equal_time_commutators,
    field_representation,
    maxwell_residual,
    vacuum_eh_coefficient,
    vacuum_spectrum,
)
from mqed.quadrature import QuadratureSpec, gauss_legendre
from mqed.response import (_damped_oscillator, check_grid, chi_kernel, finite_difference_time,
                           laplace_response)
from mqed.scenario import parse_scenario, run_scenario
from mqed.tensors import transverse_projector

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


@pytest.mark.parametrize("name", ["conductor.cfg", "gaussian.cfg", "lorentz.cfg"])
def test_closed_form_vacuum_commutator_matches_the_numeric_vacuum_route(name):
    # the reference the commutator check compares with, against the route it
    # replaced: the vacuum's mode solve and [E, H^dag] assembly at the run's
    # k, commutator times and reservoir rule
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    grids = config.grids
    t_modes = np.linspace(0.0, grids["t_max"], 81)
    t_set = [t_modes[np.argmin(np.abs(t_modes - ti))] for ti in grids["commutator_t"]]
    nodes, weights = gauss_legendre(int(grids["reservoir_order"]), 0.0,
                                    grids["reservoir_cutoff"])
    for k in config.k_list():
        vacuum = field_representation(laplace_response(), k, t_set, nodes, weights)
        numeric = observables._eh_coefficients(vacuum, t_set)
        closed = vacuum_eh_coefficient(vacuum)
        assert np.max(np.abs(numeric - closed)) <= 1e-14 * np.max(np.abs(closed))


def test_medium_commutator_t0_exact(lorentz_rep, vacuum_rep):
    # at t = 0 the expansion reduces to the initial-data operators
    report = equal_time_commutators(lorentz_rep, [0.0])
    assert report.max_rel_err < 1e-10


def test_medium_commutator_medium_independence(lorentz_models):
    t = np.linspace(0.0, 20.0, 81)
    devs = {}
    for order in (64, 256):
        rep = make_rep(*lorentz_models, t, order=order)
        devs[order] = equal_time_commutators(rep, [0.0, 1.0, 5.0, 20.0]).max_rel_err
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
    picks = observables.reservoir_picks(16, 3)
    rep = field_representation(laplace_response(*lorentz_models), K, t, nodes[picks],
                               weights[picks])
    report = maxwell_residual(rep)
    assert report.max_residual < 1e-5
    assert len(report.channels) == 2 + 2 * 3 * 3


def test_maxwell_residual_extrapolates_its_grid_error(lorentz_models):
    # lorentz.cfg's medium on a deliberately coarse grid (1,001 points over
    # [0, 6]) and the two reservoir nodes a run samples: the plain residual
    # is its O(h^2) estimate, and the extrapolated value lies far below both
    nodes, weights = gauss_legendre(16, 0.0, 7.0)
    picks = observables.reservoir_picks(16, 2)
    rep = field_representation(laplace_response(*lorentz_models), np.array([0.0, 0.0, 1.3]),
                               np.linspace(0.0, 6.0, 1001), nodes[picks], weights[picks])
    report = maxwell_residual(rep)
    assert report.plain == pytest.approx(report.h_estimate, rel=0.05)
    assert report.max_residual <= 0.1 * report.plain
    assert report.max_residual == max(report.channels.values())


def test_maxwell_residual_reports_a_nan_channel(lorentz_models):
    # one NaN in a mode family: the channels it feeds are NaN, the photon
    # channels, the other sector and the other node stay finite
    from dataclasses import replace

    t = np.linspace(0.0, 2.0, 2001)
    rep = make_rep(*lorentz_models, t, order=2)
    eta = rep.coeffs.eta.copy()
    eta[0, 700, 0, 0] = np.nan
    report = maxwell_residual(replace(rep, coeffs=replace(rep.coeffs, eta=eta)))
    for nu in (1, 2, 3):
        assert np.isnan(report.channels[f"d_nu{nu}_q0"])
        assert np.isfinite(report.channels[f"b_nu{nu}_q0"])
        assert np.isfinite(report.channels[f"d_nu{nu}_q1"])
    assert np.isfinite(report.channels["photon_1"])
    assert np.isnan(report.max_residual)
    assert not report.max_residual <= 1e-5  # the manifest's pass test


def test_maxwell_residual_zero_channel_is_zero():
    # zero-coefficient reservoir channels satisfy the system identically
    t = np.linspace(0.0, 2.0, 2001)
    rep = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=16)
    report = maxwell_residual(rep)
    for name, value in report.channels.items():
        if name.startswith(("d_", "b_")):
            assert value == 0.0



class _EveryArrayNonzero:
    """numpy for `observables`, save that no array reads as all zero: every
    Maxwell channel's rows are formed and every kernel is transformed."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def any(*args, **kwargs):
        return True


def test_gaussian_maxwell_residual_transforms_only_its_live_channels(tmp_path, monkeypatch):
    # gaussian.cfg has no magnetic part: the E, H and noise of its six b_
    # channels are exactly 0, so only the 2 photon and 6 d_ channels are
    # transformed (one inverse FFT each at step h and at 2h), and every
    # channel reads what its formed rows give
    from mqed import scenario

    reps = []
    residual = scenario.maxwell_residual
    monkeypatch.setattr(scenario, "maxwell_residual", lambda rep: reps.append(rep) or residual(rep))
    config = parse_scenario((CONFIGS / "gaussian.cfg").read_text(encoding="utf-8"))
    run_scenario(config, out_dir=str(tmp_path), stages=("commutators",))
    inverse = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **kw: inverse.append(1) or ifft(*a, **kw))
    report = maxwell_residual(reps[0])
    assert len(inverse) == 2 * 8
    assert len(report.channels) == 14
    assert [name for name, value in report.channels.items() if value == 0.0] == \
        [name for name in report.channels if name.startswith("b_")]
    monkeypatch.setattr(observables, "np", _EveryArrayNonzero())
    full = maxwell_residual(reps[0])
    assert report.channels == full.channels
    assert (report.max_residual, report.plain, report.h_estimate) == \
        (full.max_residual, full.plain, full.h_estimate)

def test_constitutive_roundtrip_lorentz():
    # a rational part's representation is converged on the checks' horizon
    # (20 here), so the round trip runs on that grid
    model = lorentz_isotropic(1.3, 1.0, 0.5)
    t = check_grid(model)
    assert t[-1] == 20.0
    kernel = chi_kernel(model, K, np.linspace(0.0, 30.0, 3001), quad=QuadratureSpec(rtol=1e-9))
    check = constitutive_roundtrip(model, kernel, t)
    assert check.residual < 1e-9
    assert np.max(np.abs(check.p_convolution)) > 0.0
    # each route's O(h^2) error is the whole plain residual, which the
    # extrapolation removes
    assert 1e-6 < check.plain < 1e-5
    assert abs(check.h_estimate - check.plain) <= 1e-3 * check.plain


def test_constitutive_roundtrip_needs_a_subsample_ending_at_the_last_time(lorentz_kernel):
    with pytest.raises(ValidationError, match="odd number of points"):
        constitutive_roundtrip(*lorentz_kernel, np.linspace(0.0, 20.0, 3000))


def test_constitutive_roundtrip_fails_a_ladder_defect_of_one_part_per_million(monkeypatch):
    # route B scaled by 1 + 1e-6: the plain residual (3.2e-6 on its own)
    # stays below the 1e-5 tolerance the check had, and the extrapolated
    # one reads the defect and fails the tightened tolerance
    from mqed import observables
    from mqed.scenario import _CHECKS

    model = lorentz_isotropic(1.3, 1.0, 0.5)
    t = check_grid(model)
    kernel = chi_kernel(model, K, np.linspace(0.0, 30.0, 3001), quad=QuadratureSpec(rtol=1e-9))
    tol = next(c.tol for c in _CHECKS if c.name.startswith("constitutive_roundtrip_"))
    assert constitutive_roundtrip(model, kernel, t).residual <= tol
    responses = observables._oscillator_responses
    monkeypatch.setattr(observables, "_oscillator_responses",
                        lambda *args: (1.0 + 1e-6) * responses(*args))
    check = constitutive_roundtrip(model, kernel, t)
    assert check.plain < 1e-5
    assert check.residual > 10.0 * tol


@pytest.mark.parametrize("model", [
    lorentz_isotropic(1.3, 1.0, 0.5),  # closed form: converged on [0, 20]
    gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.6),  # converged on its own t_grid
], ids=["rational", "gaussian"])
def test_checks_reject_times_past_the_representations_horizon(model):
    # past its horizon the representation was never converged (the Lorentz
    # part's is off by 2.7e-4 of its peak at t = 90), so neither check
    # that integrates it in time reads it there
    kernel = chi_kernel(model, K, np.linspace(0.0, 10.0, 101))
    horizon = 20.0 if kernel.closed_form is not None else 10.0
    assert kernel.rep_horizon == horizon
    with pytest.raises(ValidationError, match="past the horizon"):
        constitutive_roundtrip(model, kernel, np.linspace(0.0, 30.0, 3001))
    constitutive_roundtrip(model, kernel, np.linspace(0.0, horizon, 1001))
    if kernel.closed_form is None:  # the continuity probe reaches 20
        with pytest.raises(ValidationError, match="pdot_continuity"):
            noise.pdot_continuity(model, kernel)
    else:
        noise.pdot_continuity(model, kernel)


def test_constitutive_roundtrip_zero_cases():
    t = np.linspace(0.0, 10.0, 501)
    check = constitutive_roundtrip(zero_coupling(), chi_kernel(zero_coupling(), K, t), t)
    assert np.allclose(check.p_convolution, 0.0)
    assert np.allclose(check.p_ladder, 0.0)


def test_vacuum_spectrum_per_k_density(vacuum_rep):
    got = vacuum_spectrum(vacuum_rep, (0.0, 0.0, 0.0), 0.0)
    target = WK / (2.0 * (2.0 * np.pi) ** 3) * transverse_projector(K)
    assert np.max(np.abs(got - target)) < 1e-14


def test_vacuum_spectrum_psd_absorbing_medium(lorentz_rep):
    for t in (0.0, 5.0, 20.0):
        s = vacuum_spectrum(lorentz_rep, (0.0, 0.0, 0.0), t)
        assert float(np.min(np.linalg.eigvalsh(s))) >= -1e-12
        assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_vacuum_spectrum_offset_hermitian(lorentz_rep):
    s = vacuum_spectrum(lorentz_rep, (0.4, 0.0, 1.0), 5.0)
    assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_vacuum_spectrum_returns_a_non_psd_matrix(lorentz_models):
    # one strongly negative reservoir weight breaks positivity: the spectrum
    # is returned for the run's vacuum_spectrum_psd check to judge, not raised
    nodes, weights = gauss_legendre(16, 0.0, 7.0)
    weights[3] *= -40.0
    rep = field_representation(laplace_response(*lorentz_models), K, [0.0, 1.0], nodes, weights)
    s = vacuum_spectrum(rep, (0.0, 0.0, 0.0), 0.0)
    assert float(np.min(np.linalg.eigvalsh(s))) < -0.01
    assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_vacuum_spectrum_no_magnetic_reservoir_for_pure_dielectric():
    me = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    t = np.linspace(0.0, 4.0, 9)
    rep = make_rep(me, zero_coupling("magnetic"), t, order=32)
    for it in range(t.size):
        assert np.max(np.abs(rep.channel("E_b", it=it))) == 0.0
    assert np.max(np.abs(rep.coeffs.zeta)) == 0.0


def test_channels_match_the_stacked_channel_formulas(lorentz_models):
    # every channel in both shapes equals, to the bit, the (3, n_q, n_t, 3)
    # stack a representation once held: the families and couplings
    # contracted with the triad, the couplings times exp(-i w_q t); on a
    # medium with bound and free electric parts and a magnetic part
    from mqed.couplings import drude
    from mqed.tensors import triad

    t = np.linspace(0.0, 3.0, 7)
    nodes, weights = gauss_legendre(4, 0.0, 50.0)
    medium = laplace_response(lorentz_models[0], drude(1.1, 0.5), lorentz_models[1])
    rep = field_representation(medium, K, t, nodes, weights)
    mc, tr = rep.coeffs, triad(K)
    res_w = (2.0 * np.pi) ** -1.5
    vs = [tr.e(nu) for nu in (1, 2, 3)]
    ss = [tr.s(nu) for nu in (1, 2, 3)]
    phase = np.exp(-1j * np.outer(rep.omega_q_grid, t))
    stacked = {
        "E_d": np.stack([res_w * mc.eta @ v for v in vs]),
        "E_b": np.stack([1j * res_w * mc.zeta @ s for s in ss]),
        "H_d": np.stack([res_w * mc.eta_tilde @ v for v in vs]),
        "H_b": np.stack([1j * res_w * mc.zeta_tilde @ s for s in ss]),
        "P_d": np.stack([
            res_w * np.einsum("qij,j->qi", mc.f_q, v)[:, None, :] * phase[:, :, None]
            for v in vs
        ]),
        "M_b": np.stack([
            1j * res_w * np.einsum("qij,j->qi", mc.g_q, s)[:, None, :] * phase[:, :, None]
            for s in ss
        ]),
    }
    for name, want in stacked.items():
        assert np.any(want), name
        for nu in range(3):
            for q in range(rep.omega_q_grid.size):
                assert np.array_equal(rep.channel(name, (nu, q)), want[nu, q]), name
        for it in range(t.size):
            assert np.array_equal(rep.channel(name, it=it), want[:, :, it]), name


def test_commutators_solve_no_minus_side(monkeypatch, lorentz_models):
    # the -k channels are the +k ones mapped by parity: the commutators call
    # the mode solver no more times
    calls = []
    build = observables.mode_coefficients

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(observables, "mode_coefficients", counted)
    t = np.linspace(0.0, 2.0, 201)
    rep = make_rep(*lorentz_models, t, order=8)
    assert rep.coeffs.gamma.shape == (201, 3, 3)
    assert len(calls) == 1
    maxwell_residual(rep)
    report = equal_time_commutators(rep, [0.0, 1.0, 2.0])
    assert len(calls) == 1
    assert report.details["minus_k"] == "parity"


def _run_partners(monkeypatch, tmp_path, name: str) -> list:
    """(+k representation, time indices, parity partner) of each commutator
    a run of `name`'s modes and commutators stages computes: on the nested
    reservoir rule and on the modes grid, at each k."""
    partners = []
    partner = observables._parity_partner

    def recorded(rep, idx):
        partners.append((rep, idx, partner(rep, idx)))
        return partners[-1][2]

    monkeypatch.setattr(observables, "_parity_partner", recorded)
    config = parse_scenario((CONFIGS / name).read_text(encoding="utf-8"))
    run_scenario(config, out_dir=str(tmp_path), stages=("commutators",))
    assert {tuple(rep.k) for rep, _, _ in partners} == {tuple(k) for k in config.k_list()}
    assert {rep.omega_q_grid.size for rep, _, _ in partners} >= {config.grids["reservoir_order"]}
    return partners


def _assert_is_the_minus_k_solve(rep, idx, partner):
    # the numeric -k solve at the same times, the reference of the map
    want = field_representation(rep.response, -rep.k, rep.t_grid[idx], rep.omega_q_grid,
                                rep.omega_q_weights)
    assert np.array_equal(partner.k, want.k) and np.array_equal(partner.t_grid, want.t_grid)
    for name in (*observables._PARITY, "f_q", "g_q", "photon_E", "photon_H"):
        got = getattr(partner if name.startswith("photon") else partner.coeffs, name)
        ref = getattr(want if name.startswith("photon") else want.coeffs, name)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("name", ["lorentz.cfg", "gaussian.cfg", "conductor.cfg"])
def test_parity_partner_is_the_minus_k_solve(monkeypatch, tmp_path, name):
    # at a run's commutator times, on the rational route and the line
    for rep, idx, partner in _run_partners(monkeypatch, tmp_path, name):
        _assert_is_the_minus_k_solve(rep, idx, partner)


def test_parity_partner_is_the_minus_k_solve_of_a_magnetic_continuum():
    # gaussian.cfg's zeta and zeta_tilde are zero; its part in the magnetic
    # sector makes them, and so the signs of the ee and he blocks, nonzero
    response = gaussian_response("magnetic")
    nodes, weights = gauss_legendre(96, 0.0, 50.0)
    rep = field_representation(response, K, np.linspace(0.0, 8.0, 81), nodes, weights)
    assert np.any(rep.coeffs.zeta) and np.any(rep.coeffs.zeta_tilde)
    idx = [0, 10, 50]
    _assert_is_the_minus_k_solve(rep, idx, observables._parity_partner(rep, idx))


@pytest.mark.parametrize("family", list(observables._PARITY))
def test_equal_time_commutator_fails_a_wrong_parity_sign(monkeypatch, tmp_path, family):
    # lorentz.cfg has every family nonzero: one family's sign flipped breaks
    # the commutator's free-space value
    parity = observables._PARITY
    monkeypatch.setattr(observables, "_PARITY", {**parity, family: -parity[family]})
    config = parse_scenario((CONFIGS / "lorentz.cfg").read_text(encoding="utf-8"))
    manifest = run_scenario(config, out_dir=str(tmp_path), stages=("commutators",))
    check = next(c for c in manifest.checks if c["name"] == "equal_time_commutator_k0")
    assert not check["passed"], check["max_error"]


def test_commutators_equal_full_grid_minus_side(lorentz_rep):
    # the -k channels on the whole t grid, read at the commutator times, as
    # the commutators were computed before -k was solved at those times only
    rep = lorentz_rep
    t_set = rep.t_grid[[0, 4, 20, 80]]
    minus = field_representation(rep.response, -rep.k, rep.t_grid, rep.omega_q_grid,
                                 rep.omega_q_weights)
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
    rep = field_representation(response, K, t, [1.0], [0.5])
    got = rep.chi_e
    # the representation the mode solve converged for chi_hat at +k
    assert np.array_equal(got, response.laplace_rep(model, K).kernel_values(t))
    # the time-domain kernel converged on the long horizon of the chi stage
    # (8192 nodes), which the Maxwell residual read before
    t_long = np.linspace(0.0, model.suggested_t_max(1e-11), 2200)
    want = chi_kernel(model, K, t_long, quad=quad).rep.kernel_values(t)
    assert np.max(np.abs(got - want)) <= quad.rtol * np.max(np.abs(want))


def test_rational_memory_kernel_is_the_chi_stages_closed_form():
    # the Maxwell residual reads a rational part's chi(t) from the evaluator
    # the chi stage reads, bit for bit: under-, critically (a double pole,
    # which partial fractions refuse) and overdamped, and Drude
    t = np.linspace(0.0, 4.0, 801)
    for model in (lorentz_isotropic(1.3, 1.0, 0.5), lorentz_isotropic(1.3, 1.0, 2.0),
                  lorentz_isotropic(0.8, 1.4, 3.0), drude(1.1, 0.5)):
        rep = field_representation(laplace_response(model), K, t, [1.0], [0.5])
        want = _damped_oscillator(model.closed_form, t)[:, None, None] * np.eye(3)
        assert np.array_equal(rep.chi_e, want)
        assert np.array_equal(rep.chi_e, chi_kernel(model, K, t).values)


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
    # one of the 25 groups of 25 lags per table chunk: the last group holds 1
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 7 * omega.size)
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


def _stepwise_responses(omega, drive, t, block):
    """The oscillator responses by the exact one-step propagator, stepped."""
    h = t[1] - t[0]
    wh = omega * h
    phi = np.exp(1j * wh)
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(wh < 1e-3, h * (1.0 + 0.5j * wh - wh**2 / 6.0), (phi - 1.0) / (1j * omega))
        j1 = np.where(wh < 1e-3, h**2 * (0.5 + 1j * wh / 6.0 - wh**2 / 24.0),
                      h * (phi - 1.0) / (1j * omega) - (phi * (1.0 - 1j * wh) - 1.0) / omega**2)
    state = np.zeros(omega.size, dtype=complex)
    want = np.zeros((t.size, block.shape[1]))
    for m in range(t.size - 1):
        state = phi * state + (j0 - j1 / h) * drive[m] + (j1 / h) * drive[m + 1]
        want[m + 1] = state.imag @ block
    return want


@pytest.mark.parametrize("omega, t, columns, groups_per_table", [
    (np.array([0.0, 0.7, 3.1]), np.array([0.0, 0.02]), 1, None),  # one step
    (np.array([0.0, 1.3]), np.linspace(0.0, 12.0, 602), 1, None),  # a node at omega = 0
    (np.array([1e-5, 2e-4, 0.04]), np.linspace(0.0, 12.0, 602), 1, None),  # omega h < 1e-3
    # 601 lags in 25 groups of 25 rows, 3 groups per table: the last table
    # holds one group, and that group 1 row
    (np.array([0.2, 0.7, 3.1, 9.0]), np.linspace(0.0, 12.0, 602), 2, 3),
], ids=["one_step", "zero_node", "series", "two_columns"])
def test_oscillator_impulse_responses_match_stepwise_recurrence(
        monkeypatch, omega, t, columns, groups_per_table):
    drive = np.exp(-((t - 4.0) / 1.5) ** 2) + 0.3
    block = np.random.default_rng(7).normal(size=(omega.size, columns))
    if groups_per_table is not None:
        monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS",
                            groups_per_table * omega.size * 2 * columns)
    want = _stepwise_responses(omega, drive, t, block)
    got = noise._oscillator_responses(omega, drive, t, block)
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fft_convolver_zero_kernel_returns_exact_zeros(monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("a zero kernel needs no transform")

    monkeypatch.setattr(observables.np.fft, "fft", no_transform)
    monkeypatch.setattr(observables.np.fft, "ifft", no_transform)
    u = np.random.default_rng(3).normal(size=(37, 3)) + 1j
    got = observables._convolver(np.zeros((37, 3, 3), dtype=complex), 0.1)(u)
    assert got.shape == (37, 3)
    assert np.array_equal(got, np.zeros((37, 3)))


def test_maxwell_residual_transforms_per_channel(monkeypatch):
    # the gaussian medium has no magnetic part: chi_m is zero and never
    # transformed; on the grid and on its every-other-point subsample, each
    # live channel's electric convolution is one forward transform of its
    # field and one inverse transform of the j-summed product. The b_
    # channels and the d_ channels at the top node (39.4, where the coupling
    # underflows to 0) have zero fields and noise, and are not transformed
    me = gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.5)
    t = np.linspace(0.0, 4.0, 401)
    rep = make_rep(me, zero_coupling("magnetic"), t, order=2)
    assert not np.any(rep.chi_m) and np.any(rep.chi_e)
    forward, inverse = [], []
    fft, ifft = np.fft.fft, np.fft.ifft

    def counted(log, transform):
        def call(a, *args, **kwargs):
            log.append(a)
            return transform(a, *args, **kwargs)
        return call

    monkeypatch.setattr(observables.np.fft, "fft", counted(forward, fft))
    monkeypatch.setattr(observables.np.fft, "ifft", counted(inverse, ifft))
    report = maxwell_residual(rep)
    n_channels = len(report.channels)
    assert n_channels == 2 + 2 * 3 * 2
    kernels = [a for a in forward if a.ndim == 3]
    assert [a.shape[0] for a in kernels] == [401, 201]
    assert all(np.shares_memory(a, rep.chi_e) for a in kernels)
    live = ["photon_1", "photon_2", "d_nu1_q0", "d_nu2_q0", "d_nu3_q0"]
    assert [name for name, value in report.channels.items() if value != 0.0] == live
    assert len(forward) == 2 + 2 * len(live)
    assert len(inverse) == 2 * len(live)
    assert all(a.shape[1:] == (3,) for a in inverse)


def test_maxwell_residual_needs_three_time_points():
    # on the grid and on its every-other-point subsample, so four points are
    # too few as well
    for t in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0]):
        rep = make_rep(zero_coupling("electric"), zero_coupling("magnetic"), t, order=8)
        with pytest.raises(ValidationError, match="3 time points"):
            maxwell_residual(rep)


@pytest.mark.parametrize("t, message", [
    ([0.0, 1.0], "3 time points"),
    ([1.0, 1.0, 1.0], "increasing uniform"),  # zero step
    ([2.0, 1.0, 0.0], "increasing uniform"),
    ([0.0, 1.0, 3.0], "increasing uniform"),
], ids=["two_points", "zero_step", "descending", "nonuniform"])
def test_finite_difference_time_rejects_grid(t, message):
    with pytest.raises(ValidationError, match=message):
        finite_difference_time(np.zeros((len(t), 3)), t)


@pytest.fixture(scope="module")
def lorentz_kernel():
    model = lorentz_isotropic(1.0, 1.0, 0.4)
    return model, chi_kernel(model, np.array([0.0, 0.0, 1.3]), np.linspace(0.0, 20.0, 201))


@pytest.mark.parametrize("t", [
    20.0 * np.linspace(0.0, 1.0, 3001) ** 1.5,  # non-uniform
    np.array([0.0]),  # one point
    np.linspace(1.0, 21.0, 3001),  # uniform, but not from 0
], ids=["nonuniform", "one_point", "offset"])
def test_constitutive_roundtrip_rejects_grid(t, lorentz_kernel):
    with pytest.raises(ValidationError, match="uniform t_grid from 0"):
        constitutive_roundtrip(*lorentz_kernel, t)


def test_grid_checks_share_one_uniform_rule(lorentz_kernel):
    # one point 1e-13 off a 3001-point grid: 28 ulp of its largest time, so
    # no grid check accepts it as uniform
    t = np.linspace(0.0, 20.0, 3001)
    t[1234] += 1e-13
    with pytest.raises(ValidationError, match="increasing uniform"):
        finite_difference_time(np.zeros((t.size, 3)), t)
    rep = make_rep(lorentz_isotropic(1.0, 1.0, 0.4), zero_coupling("magnetic"), t, order=8)
    with pytest.raises(ValidationError, match="increasing uniform"):
        maxwell_residual(rep)
    with pytest.raises(ValidationError, match="uniform t_grid from 0"):
        constitutive_roundtrip(*lorentz_kernel, t)
