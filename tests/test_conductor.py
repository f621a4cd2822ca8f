import numpy as np
import pytest

from mqed.conductor import conductor_modes, q_kernel_consistency
from mqed.couplings import combined_electric, drude, lorentz_isotropic, zero_coupling
from mqed.errors import ValidationError
from mqed.modes import mode_coefficients
from mqed.response import laplace_response

K = np.array([0.4, -0.3, 1.1])
T = np.linspace(0.0, 6.0, 13)
WQ = np.array([0.7, 2.1])


def test_response_validates_sectors():
    electric = lorentz_isotropic(1.0, 1.0, 0.5)
    magnetic = lorentz_isotropic(1.0, 1.0, 0.5, which="magnetic")
    with pytest.raises(ValidationError, match="model_e must be electric"):
        laplace_response(magnetic, zero_coupling("magnetic"))
    with pytest.raises(ValidationError, match="model_m must be magnetic"):
        laplace_response(electric, electric)
    with pytest.raises(ValidationError, match="model_m must be magnetic"):
        laplace_response(combined_electric(electric, drude(1.1, 0.5)), zero_coupling("electric"))
    assert laplace_response(electric, magnetic).model_m is magnetic


def test_sigma_zero_reduces_to_dielectric_exactly():
    me = lorentz_isotropic(1.3, 1.0, 0.5)
    mm = lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")
    resp = laplace_response(combined_electric(me, zero_coupling("electric")), mm)
    mc_c = conductor_modes(resp, K, T, WQ)
    mc_d = mode_coefficients(laplace_response(me, mm), K, T, WQ)
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde"):
        assert np.max(np.abs(getattr(mc_c, name) - getattr(mc_d, name))) < 1e-12


def test_conductor_modes_equals_mode_coefficients():
    # the conductor path is the mode solver on the same response, relabelled
    resp = laplace_response(combined_electric(lorentz_isotropic(1.0, 1.0, 0.4), drude(0.9, 0.5)),
                            zero_coupling("magnetic"))
    mc_c = conductor_modes(resp, K, T, WQ)
    mc_d = mode_coefficients(resp, K, T, WQ)
    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                 "zeta_tilde", "eta_tilde", "f_q", "g_q"):
        assert np.array_equal(getattr(mc_c, name), getattr(mc_d, name)), name
    assert mc_c.metadata.items() >= mc_d.metadata.items()
    assert mc_c.metadata["conductor"] is True


def test_drude_poles_stable_and_transverse_decay():
    resp = laplace_response(drude(1.1, 0.5), zero_coupling("magnetic"))
    t = np.linspace(0.0, 30.0, 61)
    mc = conductor_modes(resp, K, t, [])
    assert mc.metadata["unstable_poles"] == 0
    assert mc.metadata["max_re_pole"] <= 1e-10
    from mqed.tensors import transverse_projector

    p_t = transverse_projector(K)
    norms = [np.linalg.norm(p_t @ mc.gamma[i] @ p_t) for i in (10, 30, 60)]
    assert norms[-1] < norms[0]


def test_q_consistency_pure_lorentz():
    report = q_kernel_consistency(lorentz_isotropic(1.3, 1.0, 0.5), zero_coupling("electric"),
                                  K, np.linspace(0.0, 10.0, 10001))
    assert report.bound_sigma_residual < 1e-5


def test_q_consistency_pure_drude():
    report = q_kernel_consistency(zero_coupling("electric"), drude(1.1, 0.5),
                                  K, np.linspace(0.0, 10.0, 2001))
    assert report.sigma_initial_psd
    sigma0 = report.implied_sigma[0].real
    assert np.min(np.linalg.eigvalsh(0.5 * (sigma0 + sigma0.T))) > 0.0
    q0 = report.q_report.q_values[0].real
    assert np.min(np.linalg.eigvalsh(q0)) > 0.0


def test_q_consistency_zero_coupling():
    report = q_kernel_consistency(zero_coupling("electric"), zero_coupling("electric"),
                                  K, np.linspace(0.0, 5.0, 101))
    assert np.allclose(report.q_report.q_values, 0.0)
    assert np.allclose(report.implied_sigma, 0.0)


def test_mixed_bound_free_scenario_runs():
    resp = laplace_response(combined_electric(lorentz_isotropic(1.0, 1.0, 0.4), drude(0.9, 0.5)),
                            zero_coupling("magnetic"))
    mc = conductor_modes(resp, K, T, WQ)
    assert mc.metadata["unstable_poles"] == 0
    # combined coupling at t = 0 initial-data identity
    from mqed.couplings import eval_coupling_batch

    f_q = eval_coupling_batch(resp.model_e, WQ, K)
    assert np.max(np.abs(mc.eta[:, 0] + f_q)) < 1e-10
