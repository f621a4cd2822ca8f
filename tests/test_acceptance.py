"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here, none deferred.
"""

import time

import numpy as np

from mqed.conductor import conductor_modes, q_kernel_consistency
from mqed.couplings import (
    apply_gauge,
    combined_electric,
    coupling_product,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    random_orthogonal_gauge,
    zero_coupling,
)
from mqed.modes import lambda_reality_scan, mode_coefficients
from mqed.noise import noise_commutator, pdot_continuity
from mqed.observables import (
    equal_time_commutators,
    field_representation,
    maxwell_residual,
    vacuum_spectrum,
)
from mqed.quadrature import QuadratureSpec, gauss_legendre
from mqed.response import chi_kernel, chi_spectrum, kk_check, laplace_response
from mqed.response import ResponseSpectrum
from mqed.couplings import coupling_from_target
from mqed.tensors import curl_symbol, longitudinal_projector, transverse_projector

K = np.array([0.4, -0.3, 1.1])
KZ = np.array([0.0, 0.0, 1.3])
W0 = 1.0

LORENTZ_E = lorentz_isotropic(1.3, W0, 0.5)
LORENTZ_M = lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")
DRUDE_E = drude(1.1, 0.5)
GAUSS_E = gaussian_anisotropic((1.0, 0.7, 0.4), W0, 0.8)
ZERO_E = zero_coupling("electric")
ZERO_M = zero_coupling("magnetic")

OMEGA_FDT = np.linspace(0.1 * W0, 5.0 * W0, 160)


def report(criterion, passed, detail):
    line = f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def spectrum_for(model, k, grid=None, rtol=1e-9, tail=1e-11):
    t = np.linspace(0.0, model.suggested_t_max(tail), 2200)
    kernel = chi_kernel(model, k, t, quad=QuadratureSpec(rtol=rtol))
    return chi_spectrum(kernel, grid if grid is not None else OMEGA_FDT)


def test_criterion_1_fluctuation_dissipation():
    """Noise commutator density equals (hbar eps0 / pi) Im chi_hat."""
    worst = {}
    for name, model in (
        ("lorentz", LORENTZ_E),
        ("drude", DRUDE_E),
        ("gaussian", GAUSS_E),
        ("lorentz-magnetic", LORENTZ_M),
    ):
        start = time.perf_counter()
        rep = noise_commutator(model, K, OMEGA_FDT)
        elapsed = time.perf_counter() - start
        worst[name] = (rep.max_rel_err, elapsed)
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    bad = {n: v for n, (v, _) in worst.items() if v >= 1e-5}
    detail = ", ".join(f"{n}={v:.2e} ({dt:.1f}s)" for n, (v, dt) in worst.items())
    report(1, not bad, f"FDT max rel err < 1e-5: {detail}")


def test_criterion_2_roundtrip_inversion():
    """coupling_from_target(chi_spectrum(chi_kernel(model))) returns f f^dag."""
    start = time.perf_counter()
    errs = {}
    for name, model in (("lorentz", LORENTZ_E), ("drude", DRUDE_E), ("gaussian", GAUSS_E)):
        spectrum = spectrum_for(model, K)
        imh = spectrum.imag_hermitian()
        rec = np.stack([
            coupling_from_target(imh[i], w, K, which=model.which)
            for i, w in enumerate(OMEGA_FDT)
        ])
        recrec = rec @ np.conj(np.transpose(rec, (0, 2, 1)))
        true = coupling_product(model, OMEGA_FDT, K)
        scale = np.max(np.linalg.norm(true, axis=(1, 2)))
        errs[name] = float(np.max(np.linalg.norm(recrec - true, axis=(1, 2)))) / scale
    elapsed = time.perf_counter() - start
    ok = all(v < 1e-6 for v in errs.values()) and elapsed < 60.0
    detail = ", ".join(f"{n}={v:.2e}" for n, v in errs.items()) + f" ({elapsed:.1f}s)"
    report(2, ok, f"round trip < 1e-6: {detail}")


def test_criterion_3_causality_kk():
    """KK residual < 1e-3 on 4096-point grids; acausal flip > 0.1."""
    n = 4096
    grid = (np.arange(n) + 0.5) * 50.0 / n
    residuals = {}
    for name, model in (
        ("lorentz-e", LORENTZ_E), ("lorentz-m", LORENTZ_M),
        ("drude", DRUDE_E), ("gaussian", GAUSS_E),
    ):
        spectrum = spectrum_for(model, K, grid=grid)
        residuals[name] = kk_check(spectrum).max_rel_residual
    causal_ok = all(v < 1e-3 for v in residuals.values())
    base = spectrum_for(LORENTZ_E, K, grid=grid)
    flipped = ResponseSpectrum(
        which=base.which, k=base.k, omega_grid=base.omega_grid,
        values=np.conj(base.values), imag_min_eig=0.0, tail_fraction=0.0,
    )
    acausal = kk_check(flipped).max_rel_residual
    ok = causal_ok and acausal > 0.1
    detail = ", ".join(f"{n_}={v:.2e}" for n_, v in residuals.items())
    report(3, ok, f"causal {detail}; acausal flip residual {acausal:.2f} > 0.1")


def test_criterion_4_vacuum_limit():
    """Vacuum mode coefficients match closed forms; commutators exact."""
    wk = float(np.linalg.norm(KZ))
    t = np.linspace(0.0, 10.0, 41)
    resp = laplace_response(ZERO_E, ZERO_M)
    mc = mode_coefficients(resp, KZ, t, [0.5, 2.0])
    p_t = transverse_projector(KZ)
    p_l = longitudinal_projector(KZ)
    o = curl_symbol(KZ)
    cos = np.cos(wk * t)[:, None, None]
    sin = (np.sin(wk * t) / wk)[:, None, None]
    ones = np.ones_like(t)[:, None, None]
    errs = {
        "gamma": np.max(np.abs(mc.gamma - (cos * p_t + ones * p_l))),
        "xi": np.max(np.abs(mc.xi - sin * o)),
        "gamma_tilde": np.max(np.abs(mc.gamma_tilde + sin * o)),
        "xi_tilde": np.max(np.abs(mc.xi_tilde - (cos * p_t + ones * p_l))),
    }
    zeta_eta = max(np.max(np.abs(mc.zeta)), np.max(np.abs(mc.eta)))
    nodes, weights = gauss_legendre(16, 0.0, 5.0)
    rep = field_representation(resp, KZ, t, nodes, weights)
    comm = equal_time_commutators(rep, [0.0, 5.0, 10.0])
    ok = max(errs.values()) < 1e-9 and zeta_eta == 0.0 and comm.max_rel_err < 1e-10
    detail = (", ".join(f"{n}={v:.1e}" for n, v in errs.items())
              + f", zeta/eta={zeta_eta:.1e}, commutator={comm.max_rel_err:.1e}")
    report(4, ok, detail)


def test_criterion_5_medium_independent_commutators():
    """Lorentz-medium equal-time commutators stay at the vacuum values."""
    start = time.perf_counter()
    t = np.linspace(0.0, 20.0, 81)
    t_set = [0.0, 1.0, 5.0, 20.0]
    devs = {}
    for order in (128, 512, 2048):
        nodes, weights = gauss_legendre(order, 0.0, 50.0)
        rep = field_representation(laplace_response(LORENTZ_E, LORENTZ_M), K, t, nodes, weights)
        vac = field_representation(laplace_response(ZERO_E, ZERO_M), K, t, nodes, weights)
        devs[order] = equal_time_commutators(rep, t_set, baseline=vac).max_rel_err
    elapsed = time.perf_counter() - start
    converged = devs[512] <= devs[128] and devs[2048] <= 1.05 * devs[512]
    ok = devs[2048] < 1e-4 and converged and elapsed < 300.0
    detail = (f"dev(128)={devs[128]:.2e}, dev(512)={devs[512]:.2e}, "
              f"dev(2048)={devs[2048]:.2e} ({elapsed:.0f}s)")
    report(5, ok, detail)


def test_criterion_6_gauge_freedom():
    """Random orthogonal gauges leave every observable invariant."""
    t = np.linspace(0.0, 8.0, 17)
    nodes, weights = gauss_legendre(48, 0.0, 50.0)
    rep0 = field_representation(laplace_response(LORENTZ_E, LORENTZ_M), K, t, nodes, weights)
    comm0 = equal_time_commutators(rep0, [0.0, 4.0, 8.0])
    spec0 = vacuum_spectrum(rep0, (0.0, 0.0, 0.0), 4.0)
    noise0 = noise_commutator(LORENTZ_E, K, OMEGA_FDT[::4])
    kernel_t = np.linspace(0.0, 30.0, 301)
    chi0 = chi_kernel(LORENTZ_E, K, kernel_t).values
    chi0_m = chi_kernel(LORENTZ_M, K, kernel_t).values
    rng = np.random.default_rng(101)
    worst = {"chi_e": 0.0, "chi_m": 0.0, "noise": 0.0, "commutator": 0.0,
             "spectrum": 0.0}
    channel_change = np.inf
    for _ in range(10):
        gauge = random_orthogonal_gauge(rng)
        ge, gm = apply_gauge(LORENTZ_E, gauge), apply_gauge(LORENTZ_M, gauge)
        worst["chi_e"] = max(worst["chi_e"],
                             float(np.max(np.abs(chi_kernel(ge, K, kernel_t).values - chi0))))
        worst["chi_m"] = max(worst["chi_m"],
                             float(np.max(np.abs(chi_kernel(gm, K, kernel_t).values - chi0_m))))
        worst["noise"] = max(worst["noise"], float(np.max(np.abs(
            noise_commutator(ge, K, OMEGA_FDT[::4]).lhs - noise0.lhs))))
        rep_g = field_representation(laplace_response(ge, gm), K, t, nodes, weights)
        comm_g = equal_time_commutators(rep_g, [0.0, 4.0, 8.0])
        worst["commutator"] = max(worst["commutator"],
                                  float(np.max(np.abs(comm_g.lhs - comm0.lhs))))
        worst["spectrum"] = max(worst["spectrum"], float(np.max(np.abs(
            vacuum_spectrum(rep_g, (0.0, 0.0, 0.0), 4.0) - spec0))))
        channel_change = min(channel_change,
                             float(np.max(np.abs(rep_g.coeffs.eta - rep0.coeffs.eta))))
    ok = max(worst.values()) < 1e-10 and channel_change > 1e-8
    detail = (", ".join(f"{n}={v:.1e}" for n, v in worst.items())
              + f"; eta channel change {channel_change:.1e} (must differ)")
    report(6, ok, detail)


def test_criterion_7_maxwell_residuals():
    """Every coefficient channel satisfies the transformed Maxwell system."""
    t = np.linspace(0.0, 6.0, 8001)
    nodes, weights = gauss_legendre(16, 0.0, 7.0)
    rep = field_representation(laplace_response(LORENTZ_E, LORENTZ_M), K, t, nodes, weights)
    res = maxwell_residual(rep, reservoir_samples=3)
    rep_v = field_representation(laplace_response(ZERO_E, ZERO_M), KZ, t, nodes, weights)
    res_v = maxwell_residual(rep_v)
    ok = res.max_residual < 1e-5 and res_v.max_residual < 1e-5
    report(7, ok, f"medium max={res.max_residual:.2e}, vacuum max={res_v.max_residual:.2e}")


def test_criterion_8_lambda_reality():
    """Lambda(-k, rho) = conj(Lambda(k, rho)) over 100 random samples."""
    rng = np.random.default_rng(77)
    devs = {}
    for name, me, mm in (
        ("lorentz", LORENTZ_E, LORENTZ_M),
        ("drude", DRUDE_E, ZERO_M),
        ("gaussian", GAUSS_E, ZERO_M),
    ):
        resp = laplace_response(me, mm)
        scan = lambda_reality_scan(resp, rng.standard_normal((10, 3)),
                                   rng.uniform(0.1, 5.0, 10))
        assert scan.n_samples == 100
        devs[name] = scan.max_deviation
    ok = all(v < 1e-13 for v in devs.values())
    report(8, ok, ", ".join(f"{n}={v:.1e}" for n, v in devs.items()))


def test_criterion_9_t0_continuity():
    """One-sided dP/dt limits agree at t = 0 and tighten as dt shrinks."""
    jumps = {}
    for dt in (1e-3, 5e-4):
        rep = pdot_continuity(LORENTZ_E, K, dt=dt)
        jumps[dt] = (rep.jump, rep.relative_jump)
    ok = jumps[1e-3][1] < 1e-5 and jumps[5e-4][0] <= jumps[1e-3][0] / 2.0
    detail = (f"rel jump(dt=1e-3)={jumps[1e-3][1]:.2e}; "
              f"halving ratio={jumps[1e-3][0] / max(jumps[5e-4][0], 1e-300):.1f}x")
    report(9, ok, detail)


def test_criterion_10_conductor_pathway():
    """No free carriers reduces exactly; Drude poles stable; Q decomposition holds."""
    t = np.linspace(0.0, 6.0, 13)
    wq = np.array([0.7, 2.1])
    dielectric = laplace_response(combined_electric(LORENTZ_E, ZERO_E), LORENTZ_M)
    mc_c = conductor_modes(dielectric, K, t, wq)
    mc_d = mode_coefficients(laplace_response(LORENTZ_E, LORENTZ_M), K, t, wq)
    reduction = max(
        float(np.max(np.abs(getattr(mc_c, n) - getattr(mc_d, n))))
        for n in ("gamma", "xi", "zeta", "eta", "gamma_tilde", "xi_tilde",
                  "zeta_tilde", "eta_tilde")
    )
    mc_drude = conductor_modes(laplace_response(combined_electric(ZERO_E, DRUDE_E), ZERO_M),
                               K, t, wq)
    poles_ok = (mc_drude.metadata["unstable_poles"] == 0
                and mc_drude.metadata["max_re_pole"] <= 1e-10)
    q_bound = q_kernel_consistency(LORENTZ_E, ZERO_E, K, np.linspace(0.0, 10.0, 10001))
    ok = reduction < 1e-12 and poles_ok and q_bound.bound_sigma_residual < 1e-5
    detail = (f"sigma=0 reduction {reduction:.1e}, max Re pole "
              f"{mc_drude.metadata['max_re_pole']:.1e}, Q residual "
              f"{q_bound.bound_sigma_residual:.2e}")
    report(10, ok, detail)


def test_criterion_11_dual_method_inverse_laplace():
    """Deformed-contour and exact partial-fraction transforms agree."""
    t = np.linspace(0.0, 6.0, 7)
    wq = np.array([0.6, 2.3, 20.0])
    worst = {}
    for name, me, mm in (("lorentz", LORENTZ_E, LORENTZ_M), ("drude", DRUDE_E, ZERO_M)):
        resp = laplace_response(me, mm)
        a = mode_coefficients(resp, KZ, t, wq)
        b = mode_coefficients(resp, KZ, t, wq, method="talbot")
        dev = 0.0
        for field in ("gamma", "xi", "gamma_tilde", "xi_tilde", "zeta", "eta",
                      "zeta_tilde", "eta_tilde"):
            x, y = getattr(a, field), getattr(b, field)
            scale = max(float(np.max(np.abs(x))), 1e-30)
            dev = max(dev, float(np.max(np.abs(x - y))) / scale)
        worst[name] = dev
    ok = all(v < 1e-8 for v in worst.values())
    report(11, ok, ", ".join(f"{n}={v:.2e}" for n, v in worst.items()))
