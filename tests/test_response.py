from dataclasses import replace

import numpy as np
import pytest

from mqed.couplings import (
    coupling_product,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    zero_coupling,
)
from mqed.errors import GridTooCoarse, LeftHalfPlane, QuadratureNotConverged, TailNotDecayed
from mqed.quadrature import QuadratureSpec
from mqed.response import (
    ResponseSpectrum,
    _converged_rep,
    chi_kernel,
    chi_spectrum,
    conductor_Q,
    KERNEL_PREFACTOR,
    kk_check,
    laplace_response,
)

K = np.array([0.3, -0.2, 0.9])
WP, W0, G = 1.3, 1.0, 0.5


def lorentz_kernel_exact(t):
    wt = np.sqrt(W0**2 - G**2 / 4.0)
    return WP**2 * np.exp(-G * t / 2.0) * np.sin(wt * t) / wt


def coupling_kernel(model, t, quad=QuadratureSpec(), k=K):
    """chi of `model` on t from the paper's coupling integral alone: its
    quadrature representation converged on t (`_converged_rep`), and no
    closed form, so `chi_spectrum` takes the representation's half-line
    transform (`_half_line_transform_exact`). A rational part's own kernel
    reads its closed form instead, which a test against that form would
    compare with itself."""
    kernel = chi_kernel(model, k, t, quad=quad)
    if kernel.closed_form is None:
        return kernel
    pref = KERNEL_PREFACTOR
    rep, values, result = _converged_rep(model, k, quad, pref, lambda r: r.kernel_values(t))
    return replace(kernel, values=values, quad=result, rep=rep, rep_horizon=float(t[-1]),
                   closed_form=None, couplings_gap=None)


@pytest.fixture(scope="module")
def lorentz_kernel():
    t = np.linspace(0.0, 90.0, 1500)
    return chi_kernel(lorentz_isotropic(WP, W0, G), K, t, quad=QuadratureSpec(rtol=1e-9))


def test_kernel_zero_coupling():
    t = np.linspace(0.0, 5.0, 50)
    kernel = chi_kernel(zero_coupling(), K, t)
    assert np.allclose(kernel.values, 0.0)


def test_kernel_vanishes_at_t0(lorentz_kernel):
    assert np.allclose(lorentz_kernel.values[0], 0.0)


def test_kernel_matches_damped_sinusoid():
    # the coupling integral against the closed-form oracle; the frequency
    # cutoff is pushed high enough that truncation sits below the 1e-6 target
    t = np.linspace(0.0, 40.0, 900)
    kernel = coupling_kernel(
        lorentz_isotropic(WP, W0, G), t,
        quad=QuadratureSpec(rtol=1e-10, cutoff_factor=200.0, start_order=1024, max_order=16384),
    )
    exact = lorentz_kernel_exact(t)
    err = np.max(np.abs(kernel.values[:, 0, 0].real - exact)) / np.max(np.abs(exact))
    assert err < 1e-6
    assert np.max(np.abs(kernel.values.imag)) < 1e-12


def test_drude_kernel_closed_form():
    s, g = 1.1, 0.5
    t = np.linspace(0.0, 40.0, 800)
    kernel = coupling_kernel(drude(s, g), t, quad=QuadratureSpec(rtol=1e-9, cutoff_factor=400.0))
    exact = (s**2 / g) * (1.0 - np.exp(-g * t))
    assert np.max(np.abs(kernel.values[:, 0, 0].real - exact)) / np.max(exact) < 1e-5


def test_rational_kernel_is_its_closed_form():
    # underdamped, overdamped, critically damped (resonance = width / 2,
    # where the partial fractions meet a double pole) and Drude: each part's
    # kernel is its inverse transform, to rounding
    from mqed.errors import PoleFindingFailed
    from mqed.rational import ilt_rational

    t = np.linspace(0.0, 60.0, 2001)
    s, g = 1.1, 0.5
    by_poles = [lorentz_isotropic(WP, W0, G), lorentz_isotropic(1.0, 1.0, 2.5),
                lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")]
    cases = [(m, ilt_rational(m.closed_form, t)[0].real, 2e-15) for m in by_poles]
    critical = lorentz_isotropic(s, g / 2.0, g)
    cases += [(critical, s**2 * t * np.exp(-g * t / 2.0), 1e-13),
              (drude(s, g), (s**2 / g) * -np.expm1(-g * t), 1e-13)]
    for model, exact, tol in cases:
        kernel = chi_kernel(model, K, t)
        assert kernel.closed_form is not None
        err = np.max(np.abs(kernel.values - exact[:, None, None] * np.eye(3)))
        assert err <= tol * np.max(np.abs(exact)), (model, err)
    with pytest.raises(PoleFindingFailed):
        ilt_rational(critical.closed_form, t)


def test_rational_kernel_keeps_its_coupling_quadrature_on_the_checks_horizon():
    # the representation is the paper's integral on [0, 20 / frequency
    # scale], converged there; its gap to the closed form is the cut at
    # 50 x frequency scale, largest near t = 1 / cutoff
    from mqed.response import check_grid

    model = lorentz_isotropic(1.3, 1.0, 0.5)
    kernel = chi_kernel(model, K, np.linspace(0.0, 5.0, 11))
    assert kernel.rep_horizon == check_grid(model)[-1] == 20.0
    assert (kernel.quad.order, kernel.quad.rule) == (1024, "gauss_legendre")
    record = kernel.metadata()
    assert record["kernel"] == "closed_form"
    assert 1e-5 < record["couplings_gap"] == kernel.couplings_gap < 1e-4
    t = check_grid(model)
    exact = chi_kernel(model, K, t).values
    gap = np.max(np.abs(kernel.rep.kernel_values(t) - exact)) / np.max(np.abs(exact))
    assert gap == pytest.approx(kernel.couplings_gap, rel=1e-9)
    # a continuum part has no closed form: its record names no gap
    gaussian = chi_kernel(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.6), K, t)
    assert gaussian.closed_form is None and "couplings_gap" not in gaussian.metadata()


def test_gauged_rational_kernel_is_the_bare_closed_form():
    # an orthogonal gauge leaves f f^dag as it is, so a gauged Lorentz part
    # takes the bare part's closed form; its representation is still the
    # coupling integral of the gauged model, which agrees to rounding
    from helpers import random_orthogonal_gauge
    from mqed.couplings import apply_gauge
    from mqed.response import check_grid

    model = lorentz_isotropic(1.3, 1.0, 0.5)
    gauged = apply_gauge(model, random_orthogonal_gauge(np.random.default_rng(5)))
    t = np.linspace(0.0, 30.0, 301)
    bare, kernel = chi_kernel(model, K, t), chi_kernel(gauged, K, t)
    assert kernel.closed_form is not None and kernel.rep_horizon == bare.rep_horizon
    assert np.array_equal(kernel.values, bare.values)
    t_rep = check_grid(model)
    ref = bare.rep.kernel_values(t_rep)
    assert np.max(np.abs(kernel.rep.kernel_values(t_rep) - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert kernel.couplings_gap == pytest.approx(bare.couplings_gap, rel=1e-8)


@pytest.mark.parametrize("name, parts", [("lorentz", ("electric", "magnetic")),
                                         ("conductor", ("electric",))])
def test_bundled_rational_parts_keep_their_coupling_integral_near_the_closed_form(name, parts):
    # the one number that still compares the paper's coupling integral with
    # the closed form on a run: the cut at 50 x frequency scale leaves 5e-5
    # to 7e-5 of the peak near t = 1 / cutoff, and a broken coupling
    # integral would leave O(1)
    config = _bundled(name)
    for part in parts:
        model = config.model(part)
        for k in config.k_list():
            kernel = chi_kernel(model, k, np.linspace(0.0, 5.0, 11), quad=config.quadrature())
            assert kernel.closed_form is not None
            assert 1e-5 < kernel.couplings_gap < 1e-4, (name, part, kernel.couplings_gap)


def test_drude_closed_form_spectrum_keeps_its_plateau():
    # the closed form needs no horizon, so a short grid serves; the pole at
    # rho = 0 gives the plateau s^2 / width, and no spectrum at omega = 0
    from mqed.errors import ZeroFrequency

    s, g = 1.1, 0.5
    kernel = chi_kernel(drude(s, g), K, np.linspace(0.0, 5.0, 50))
    omega = np.linspace(0.1, 5.0, 50)
    spectrum = chi_spectrum(kernel, omega)
    assert np.allclose(spectrum.plateau, (s**2 / g) * np.eye(3), rtol=1e-15, atol=0.0)
    exact = s**2 / (-(omega**2) - 1j * g * omega)
    assert np.max(np.abs(spectrum.values[:, 0, 0] - exact)) <= 1e-15 * np.max(np.abs(exact))
    with pytest.raises(ZeroFrequency):
        chi_spectrum(kernel, np.array([0.0, 1.0]))
    lorentz = chi_spectrum(chi_kernel(lorentz_isotropic(WP, W0, G), K, kernel.t_grid),
                           np.array([0.0, 1.0]))
    assert lorentz.plateau is None and lorentz.values[0, 0, 0] == WP**2 / W0**2


def test_spectrum_zero_kernel():
    t = np.linspace(0.0, 5.0, 50)
    spectrum = chi_spectrum(chi_kernel(zero_coupling(), K, t), np.linspace(0.0, 3.0, 7))
    assert np.allclose(spectrum.values, 0.0)


def test_spectrum_matches_lorentzian(lorentz_kernel):
    omega = np.linspace(0.05, 5.0, 180)
    spectrum = chi_spectrum(coupling_kernel(lorentz_isotropic(WP, W0, G), lorentz_kernel.t_grid,
                                            QuadratureSpec(rtol=1e-9)), omega)
    exact = WP**2 / (W0**2 - omega**2 - 1j * G * omega)
    err = np.max(np.abs(spectrum.values[:, 0, 0] - exact)) / np.max(np.abs(exact))
    assert err < 1e-5


def test_spectrum_drude_plateau_counterterm():
    s, g = 1.1, 0.5
    t = np.linspace(0.0, 45.0, 900)
    kernel = coupling_kernel(drude(s, g), t, quad=QuadratureSpec(rtol=1e-9))
    omega = np.linspace(0.1, 5.0, 120)
    spectrum = chi_spectrum(kernel, omega)
    assert spectrum.plateau is not None
    exact = s**2 / (-(omega**2) - 1j * g * omega)
    err = np.max(np.abs(spectrum.values[:, 0, 0] - exact)) / np.max(np.abs(exact))
    assert err < 1e-5


def test_spectrum_imag_psd(lorentz_kernel):
    omega = np.linspace(0.05, 5.0, 120)
    spectrum = chi_spectrum(lorentz_kernel, omega)
    eigs = np.linalg.eigvalsh(spectrum.imag_hermitian())
    assert float(np.min(eigs)) >= -1e-10


def test_spectrum_tail_not_decayed():
    # a continuum kernel's spectrum is its transform to t_max, so t_max must
    # reach its decay; a rational part's closed form needs no horizon
    t = np.linspace(0.0, 3.0, 80)  # far too short for a gaussian line at 1
    kernel = chi_kernel(gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.6), K, t)
    with pytest.raises(TailNotDecayed):
        chi_spectrum(kernel, np.linspace(0.1, 2.0, 10))


def test_kk_lorentz_residual(lorentz_kernel):
    n = 4096
    grid = (np.arange(n) + 0.5) * 50.0 / n
    spectrum = chi_spectrum(lorentz_kernel, grid)
    report = kk_check(spectrum)
    assert report.max_rel_residual < 1e-3


def test_kk_zero_spectrum():
    grid = np.linspace(0.01, 10.0, 128)
    spectrum = ResponseSpectrum(
        which="electric", k=K, omega_grid=grid,
        values=np.zeros((grid.size, 3, 3), dtype=complex),
        imag_min_eig=0.0, tail_fraction=0.0,
    )
    assert kk_check(spectrum).max_rel_residual == 0.0


def test_kk_zero_real_part_fails(lorentz_kernel):
    # a Lorentz Im chi_hat with its real part set to zero, or to 1e-300
    # (whose norm underflows), is no causal spectrum: the residual reads 1,
    # whatever the strength of the medium, and fails kk_tol = 1e-4
    n = 512
    grid = (np.arange(n) + 0.5) * 50.0 / n
    weak = chi_kernel(lorentz_isotropic(0.02, W0, G), K, lorentz_kernel.t_grid,
                      quad=QuadratureSpec(rtol=1e-9))
    for kernel in (lorentz_kernel, weak):
        spectrum = chi_spectrum(kernel, grid)
        causal = kk_check(spectrum).max_rel_residual
        assert causal < 0.1
        im = 1j * spectrum.values.imag
        for re in (0.0, 1e-300):
            broken = replace(spectrum, values=re + im)
            assert kk_check(broken).max_rel_residual == 1.0
            assert kk_check(broken).max_rel_residual > 10.0 * causal


def test_kk_acausal_counterexample(lorentz_kernel):
    n = 2048
    grid = (np.arange(n) + 0.5) * 50.0 / n
    spectrum = chi_spectrum(lorentz_kernel, grid)
    flipped = ResponseSpectrum(
        which=spectrum.which, k=spectrum.k, omega_grid=grid,
        values=np.conj(spectrum.values),  # time-reversed kernel
        imag_min_eig=0.0, tail_fraction=0.0,
    )
    report = kk_check(flipped)  # reported, no exception
    assert report.max_rel_residual > 0.1


def test_kk_grid_requirements(lorentz_kernel):
    spectrum = chi_spectrum(lorentz_kernel, np.linspace(0.1, 5.0, 32))
    with pytest.raises(GridTooCoarse):
        kk_check(spectrum)
    geometric = np.geomspace(0.1, 10.0, 128)
    with pytest.raises(GridTooCoarse):
        kk_check(chi_spectrum(lorentz_kernel, geometric))
    # a zero step passes the uniformity test; it must not reach the sum
    with pytest.raises(GridTooCoarse):
        kk_check(chi_spectrum(lorentz_kernel, np.full(64, 1.0)))
    # the sum divides by omega at each grid point
    with pytest.raises(GridTooCoarse, match="positive omega"):
        kk_check(chi_spectrum(lorentz_kernel, np.linspace(0.0, 10.0, 128)))


def test_kk_descending_grid_reads_like_ascending(lorentz_kernel):
    n = 4096
    grid = (np.arange(n) + 0.5) * 50.0 / n
    spectrum = chi_spectrum(lorentz_kernel, grid)
    descending = replace(spectrum, omega_grid=grid[::-1], values=spectrum.values[::-1])
    report = kk_check(spectrum)
    assert report.max_rel_residual < 1e-3
    assert kk_check(descending) == report
    # the acausal flip still reads about 2 in either order
    for causal in (spectrum, descending):
        flipped = replace(causal, values=np.conj(causal.values))
        assert kk_check(flipped).max_rel_residual == pytest.approx(2.0, abs=0.05)


def _dense_kk_sum(omega, im):
    """Maclaurin's alternate-point sum of (2/pi) P int w' Im / (w'^2 - w^2)
    at each grid point w_i > 0, as the n x n matrix of the rule: g = w' Im
    at weight 2h / (pi w_i) on the points w_j at odd j - i, over w_j - w_i,
    and on the mirrored points -w_j at an odd (w_i + w_j) / h, over
    -(w_i + w_j). The rule is built 256 rows at a time."""
    h = (omega[-1] - omega[0]) / (omega.size - 1)
    index, g = np.arange(omega.size), omega[:, None] * im
    sums = []
    for start in range(0, omega.size, 256):
        offset = index - index[start:start + 256, None]
        mirrored = np.add.outer(omega[start:start + 256], omega)
        odd = offset & 1 == 1
        odd_mirrored = np.rint(mirrored / h).astype(np.int64) & 1 == 1
        rule = np.where(odd, 1.0 / (h * np.where(odd, offset, 1)), 0.0)
        rule -= np.where(odd_mirrored, 1.0 / np.where(odd_mirrored, mirrored, 1.0), 0.0)
        sums.append(rule @ g)
    rows = omega > 0.0
    return (2.0 * h / np.pi) * np.concatenate(sums)[rows] / omega[rows, None]


@pytest.mark.parametrize("m", [1, 9, 18])
@pytest.mark.parametrize("n", [64, 65, 4096])
@pytest.mark.parametrize("start", ["half_step", "zero", "offset"])
def test_kk_fft_sum_matches_dense_sum(start, n, m):
    # the FFT sum is the dense sum of the rule at every point w_i > 0; on a
    # grid from 0 the rule has no value at w = 0 (it divides by w_i), which
    # kk_check refuses
    from mqed.response import _kk_real_part

    h = 50.0 / n
    omega = {"half_step": 0.5 * h, "zero": 0.0, "offset": 0.1}[start] + h * np.arange(n)
    rng = np.random.default_rng(n + m)
    im = np.zeros((n, m))
    for _ in range(3):  # damped-oscillator lines with random column weights
        w0, g = rng.uniform(0.5, 5.0), rng.uniform(0.1, 1.0)
        line = g * omega / ((w0**2 - omega**2) ** 2 + (g * omega) ** 2)
        im += line[:, None] * rng.normal(size=m)
    dense = _dense_kk_sum(omega, im)
    with np.errstate(divide="ignore", invalid="ignore"):
        fast = _kk_real_part(omega, im)
    assert fast.shape == (n, m)
    assert dense.shape == (n - (start == "zero"), m)
    fast = fast[omega > 0.0]
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_laplace_response_vacuum():
    resp = laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
    assert np.allclose(resp.eps(K, 1.0 + 0.5j), np.eye(3))
    assert np.allclose(resp.mu(K, 2.0), np.eye(3))


def test_laplace_response_lorentz_closed_form():
    resp = laplace_response(lorentz_isotropic(WP, W0, G), zero_coupling("magnetic"))
    rho = G  # real evaluation point
    expected = 1.0 + WP**2 / (W0**2 + rho**2 + G * rho)
    got = resp.eps(K, rho)
    assert abs(got[0, 0] - expected) < 1e-10


def test_laplace_response_numeric_matches_rational():
    # the quadrature route for a model whose transform is also known in
    # closed form: force the numeric path through a (finely) tabulated copy,
    # whose bilinear interpolation bounds the reachable accuracy
    from mqed.couplings import TabulatedTable, eval_coupling_batch, tabulated

    base = lorentz_isotropic(WP, W0, G)
    omegas = np.linspace(1e-6, 120.0, 240001)
    vals = eval_coupling_batch(base, omegas, K)
    table = TabulatedTable(
        omegas=omegas, kmags=np.array([0.1, 5.0]),
        values=np.repeat(vals[:, None], 2, axis=1),
    )
    model_tab = tabulated(table)
    # the rule stops at the table's top frequency, 120
    resp = laplace_response(model_tab, zero_coupling("magnetic"), quad=QuadratureSpec(rtol=1e-8))
    for rho in (0.7, 1.3 + 0.9j):
        exact = 1.0 + WP**2 / (W0**2 + rho**2 + G * rho)
        got = resp.eps(K, rho)[0, 0]
        assert abs(got - exact) / abs(exact) < 1e-6


def test_laplace_response_left_half_plane():
    resp = laplace_response(gaussian_anisotropic((1.0, 0.5, 0.2), 1.0),
                            zero_coupling("magnetic"))
    with pytest.raises(LeftHalfPlane):
        resp.eps(K, -1.0)


def test_conductor_q_zero():
    t = np.linspace(0.0, 5.0, 100)
    report = conductor_Q(zero_coupling(), K, t)
    assert np.allclose(report.q_values, 0.0)
    assert report.sigma_residual == 0.0


def test_conductor_q_lorentz_derivative_identity():
    t = np.linspace(0.0, 10.0, 10001)
    report = conductor_Q(lorentz_isotropic(WP, W0, G), K, t,
                         quad=QuadratureSpec(rtol=1e-9))
    assert report.sigma_residual < 1e-5


def test_conductor_q_drude_positive_at_zero():
    t = np.linspace(0.0, 10.0, 2001)
    report = conductor_Q(drude(1.1, 0.5), K, t,
                         quad=QuadratureSpec(rtol=1e-9, cutoff_factor=800.0))
    q0 = report.q_values[0].real
    assert np.min(np.linalg.eigvalsh(q0)) > 0.0
    # Q(0) = (8 pi / hbar c^3) int w^3 f f^dag dw = eps0 * strength^2 here
    assert q0[0, 0] == pytest.approx(1.1**2, rel=1e-2)
    # for a single coupling Q = eps0 dchi/dt identically: the residual kernel
    # stays at the finite-difference/truncation floor (the free-carrier sigma
    # with its positive t -> 0+ value lives in the bound/free split, tested
    # in the conductor module)
    assert report.sigma_residual < 2e-3


def test_structural_fdt_identity():
    # Im chi_hat = (4 pi^2 / hbar c^3 eps0) omega^2 f f^dag for every family
    from mqed.couplings import coupling_product

    omega = np.linspace(0.2, 4.0, 40)
    for model in (
        lorentz_isotropic(WP, W0, G),
        drude(1.1, 0.5),
        gaussian_anisotropic((1.0, 0.7, 0.4), 1.0, 0.6),
    ):
        t = np.linspace(0.0, model.suggested_t_max(1e-9), 1500)
        spectrum = chi_spectrum(coupling_kernel(model, t, QuadratureSpec(rtol=1e-9)), omega)
        lhs = spectrum.imag_hermitian()
        rhs = 4.0 * np.pi**2 * (omega**2)[:, None, None] * coupling_product(model, omega, K)
        err = np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))) / np.max(
            np.linalg.norm(rhs, axis=(1, 2))
        )
        assert err < 1e-5


def test_magnetic_sector_prefactor():
    model = lorentz_isotropic(0.8, 1.4, 0.6, which="magnetic")
    t = np.linspace(0.0, model.suggested_t_max(1e-9), 1200)
    omega = np.linspace(0.2, 4.0, 30)
    spectrum = chi_spectrum(coupling_kernel(model, t, QuadratureSpec(rtol=1e-9)), omega)
    exact = 0.8**2 / (1.4**2 - omega**2 - 1j * 0.6 * omega)
    err = np.max(np.abs(spectrum.values[:, 0, 0] - exact)) / np.max(np.abs(exact))
    assert err < 1e-5


def _sinc_transform(nodes, coeffs, t_max, omega):
    """Reference half-line transform: the direct seg/sinc form on every
    (omega, omega_n) pair, contracted entrywise."""

    def seg(d):
        x = d * t_max
        return t_max * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))

    it = (seg(omega[:, None] + nodes[None, :]) - seg(omega[:, None] - nodes[None, :])) / 2.0j
    return np.einsum("wn,nij->wij", it, coeffs)


@pytest.mark.parametrize("form", ["scalar", "real", "complex"])
def test_factored_transform_matches_sinc_formula(form):
    from mqed.quadrature import gauss_legendre
    from mqed.response import QuadRep, _half_line_transform_exact

    rng = np.random.default_rng(3)
    x, w = gauss_legendre(512, 0.0, 50.0)
    herm = rng.normal(size=(x.size, 3, 3)) + 1j * rng.normal(size=(x.size, 3, 3))
    tensors = {
        "scalar": np.broadcast_to(np.eye(3), herm.shape).astype(complex),
        "real": (herm + np.conj(np.transpose(herm, (0, 2, 1)))).real.astype(complex),
        "complex": herm + np.conj(np.transpose(herm, (0, 2, 1))),
    }[form]
    coeffs = (w * x**2)[:, None, None] * tensors
    rep = QuadRep.from_coeffs(x, coeffs)
    # the identity, the 6 real symmetric and the 9 Hermitian directions
    assert rep.block.shape[1] == {"scalar": 1, "real": 6, "complex": 9}[form]
    special = np.array([0.0, x[7], x[200], x[200] + 1e-9, x[0], x[-1] - 1e-12])
    for t_max in (90.0, 7.5):
        for omega in (special, np.linspace(0.0, 60.0, 1001)):
            ref = _sinc_transform(x, coeffs, t_max, omega)
            got = _half_line_transform_exact(rep, t_max, omega)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _full_mask_transform(rep, t_max, omega):
    """The half-line transform with its near pairs found by a test on the
    whole (omega, omega_n) table, chunked as the package chunks it."""
    import mqed.response
    from mqed.response import _NEAR_PHASE, _seg, block_tensors

    nodes, block = rep.nodes, rep.block
    m = block.shape[1]
    phase_n = nodes * t_max
    stacked = np.concatenate([nodes[:, None] * block, np.sin(phase_n)[:, None] * block,
                              (nodes * np.cos(phase_n))[:, None] * block], axis=1)
    near = _NEAR_PHASE / t_max
    out = np.empty((omega.size, m), dtype=complex)
    rows = max(1, mqed.response._TABLE_ELEMENTS // max(1, nodes.size))
    for start in range(0, omega.size, rows):
        w = omega[start : start + rows]
        inv = np.subtract.outer(w, nodes)
        close_w, close_n = np.nonzero(np.abs(inv) < near)
        inv *= np.add.outer(w, nodes)
        with np.errstate(divide="ignore"):
            np.reciprocal(inv, out=inv)
        inv[close_w, close_n] = 0.0
        g = inv @ stacked
        phase = np.exp(1j * w * t_max)[:, None]
        chunk = phase * (g[:, 2 * m :] - 1j * w[:, None] * g[:, m : 2 * m]) - g[:, :m]
        for lo in range(0, close_w.size, rows):
            cw, cn = close_w[lo : lo + rows], close_n[lo : lo + rows]
            it = (_seg(w[cw] + nodes[cn], t_max) - _seg(w[cw] - nodes[cn], t_max)) / 2.0j
            np.add.at(chunk, cw, it[:, None] * block[cn])
        out[start : start + rows] = chunk
    return block_tensors(out, rep.basis)


@pytest.mark.parametrize("m", [1, 9, 18])
@pytest.mark.parametrize("table", ["default", "many_chunks"])
def test_near_pairs_by_bisection_match_full_mask(monkeypatch, table, m):
    import mqed.response
    from mqed.quadrature import gauss_legendre
    from mqed.response import _NEAR_PHASE, QuadRep, _half_line_transform_exact

    x, w = gauss_legendre(384, 0.0, 50.0)
    rng = np.random.default_rng(m)
    basis = rng.normal(size=(m, 9)) + 1j * rng.normal(size=(m, 9))
    rep = QuadRep(nodes=x, block=w[:, None] * rng.normal(size=(x.size, m)), basis=basis)
    if table == "many_chunks":  # 7 omega rows per chunk
        monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 7 * x.size + 5)
    special = np.array([0.0, x[0], x[7], x[200], x[-1], x[-1] + 0.3, 60.0])
    omega = np.concatenate([special, np.linspace(0.0, 60.0, 501)])
    for t_max in (90.0, 7.5, 0.3):
        if t_max == 0.3:  # dozens of near pairs per omega
            count = np.sum(np.abs(np.subtract.outer(omega, x)) < _NEAR_PHASE / t_max, axis=1)
            assert np.median(count[omega <= x[-1]]) >= 24
        got = _half_line_transform_exact(rep, t_max, omega)
        assert np.array_equal(got, _full_mask_transform(rep, t_max, omega))


def test_half_line_transform_rejects_unsorted_nodes():
    from mqed.errors import ValidationError
    from mqed.quadrature import gauss_legendre
    from mqed.response import QuadRep, _half_line_transform_exact

    x, w = gauss_legendre(64, 0.0, 50.0)
    order = np.random.default_rng(2).permutation(x.size)
    rep = QuadRep.from_coeffs(x[order], w[order, None, None] * np.eye(3))
    with pytest.raises(ValidationError):
        _half_line_transform_exact(rep, 90.0, np.linspace(0.0, 10.0, 11))


def test_tensor_block_round_trip():
    from mqed.response import block_tensors, tensor_block

    # more rows than columns, so the general tensors span their whole space
    # and keep the unit basis
    rng = np.random.default_rng(5)
    cases = [
        (2.5 * np.eye(3)[None].repeat(40, axis=0).astype(complex), 1),
        (rng.normal(size=(40, 3, 3)).astype(complex), 9),
        (rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3)), 18),
    ]
    for tensors, m in cases:
        block, basis = tensor_block(tensors)
        assert block.shape == (40, m) and block.dtype == float and basis.shape == (m, 9)
        assert np.array_equal(block_tensors(block, basis), tensors)


def _row_norms(x):
    """Frobenius norm of each (3, 3) tensor, free of underflow."""
    flat = np.asarray(x).reshape(-1, 9)
    flat = np.concatenate([flat.real, flat.imag], axis=1)
    scale = np.max(np.abs(flat), axis=1, initial=0.0)
    safe = np.where(scale > 0.0, scale, 1.0)
    return np.linalg.norm(flat / safe[:, None], axis=1) * scale


def _symmetric(rng, n):
    a = rng.normal(size=(n, 3, 3))
    return a + np.transpose(a, (0, 2, 1))


def _hermitian(rng, n):
    a = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    return a + np.conj(np.transpose(a, (0, 2, 1)))


_SPECTRAL = np.linspace(0.01, 6.0, 200)
_AXES = np.diag([1.0, 0.49, 0.16])
_FACTOR_CASES = {
    # name: (tensors, columns, exact)
    "identity": (lambda rng: np.exp(-_SPECTRAL)[:, None, None] * np.eye(3), 1, True),
    "scalar_times_diag": (lambda rng: (_SPECTRAL**4 * np.exp(-_SPECTRAL**2))[:, None, None]
                          * _AXES, 1, False),
    "two_profiles": (lambda rng: np.sin(_SPECTRAL)[:, None, None] * _AXES
                     + np.exp(-_SPECTRAL)[:, None, None] * np.eye(3), 2, False),
    "real_symmetric": (lambda rng: _symmetric(rng, 200), 6, False),
    "hermitian": (lambda rng: _hermitian(rng, 200), 9, False),
    "real_general": (lambda rng: rng.normal(size=(200, 3, 3)), 9, True),
    "complex_general": (lambda rng: rng.normal(size=(200, 3, 3))
                        + 1j * rng.normal(size=(200, 3, 3)), 18, True),
    "tiny_rows": (lambda rng: 1e-300 * _symmetric(rng, 200), 6, False),
    "zero_rows": (lambda rng: np.concatenate([np.zeros((50, 3, 3)), _hermitian(rng, 150)]),
                  9, False),
    "mixed_scales": (lambda rng: np.geomspace(1.0, 1e-290, 200)[:, None, None]
                     * _hermitian(rng, 200), 9, False),
    "empty": (lambda rng: np.zeros((0, 3, 3)), 1, True),
}


@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_tensor_block_fewest_columns(case):
    from mqed.response import block_tensors, tensor_block

    make, columns, exact = _FACTOR_CASES[case]
    tensors = np.asarray(make(np.random.default_rng(17)), dtype=complex)
    block, basis = tensor_block(tensors)
    assert block.shape == (tensors.shape[0], columns) and block.dtype == float
    assert basis.shape == (columns, 9) and basis.dtype == complex
    back = block_tensors(block, basis)
    assert back.shape == tensors.shape
    if exact:
        assert np.array_equal(back, tensors)
    assert np.all(_row_norms(back - tensors) <= 1e-14 * _row_norms(tensors))


def test_tensor_block_keeps_one_column_through_an_underflowing_tail():
    # s(omega)^2 diag(a^2) whose profile underflows to subnormal and zero
    # rows: those carry fewer digits than 1e-14 of themselves, and are held
    # to the smallest normal double instead
    from mqed.response import block_tensors, tensor_block

    omega = np.linspace(0.0, 50.0, 4000)
    profile = (omega * np.exp(-(omega**2) / 2.0)) ** 2
    assert np.any((profile > 0.0) & (profile < np.finfo(float).tiny))
    tensors = (profile[:, None, None] * _AXES).astype(complex)
    block, basis = tensor_block(tensors)
    assert block.shape == (omega.size, 1)
    error = _row_norms(block_tensors(block, basis) - tensors)
    assert np.all(error <= np.maximum(1e-14 * _row_norms(tensors), np.finfo(float).tiny))


def test_factored_and_unit_basis_reps_agree_in_every_consumer():
    from mqed.noise import _oscillator_responses
    from mqed.quadrature import gauss_legendre
    from mqed.response import QuadRep, _half_line_transform_exact, block_tensors

    x, w = gauss_legendre(384, 0.0, 40.0)
    rng = np.random.default_rng(23)
    fixed = _hermitian(rng, 1)[0]
    coeffs = (w * x**2)[:, None, None] * (
        np.exp(-x)[:, None, None] * _AXES + (x**2 * np.exp(-0.5 * x**2))[:, None, None] * fixed
    )
    factored = QuadRep.from_coeffs(x, coeffs)
    assert factored.block.shape[1] == 2
    flat = coeffs.reshape(-1, 9)
    unit = QuadRep(nodes=x, block=np.concatenate([flat.real, flat.imag], axis=1),
                   basis=np.concatenate([np.eye(9), 1j * np.eye(9)]))

    def close(a, b):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    t = np.linspace(0.0, 12.0, 1201)
    close(factored.kernel_values(t), unit.kernel_values(t))
    omega = np.linspace(0.0, 30.0, 301)
    close(_half_line_transform_exact(factored, 12.0, omega),
          _half_line_transform_exact(unit, 12.0, omega))
    drive = np.exp(-(((t - 3.0) / 0.5) ** 2))
    close(*(block_tensors(_oscillator_responses(x, drive, t, rep.block), rep.basis)
            for rep in (factored, unit)))
    rho = rng.uniform(0.1, 3.0, 7) + 1j * rng.uniform(-5.0, 5.0, 7)
    mat = x / (rho[:, None] ** 2 + x**2)
    close(factored.contract(mat), unit.contract(mat))


def _bundled(name):
    from pathlib import Path

    from mqed.scenario import parse_scenario

    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    return parse_scenario(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["lorentz", "gaussian", "conductor"])
def test_bundled_media_hold_one_coefficient_column(pin_order, name):
    # every part of a bundled medium has coefficients s(omega) times one
    # fixed tensor, so each representation of it, at every order its
    # configuration allows, contracts a single column
    from mqed.response import _converged_rep

    config = _bundled(name)
    quad = config.quadrature()
    models = [m for m in (config.model(part) for part in
                          ("electric", "magnetic", "conductor")) if not m.is_zero]
    assert len(models) == {"lorentz": 2, "gaussian": 1, "conductor": 2}[name]
    for model in models:
        for k in config.k_list():
            for order in quad.orders():
                pin_order(order)
                rep, _, result = _converged_rep(model, k, quad, 1.0, lambda rep: rep.nodes)
                assert rep.block.shape == (result.kept, 1), (model, order)
            if model.even_entire_density:
                # and so does its kernel's trapezoid rule
                kernel = chi_kernel(model, k, np.linspace(0.0, 8.0, 81), quad=quad)
                assert kernel.quad.rule == "trapezoid"
                assert kernel.rep.block.shape == (kernel.quad.kept, 1), model


def test_gaussian_representations_keep_only_the_nodes_that_carry_weight():
    # gaussian.cfg's omega^2 f f^dag underflows to 0 past omega ~ 27 and
    # falls below 1e-16 of its weight by omega ~ 6.5, so its kernel keeps
    # 634 of the trapezoid rule's 4,880 nodes on [0, 50] and its Laplace
    # representation 120 of 512; the dropped norms bound the kernel's move
    from mqed.quadrature import gauss_legendre
    from mqed.response import _KERNEL_TAIL, _PRUNE_RTOL, QuadRep

    config = _bundled("gaussian")
    model, k, quad = config.model("electric"), config.k_list()[0], config.quadrature()
    t = np.linspace(0.0, model.suggested_t_max(_KERNEL_TAIL), 2200)
    kernel = chi_kernel(model, k, t, quad=quad)
    assert (kernel.quad.rule, kernel.quad.order) == ("trapezoid", 4880)
    assert kernel.quad.kept == kernel.rep.nodes.size <= 700
    assert np.all(np.diff(kernel.rep.nodes) > 0.0)
    # the whole rule, nodes n h and trapezoid weights
    n = kernel.quad.order
    h = kernel.quad.cutoff / n
    x = np.arange(1, n + 1) * h
    w = np.append(np.full(n - 1, h), 0.5 * h)
    coeffs = (w * KERNEL_PREFACTOR * x**2)[:, None, None] * \
        coupling_product(model, x, k)
    kept = np.isin(x, kernel.rep.nodes)
    assert kept.sum() == kernel.quad.kept
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    assert norms[~kept].sum() <= _PRUNE_RTOL * norms.sum()
    # dropping moves the kernel by at most the dropped norms, 1.3e-16 of its
    # peak here; the rest is the sums' rounding, which moves the whole rule
    # by 2.0e-15 of its peak when its nodes are summed in reverse order
    full = QuadRep.from_coeffs(x, coeffs).kernel_values(t)
    peak = np.max(np.abs(full))
    assert norms[~kept].sum() <= 2e-16 * peak
    assert np.max(np.abs(kernel.values - full)) <= 2e-15 * peak

    response = laplace_response(model, config.model("magnetic"), quad=quad)
    rep = response.laplace_rep(model, k)
    assert rep.nodes.size <= 130
    assert np.all(np.isin(rep.nodes, gauss_legendre(512, 0.0, kernel.quad.cutoff)[0]))
    # one build per |k|: -k and Rk, R = diag(-1, -1, 1), read the same one
    for other in (-k, np.diag([-1.0, -1.0, 1.0]) @ k):
        assert response.laplace_rep(model, other) is rep


@pytest.mark.parametrize("name", ["lorentz", "conductor"])
def test_rational_representations_keep_every_node(name):
    # a Lorentz or Drude density falls only algebraically, so no node of
    # its rule is below 1e-16 of the rule's weight: nothing is dropped
    config = _bundled(name)
    quad = config.quadrature()
    bound, free = config.model("electric"), config.model("conductor")
    models = [m for m in (bound, config.model("magnetic"), free) if not m.is_zero]
    assert len(models) == 2
    t = np.linspace(0.0, 8.0, 81)
    for model in models:
        for k in config.k_list():
            kernel = chi_kernel(model, k, t, quad=quad)
            assert kernel.quad.kept == kernel.quad.order == kernel.rep.nodes.size, model
    for model in (bound, free) if not free.is_zero else ():
        q = conductor_Q(model, config.k_list()[0], t, quad=quad).quad
        assert q.kept == q.order


@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_representation_without_nodes_reads_exact_zeros(grid):
    # a representation may hold no node; its kernel values are then exact
    # zeros on either kind of grid, never the contents of an unfilled buffer
    # (a freed table of 8.0 is left on the heap first, where such a buffer
    # would be allocated)
    from mqed.response import QuadRep

    rep = QuadRep.from_coeffs(np.empty(0), np.empty((0, 3, 3)))
    t = np.linspace(0.0, 8.0, 1601)
    if grid == "nonuniform":
        t = 8.0 * (t / 8.0) ** 2
    for _ in range(3):
        stale = np.full((t.size, 3, 3), 8.0 + 8.0j)
        del stale
        values = rep.kernel_values(t)
        assert values.shape == (t.size, 3, 3)
        assert not np.any(values)


def test_zero_part_builds_no_rule(monkeypatch):
    # every c_n of a zero part is 0: it builds no Gauss-Legendre rule, its
    # representation has no nodes, its record names no rule, and its kernel
    # and spectrum are +0 in every real and imaginary part
    import mqed.quadrature

    orders = []
    build = mqed.quadrature._legendre_cache
    monkeypatch.setattr(mqed.quadrature, "_legendre_cache",
                        lambda order: orders.append(order) or build(order))
    config = _bundled("gaussian")
    model = config.model("magnetic")
    assert model.is_zero
    kernel = chi_kernel(model, config.k_list()[0], np.linspace(0.0, 8.0, 1601),
                        quad=config.quadrature())
    spectrum = chi_spectrum(kernel, np.linspace(0.0, 6.0, 201))
    assert orders == []
    assert kernel.rep.nodes.size == 0
    record = kernel.quad.metadata()
    assert record["order"] == record["kept"] == 0 and "rule" not in record
    for values in (kernel.values, spectrum.values):
        parts = values.view(float)
        assert values.shape[1:] == (3, 3) and not np.any(parts) and not np.any(np.signbit(parts))
    assert kernel.values.shape[0] == 1601 and spectrum.values.shape[0] == 201


@pytest.mark.parametrize("grid", ["horizon", "config"])
def test_gaussian_trapezoid_kernel_matches_order_8192(pin_order, grid):
    # gaussian.cfg's kernel on the run's 2,200-point horizon grid and on the
    # config's own t_max = 8 grid: the trapezoid rule of alias time t_max
    # plus the horizon agrees with the order-8192 Gauss-Legendre kernel to
    # 1e-10 of its peak, and its midpoint estimate reads that difference
    from mqed.response import _KERNEL_TAIL, KERNEL_PREFACTOR, _converged_rep

    config = _bundled("gaussian")
    model, k, quad = config.model("electric"), config.k_list()[0], config.quadrature()
    horizon = model.suggested_t_max(_KERNEL_TAIL)
    if grid == "horizon":
        t = np.linspace(0.0, horizon, 2200)
    else:
        t = np.linspace(0.0, config.grids["t_max"], int(config.grids["n_t"]))
    kernel = chi_kernel(model, k, t, quad=quad)
    assert kernel.quad.rule == "trapezoid"
    assert kernel.quad.order == int(np.ceil((t[-1] + horizon) * 50.0 / (2.0 * np.pi)))
    assert kernel.quad.alias_time >= t[-1] + horizon
    pin_order(8192)
    pref = KERNEL_PREFACTOR
    _, ref, _ = _converged_rep(model, k, quad, pref, lambda rep: rep.kernel_values(t))
    diff = np.max(np.abs(kernel.values - ref)) / np.max(np.abs(ref))
    assert diff <= 1e-10
    assert 0.5 * diff <= kernel.quad.est_rel_error <= 2.0 * diff


def test_gaussian_trapezoid_rule_with_a_short_margin_raises(monkeypatch):
    # an alias time only the horizon of 1e-2 beyond t_max leaves aliases on
    # the grid far above rtol (the midpoint estimate reads 6.9e-4)
    import mqed.response

    model = gaussian_anisotropic([1.0, 0.7, 0.4], 1.0, 0.8)
    t = np.linspace(0.0, model.suggested_t_max(1e-11), 2200)
    monkeypatch.setattr(mqed.response, "_KERNEL_TAIL", 1e-2)
    with pytest.raises(QuadratureNotConverged, match="N = 2517 off by"):
        chi_kernel(model, K, t)


def test_gaussian_trapezoid_rule_over_budget_raises_before_evaluating(monkeypatch):
    # quad_max_order = 256 leaves the doubling loop 256 nodes, fewer than the
    # two rules' 2 x 4880: the rule is refused before any coupling is read
    import mqed.response

    calls = []
    monkeypatch.setattr(mqed.response, "coupling_product",
                        lambda *args: calls.append(args) or coupling_product(*args))
    model = gaussian_anisotropic([1.0, 0.7, 0.4], 1.0, 0.8)
    t = np.linspace(0.0, model.suggested_t_max(1e-11), 2200)
    with pytest.raises(QuadratureNotConverged, match="N = 4880"):
        chi_kernel(model, K, t, quad=QuadratureSpec(max_order=256))
    assert calls == []


def _row_loop_table_product(t, nodes, sin_block, cos_block):
    """sin(t omega_n) @ sin_block + cos(t omega_n) @ cos_block, one grid row
    at a time, a None block dropped."""
    pairs = [(fn, b) for fn, b in ((np.sin, sin_block), (np.cos, cos_block)) if b is not None]
    return np.stack([sum(fn(ti * nodes) @ b for fn, b in pairs) for ti in t])


@pytest.mark.parametrize("fn", ["sin", "cos", "both"])
@pytest.mark.parametrize("m", [1, 9, 18])
@pytest.mark.parametrize("n_t", [2, 17, 81, 2200, 10001])
def test_angle_addition_table_matches_row_loop(monkeypatch, fn, m, n_t):
    # "sin" is the kernel values' form, "cos" that of Q, and "both" that of
    # the oscillator ladder's impulse responses
    import mqed.response
    from mqed.quadrature import gauss_legendre
    from mqed.response import _angle_table, uniform_step

    rng = np.random.default_rng(n_t + m)
    x, w = gauss_legendre(384, 0.0, 50.0)
    block = w[:, None] * rng.normal(size=(x.size, m))
    other = w[:, None] * rng.normal(size=(x.size, m))
    blocks = {"sin": (block, None), "cos": (None, block), "both": (block, other)}[fn]
    # R = ceil(sqrt(n_t)) rows per group: n_t 17, 2200 and 10001 leave a
    # short last group; 3 groups per column chunk leaves a short last chunk
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 3 * x.size * m + 1)
    grids = [np.linspace(0.0, 90.0, n_t), np.linspace(2.5, 90.0, n_t)]
    for t in grids:
        assert uniform_step(t) is not None
    if n_t > 2:
        grids.append(np.linspace(0.0, 9.5, n_t) ** 2)  # non-uniform: the row loop
        assert uniform_step(grids[-1]) is None
    for t in grids:
        ref = _row_loop_table_product(t, x, *blocks)
        got = _angle_table(t, x, *blocks)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_angle_table_at_order_32768_matches_one_node_chunk(monkeypatch):
    # the round trip's 3,001 points at the order a width-0.05 Lorentz line
    # needs: its (R, n) tables are 1.8 M elements, four node chunks of the
    # budget, whose GEMM partials are summed
    import mqed.response
    from mqed.quadrature import gauss_legendre
    from mqed.response import _angle_table, _chunks

    t = np.linspace(0.0, 20.0, 3001)
    x, w = gauss_legendre(32768, 0.0, 30.0)
    rng = np.random.default_rng(32768)
    sin_block, cos_block = (w[:, None] * rng.normal(size=(x.size, 2)) for _ in range(2))
    assert len(_chunks(x.size, 55)) == 4
    got = _angle_table(t, x, sin_block, cos_block)
    monkeypatch.setattr(mqed.response, "_TABLE_ELEMENTS", 1 << 21)
    assert len(_chunks(x.size, 55)) == 1
    ref = _angle_table(t, x, sin_block, cos_block)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_uniform_step_detection():
    from mqed.response import uniform_step

    t = np.linspace(0.0, 8.0, 1601)
    assert uniform_step(t) == pytest.approx(8.0 / 1600, rel=1e-15)
    bumped = t.copy()
    bumped[700] += 1e-12
    assert uniform_step(bumped) is None
    assert uniform_step(t[::-1]) is None
    assert uniform_step(t[:1]) is None


def _count_builds(monkeypatch):
    import mqed.response

    calls = []
    original = mqed.response.adaptive_nodes

    def counting(spec, cutoff, evaluate):
        calls.append(cutoff)
        return original(spec, cutoff, evaluate)

    monkeypatch.setattr(mqed.response, "adaptive_nodes", counting)
    return calls


def test_chi_kernel_builds_on_every_call(monkeypatch):
    calls = _count_builds(monkeypatch)
    model = lorentz_isotropic(WP, W0, G)
    t = np.linspace(0.0, 30.0, 300)
    a = chi_kernel(model, K, t)
    b = chi_kernel(model, K, t)
    assert len(calls) == 2
    assert a.rep is not b.rep
    assert np.array_equal(a.values, b.values)


def _laplace_chi_hat(rep, rho=0.8):
    """chi_hat at rho from a Laplace representation."""
    return rep.contract((rep.nodes / (rho**2 + rep.nodes**2))[None, :])[0]


def test_laplace_cache_keyed_by_value():
    # one response asked about 20 models that are built and dropped in turn:
    # a cache keyed by object identity hands a dropped model's chi_hat to the
    # next model allocated at its address
    strengths = [(1.0 + 0.05 * i, 0.7, 0.4) for i in range(20)]
    expected = [
        _laplace_chi_hat(laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
                         .laplace_rep(gaussian_anisotropic(s, 1.0), K))
        for s in strengths
    ]
    resp = laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
    got = [_laplace_chi_hat(resp.laplace_rep(gaussian_anisotropic(s, 1.0), K))
           for s in strengths]
    stale = [i for i, (a, b) in enumerate(zip(got, expected)) if not np.array_equal(a, b)]
    assert not stale
    assert len(resp._rep_cache) == len(strengths)


def test_laplace_cache_distinguishes_table_contents():
    from mqed.couplings import TabulatedTable, eval_coupling_batch, tabulated

    omegas = np.linspace(0.0, 20.0, 401)
    kmags = np.array([0.1, 5.0])
    vals = eval_coupling_batch(lorentz_isotropic(WP, W0, G), omegas, K)

    def model(scale):
        values = np.repeat(scale * vals[:, None], 2, axis=1)
        return tabulated(TabulatedTable(omegas=omegas.copy(), kmags=kmags.copy(), values=values))

    resp = laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
    one = _laplace_chi_hat(resp.laplace_rep(model(1.0), K))
    two = _laplace_chi_hat(resp.laplace_rep(model(2.0), K))
    assert two[0, 0].real == pytest.approx(4.0 * one[0, 0].real, rel=1e-9)
    assert len(resp._rep_cache) == 2
