import numpy as np
import pytest

from mqed.couplings import drude, gaussian_anisotropic, lorentz_isotropic, zero_coupling
from mqed.errors import GridTooCoarse, LeftHalfPlane, TailNotDecayed
from mqed.quadrature import QuadratureSpec
from mqed.response import (
    ResponseSpectrum,
    chi_kernel,
    chi_spectrum,
    conductor_Q,
    kk_check,
    laplace_response,
)

K = np.array([0.3, -0.2, 0.9])
WP, W0, G = 1.3, 1.0, 0.5


def lorentz_kernel_exact(t):
    wt = np.sqrt(W0**2 - G**2 / 4.0)
    return WP**2 * np.exp(-G * t / 2.0) * np.sin(wt * t) / wt


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
    # closed-form oracle; the frequency cutoff is pushed high enough that
    # truncation sits below the 1e-6 target
    t = np.linspace(0.0, 40.0, 900)
    kernel = chi_kernel(
        lorentz_isotropic(WP, W0, G), K, t,
        quad=QuadratureSpec(rtol=1e-10, cutoff=200.0, start_order=1024, max_order=16384),
    )
    exact = lorentz_kernel_exact(t)
    err = np.max(np.abs(kernel.values[:, 0, 0].real - exact)) / np.max(np.abs(exact))
    assert err < 1e-6
    assert np.max(np.abs(kernel.values.imag)) < 1e-12


def test_drude_kernel_closed_form():
    s, g = 1.1, 0.5
    t = np.linspace(0.0, 40.0, 800)
    kernel = chi_kernel(drude(s, g), K, t, quad=QuadratureSpec(rtol=1e-9, cutoff=200.0))
    exact = (s**2 / g) * (1.0 - np.exp(-g * t))
    assert np.max(np.abs(kernel.values[:, 0, 0].real - exact)) / np.max(exact) < 1e-5


def test_spectrum_zero_kernel():
    t = np.linspace(0.0, 5.0, 50)
    spectrum = chi_spectrum(chi_kernel(zero_coupling(), K, t), np.linspace(0.0, 3.0, 7))
    assert np.allclose(spectrum.values, 0.0)


def test_spectrum_matches_lorentzian(lorentz_kernel):
    omega = np.linspace(0.05, 5.0, 180)
    spectrum = chi_spectrum(lorentz_kernel, omega)
    exact = WP**2 / (W0**2 - omega**2 - 1j * G * omega)
    err = np.max(np.abs(spectrum.values[:, 0, 0] - exact)) / np.max(np.abs(exact))
    assert err < 1e-5


def test_spectrum_drude_plateau_counterterm():
    s, g = 1.1, 0.5
    t = np.linspace(0.0, 45.0, 900)
    kernel = chi_kernel(drude(s, g), K, t, quad=QuadratureSpec(rtol=1e-9))
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
    t = np.linspace(0.0, 3.0, 80)  # far too short for gamma = 0.5
    kernel = chi_kernel(lorentz_isotropic(WP, W0, G), K, t)
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
    resp = laplace_response(model_tab, zero_coupling("magnetic"),
                            quad=QuadratureSpec(rtol=1e-8, cutoff=120.0))
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
    report = conductor_Q(drude(1.1, 0.5), K, t, quad=QuadratureSpec(rtol=1e-9, cutoff=400.0))
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
        spectrum = chi_spectrum(chi_kernel(model, K, t, quad=QuadratureSpec(rtol=1e-9)), omega)
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
    spectrum = chi_spectrum(chi_kernel(model, K, t, quad=QuadratureSpec(rtol=1e-9)), omega)
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
    assert rep.block.shape[1] == {"scalar": 1, "real": 9, "complex": 18}[form]
    special = np.array([0.0, x[7], x[200], x[200] + 1e-9, x[0], x[-1] - 1e-12])
    for t_max in (90.0, 7.5):
        for omega in (special, np.linspace(0.0, 60.0, 1001)):
            ref = _sinc_transform(x, coeffs, t_max, omega)
            got = _half_line_transform_exact(rep, t_max, omega)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_tensor_block_round_trip():
    from mqed.response import block_tensors, tensor_block

    rng = np.random.default_rng(5)
    cases = [
        (2.5 * np.eye(3)[None].repeat(4, axis=0).astype(complex), 1),
        (rng.normal(size=(4, 3, 3)).astype(complex), 9),
        (rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)), 18),
    ]
    for tensors, m in cases:
        block = tensor_block(tensors)
        assert block.shape == (4, m) and block.dtype == float
        assert np.array_equal(block_tensors(block), tensors)


def _row_loop_table_product(fn, t, nodes, block):
    """fn(t omega_n) @ block, one grid row at a time."""
    return np.stack([fn(ti * nodes) @ block for ti in t])


@pytest.mark.parametrize("fn", [np.sin, np.cos])
@pytest.mark.parametrize("m", [1, 9, 18])
@pytest.mark.parametrize("n_t", [2, 17, 81, 2200, 10001])
def test_angle_addition_table_matches_row_loop(monkeypatch, fn, m, n_t):
    import mqed.response
    from mqed.quadrature import gauss_legendre
    from mqed.response import _time_table_product, uniform_step

    rng = np.random.default_rng(n_t + m)
    x, w = gauss_legendre(384, 0.0, 50.0)
    block = w[:, None] * rng.normal(size=(x.size, m))
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
        ref = _row_loop_table_product(fn, t, x, block)
        got = _time_table_product(fn, t, x, block)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_kernel_store_reuses_longer_horizons_only(monkeypatch):
    from mqed.response import KernelStore

    calls = _count_builds(monkeypatch)
    store = KernelStore()
    model = lorentz_isotropic(WP, W0, G)
    long_t = np.linspace(0.0, 90.0, 1500)
    first = store.kernel(model, K, long_t)
    assert store.kernel(lorentz_isotropic(WP, W0, G), K, long_t) is first
    short_t = np.linspace(0.0, 40.0, 700)
    short = store.kernel(model, K, short_t)
    assert len(calls) == 1
    assert short.rep is first.rep and short.t_grid is not first.t_grid
    direct = chi_kernel(model, K, short_t)
    assert np.max(np.abs(short.values - direct.values)) <= 1e-6 * np.max(np.abs(direct.values))
    # a longer horizon, another k or another quadrature spec builds anew
    store.kernel(model, K, np.linspace(0.0, 120.0, 2000))
    store.kernel(model, -K, short_t)
    store.kernel(model, K, short_t, quad=QuadratureSpec(rtol=1e-9))
    assert len(calls) == 5


def test_kernel_store_evaluates_each_shorter_grid_once(monkeypatch):
    from mqed.response import KernelStore, QuadRep

    store = KernelStore()
    model = lorentz_isotropic(WP, W0, G)
    store.kernel(model, K, np.linspace(0.0, 90.0, 1500))
    evaluations = []
    original = QuadRep.kernel_values

    def counting(rep, t_grid):
        evaluations.append(len(t_grid))
        return original(rep, t_grid)

    monkeypatch.setattr(QuadRep, "kernel_values", counting)
    short = store.kernel(model, K, np.linspace(0.0, 40.0, 700))
    again = store.kernel(lorentz_isotropic(WP, W0, G), K, np.linspace(0.0, 40.0, 700))
    assert evaluations == [700]
    assert again is short
    # another grid of the same horizon is evaluated anew
    store.kernel(model, K, np.linspace(0.0, 40.0, 701))
    assert evaluations == [700, 701]


def test_laplace_cache_keyed_by_value():
    # one response asked about 20 models that are built and dropped in turn:
    # a cache keyed by object identity hands a dropped model's chi_hat to the
    # next model allocated at its address
    strengths = [(1.0 + 0.05 * i, 0.7, 0.4) for i in range(20)]
    expected = [
        laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
        .chi(gaussian_anisotropic(s, 1.0), K, 0.8)
        for s in strengths
    ]
    resp = laplace_response(zero_coupling("electric"), zero_coupling("magnetic"))
    got = [resp.chi(gaussian_anisotropic(s, 1.0), K, 0.8) for s in strengths]
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

    resp = laplace_response(zero_coupling("electric"), zero_coupling("magnetic"),
                            quad=QuadratureSpec(cutoff=20.0))
    one = resp.chi(model(1.0), K, 0.8)
    two = resp.chi(model(2.0), K, 0.8)
    assert two[0, 0].real == pytest.approx(4.0 * one[0, 0].real, rel=1e-9)
    assert np.array_equal(resp.chi(model(1.0), K, 0.8), one)
    assert len(resp._rep_cache) == 2
