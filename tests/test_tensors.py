import numpy as np
import pytest

from mqed import NATURAL, PhysicalConstants
from mqed.errors import NotHermitian, NotPSD, ZeroWaveVector
from mqed.tensors import (
    curl_symbol,
    hermitian_sqrt,
    longitudinal_projector,
    transverse_projector,
    triad,
)


def test_constants_natural_relation():
    assert NATURAL.eps0 * NATURAL.mu0 * NATURAL.c**2 == pytest.approx(1.0, abs=1e-12)


def test_constants_si_relation():
    si = PhysicalConstants.si()
    assert abs(si.eps0 * si.mu0 * si.c**2 - 1.0) < 1e-12


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)


def test_constants_reject_inconsistent():
    with pytest.raises(ValueError):
        PhysicalConstants(c=2.0)


def test_triad_axis_aligned():
    tr = triad([0.0, 0.0, 1.0])
    assert np.allclose(tr.e1, [1.0, 0.0, 0.0])
    assert np.allclose(tr.e2, [0.0, 1.0, 0.0])
    assert np.allclose(tr.s1, [0.0, 1.0, 0.0])
    assert np.allclose(tr.s2, [-1.0, 0.0, 0.0])
    assert np.allclose(tr.e(3), [0.0, 0.0, 1.0])


def test_triad_zero_wavevector():
    with pytest.raises(ZeroWaveVector):
        triad([0.0, 0.0, 0.0])


def test_triad_diagonal_direction_orthonormal():
    tr = triad(np.ones(3) / np.sqrt(3.0))
    for a, b in ((tr.e1, tr.e1), (tr.e2, tr.e2)):
        assert abs(a @ b - 1.0) < 1e-14
    assert abs(tr.e1 @ tr.e2) < 1e-14
    assert abs(tr.e1 @ tr.unit) < 1e-14
    assert abs(tr.e2 @ tr.unit) < 1e-14


def test_triad_completeness_random_sweep():
    # completeness and orthogonality over 10^4 random directions
    rng = np.random.default_rng(42)
    khat = rng.standard_normal((10_000, 3))
    khat /= np.linalg.norm(khat, axis=1)[:, None]
    worst = 0.0
    for k in khat:
        tr = triad(k)
        ee = np.outer(tr.e1, tr.e1) + np.outer(tr.e2, tr.e2) + np.outer(tr.e(3), tr.e(3))
        ss = np.outer(tr.s1, tr.s1) + np.outer(tr.s2, tr.s2) + np.outer(tr.s(3), tr.s(3))
        worst = max(worst, np.max(np.abs(ee - np.eye(3))), np.max(np.abs(ss - np.eye(3))))
        worst = max(worst, abs(tr.e1 @ tr.e2), abs(tr.e1 @ k / np.linalg.norm(k)))
    assert worst < 1e-13


def test_curl_symbol_zero():
    assert np.allclose(curl_symbol([0.0, 0.0, 0.0]), 0.0)


def test_curl_symbol_axis_entries():
    k3 = 2.5
    o = curl_symbol([0.0, 0.0, k3])
    assert o[0, 1] == pytest.approx(-1j * k3)
    assert o[1, 0] == pytest.approx(1j * k3)
    assert np.allclose(o[:2, 2], 0.0) and np.allclose(o[2, :], 0.0)


def test_curl_symbol_cross_product_action():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.max(np.abs(curl_symbol(k) @ v - 1j * np.cross(k, v))) < 1e-15


def test_curl_symbol_symmetries():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = rng.standard_normal(3)
        o = curl_symbol(k)
        assert np.allclose(o.T, -o)
        assert np.allclose(curl_symbol(-k), np.conj(o))
        assert np.allclose(o.conj().T, o)  # hermitian for real k


def test_transverse_projector_axis():
    assert np.allclose(transverse_projector([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]))


def test_transverse_projector_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = rng.standard_normal(3)
        p = transverse_projector(k)
        assert np.max(np.abs(p @ p - p)) < 1e-14
        assert np.max(np.abs(p @ k)) < 1e-14
        assert np.linalg.matrix_rank(p, tol=1e-10) == 2
        assert np.allclose(p + longitudinal_projector(k), np.eye(3))


def test_transverse_projector_zero_wavevector():
    with pytest.raises(ZeroWaveVector):
        transverse_projector([0.0, 0.0, 0.0])


def test_hermitian_sqrt_identity_and_diag():
    assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(hermitian_sqrt(np.diag([4.0, 1.0, 0.0])), np.diag([2.0, 1.0, 0.0]))


def test_hermitian_sqrt_random_psd_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = m @ m.conj().T
        s = hermitian_sqrt(t)
        assert np.max(np.abs(s @ s.conj().T - t)) < 1e-12 * max(1.0, np.max(np.abs(t)))


def test_hermitian_sqrt_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_sqrt(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_hermitian_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        hermitian_sqrt(np.diag([1.0, -0.5, 1.0]))


def test_hermitian_sqrt_clips_tiny_negative():
    s = hermitian_sqrt(np.diag([1.0, -1e-14, 1.0]), tol=1e-12)
    assert np.min(np.linalg.eigvalsh(s)) >= 0.0


def _psd_stack(n, seed=7):
    """n random Hermitian PSD matrices whose magnitudes span 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    return (m @ np.conj(np.transpose(m, (0, 2, 1)))) * np.logspace(-6, 6, n)[:, None, None]


def test_stacked_hermitian_sqrt_is_the_per_matrix_root_bit_for_bit():
    stack = _psd_stack(240)
    assert np.array_equal(hermitian_sqrt(stack), np.stack([hermitian_sqrt(m) for m in stack]))
    assert hermitian_sqrt(stack[:0]).shape == (0, 3, 3)


def test_stacked_hermitian_sqrt_tests_each_matrix_on_its_own_scale():
    # beside a matrix of magnitude 1e6 the unit matrix's eigenvalue -1e-9 is
    # below -tol of its own magnitude, and its 1e-9 asymmetry past tol
    big, small = 1e6 * np.eye(3), np.diag([1.0, -1e-9, 1.0])
    with pytest.raises(NotPSD) as err:
        hermitian_sqrt(np.stack([big, big, small, small]))
    assert err.value.index == (2,)
    skew = np.eye(3) + 1e-9 * np.triu(np.ones((3, 3)), 1)
    with pytest.raises(NotHermitian):
        hermitian_sqrt(np.stack([big, skew]))
    assert hermitian_sqrt(np.diag([1.0, -0.5, 1.0]), tol=1.0).shape == (3, 3)
    with pytest.raises(NotPSD) as err:
        hermitian_sqrt(np.diag([1.0, -0.5, 1.0]))
    assert err.value.index == ()
