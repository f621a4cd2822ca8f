import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mqed
from mqed.errors import ValidationError
from mqed.quadrature import _legendre_cache, gauss_legendre


@pytest.mark.parametrize("n", range(1, 41))
def test_rule_exact_on_even_powers(n):
    x, w = _legendre_cache(n)
    for m in range(n):  # x^(2m) up to degree 2n - 2; odd degrees vanish by symmetry
        assert abs(w @ x ** (2 * m) - 2.0 / (2 * m + 1)) <= 4e-15, m


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 96, 511, 1024, 8192])
def test_rule_symmetric_sorted_with_weight_sum_two(n):
    x, w = _legendre_cache(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.all(np.abs(x) < 1.0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(w > 0.0)
    assert abs(w.sum() - 2.0) <= 2e-14


@pytest.mark.parametrize("n", [512, 8192])
def test_high_order_rule_integrates_smooth_functions(n):
    x, w = _legendre_cache(n)
    assert abs(w @ np.exp(x) - (np.e - 1.0 / np.e)) <= 2e-14
    assert abs(w @ np.cos(40.0 * x) - np.sin(40.0) / 20.0) <= 2e-14
    # the 2n - 1 moment just inside exactness, weighted towards x = +-1
    assert abs(w @ x ** (2 * n - 2) - 2.0 / (2 * n - 1)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 16, 96, 512, 1024])
def test_rule_agrees_with_scipy(n):
    special = pytest.importorskip("scipy.special")
    x_ref, w_ref = special.roots_legendre(n)
    x, w = _legendre_cache(n)
    assert np.max(np.abs(x - x_ref)) <= 4e-16
    # scipy's own weights drift by ~1e-9 relative at n = 1024
    assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-8


@pytest.mark.parametrize("n", [64, 200])
def test_weights_match_extended_precision_reference(n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x, w = _legendre_cache(n)
    worst = 0.0
    for i in range(n // 2, n):
        # Newton on the recurrence in 30 digits from the returned node
        r = mpmath.mpf(x[i])
        for _ in range(3):
            p0, p1 = mpmath.mpf(1), r
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * r * p1 - j * p0) / (j + 1)
            dp = n * (r * p1 - p0) / (r * r - 1)
            r -= p1 / dp
        ref = 2 / ((1 - r * r) * dp * dp)
        worst = max(worst, float(abs(w[i] - ref) / ref))
    assert worst <= 3e-13


@pytest.mark.parametrize("order", [0, -3])
def test_order_below_one_rejected(order):
    with pytest.raises(ValidationError):
        gauss_legendre(order, 0.0, 1.0)


def test_package_imports_no_scipy():
    src = str(Path(mqed.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, mqed\n"
        "from mqed.quadrature import gauss_legendre\n"
        "x, w = gauss_legendre(8, 0.0, 1.0)\n"
        "assert abs(w.sum() - 1.0) < 1e-15\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@pytest.mark.parametrize("n", [4096, 8192])
def test_large_rule_takes_one_newton_pass(monkeypatch, n):
    import mqed.quadrature as quadrature

    sizes = []
    pair = quadrature._legendre_pair

    def counted(order, x):
        sizes.append(x.size)
        return pair(order, x)

    monkeypatch.setattr(quadrature, "_legendre_pair", counted)
    quadrature._legendre_cache.__wrapped__(n)
    assert sizes == [n // 2]


def test_rule_8192_matches_40_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    n = 8192
    x, w = _legendre_cache(n)
    # the 8 nodes nearest 1 and 3 interior ones; the Newton stop is absolute
    # (1e-15), so the nodes next to 0 are not held to a relative ulp
    near_one = list(range(n - 8, n))
    picks = near_one + [5 * n // 8, 3 * n // 4, 7 * n // 8]
    with mpmath.workdps(40):
        roots = [mpmath.mpf(x[i]) for i in picks]
        for _ in range(2):  # Newton on the recurrence from the returned nodes
            p_prev, p_cur = [mpmath.mpf(1)] * len(roots), list(roots)
            for j in range(1, n):
                a, b = mpmath.mpf(2 * j + 1) / (j + 1), mpmath.mpf(j) / (j + 1)
                p_prev, p_cur = p_cur, [a * r * p1 - b * p0
                                        for r, p0, p1 in zip(roots, p_prev, p_cur)]
            dp = [n * (r * p1 - p0) / (r * r - 1) for r, p0, p1 in zip(roots, p_prev, p_cur)]
            roots = [r - p1 / d for r, p1, d in zip(roots, p_cur, dp)]
        for i, r, d in zip(picks, roots, dp):
            assert float(abs(mpmath.mpf(x[i]) - r)) <= np.spacing(x[i]), i
            ref = 2 / ((1 - r * r) * d * d)
            # the weights next to x = 1 inherit the rounding of x there
            tol = 2e-9 if i in near_one else 1e-13
            assert float(abs(w[i] - ref) / ref) <= tol, i
