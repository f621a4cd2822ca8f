import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mqed
from mqed.errors import QuadratureNotConverged, ValidationError
from mqed.quadrature import QuadratureSpec, _legendre_cache, gauss_legendre, refine


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
            # next to x = 1 too: the weight takes 1 - x^2 at the unrounded node
            assert float(abs(w[i] - ref) / ref) <= 1e-13, i


def _family(values, drawn):
    """Levels of j + 1 points whose value is values[j]; `drawn` lists each
    level's index as the driver draws it."""
    for j, value in enumerate(values):
        drawn.append(j)
        yield j + 1, np.array([float(value)]), np.ones(1)


def _move(prev, value):
    return float(abs(value - prev)[0])


def _take(nodes, weights):
    return nodes * weights


def test_refine_stops_at_the_first_level_within_rtol_and_draws_no_further():
    drawn = []
    value, result = refine(_family([1.0, 2.0, 2.5, 2.501, 2.50101, 9.0], drawn), _take, 2e-3,
                           "demo", 4.0, _move, scale=2.0)
    assert value[0] == 2.501 and drawn == [0, 1, 2, 3]
    assert (result.order, result.cutoff, result.rtol, result.rule, result.scale) == \
        (4, 4.0, 2e-3, "demo", 2.0)
    # every level with an estimate, the accepted one last
    assert [n for n, _ in result.tried] == [2, 3, 4]
    assert [est for _, est in result.tried] == pytest.approx([1.0, 0.5, 1e-3], rel=1e-9)
    assert result.est_rel_error == result.tried[-1][1]
    assert result.metadata()["tried"] == result.tried and result.metadata()["scale"] == 2.0


def test_refine_reads_the_estimate_from_the_given_deviation():
    pairs = []

    def deviation(prev, value):
        pairs.append((prev[0], value[0]))
        return 0.25 if len(pairs) < 3 else 0.125

    drawn = []
    value, result = refine(_family([1.0, 2.0, 3.0, 4.0, 5.0], drawn), _take, 0.2, "demo", 1.0,
                           deviation)
    assert pairs == [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
    assert value[0] == 4.0 and result.est_rel_error == 0.125 and drawn == [0, 1, 2, 3]
    assert result.tried == ((2, 0.25), (3, 0.25), (4, 0.125))


def test_refine_at_its_last_level_raises_the_one_text():
    drawn = []
    with pytest.raises(QuadratureNotConverged) as info:
        refine(_family([1.0, 2.0, 4.0], drawn), _take, 0.5, "demo", 3.0, _move, scale=0.5)
    assert str(info.value) == \
        "demo on [0, 3], scale 0.5: no level within rtol 0.5; tried 2 points: 1, 3 points: 2"
    assert drawn == [0, 1, 2]


@pytest.mark.parametrize("values", [[], [1.0]])
def test_refine_with_fewer_than_two_levels_has_no_estimate(values):
    with pytest.raises(QuadratureNotConverged, match="no estimate"):
        refine(_family(values, []), _take, 1.0, "demo", 1.0, _move)


def test_adaptive_nodes_builds_no_rule_after_the_accepted_order(monkeypatch):
    import mqed.quadrature as quadrature

    built = []
    rule = quadrature.gauss_legendre
    monkeypatch.setattr(quadrature, "gauss_legendre",
                        lambda order, a, b: built.append(order) or rule(order, a, b))
    spec = QuadratureSpec(rtol=1e-12, start_order=8, max_order=64)
    value, result = quadrature.adaptive_nodes(spec, 1.0, lambda x, w: np.array([w @ np.cos(x)]))
    assert value[0] == pytest.approx(np.sin(1.0), rel=1e-15)
    assert built == [8, 16] and result.order == 16 and result.tried[-1][0] == 16


def test_trapezoid_estimate_is_half_the_move_from_its_midpoint_twin():
    import mqed.quadrature as quadrature

    got = []

    def evaluate(x, w):
        got.append(np.array([w @ (x * np.exp(-x * x))]))
        return got[-1]

    value, result = quadrature.trapezoid_nodes(QuadratureSpec(rtol=1e-2), 6.0, evaluate,
                                               alias_time=20.0 * np.pi)
    twin, kept = got
    assert value is kept and (result.rule, result.order) == ("trapezoid", 60)
    assert result.alias_time == pytest.approx(20.0 * np.pi, rel=1e-15)
    assert result.tried == ((60, result.est_rel_error),)
    assert result.est_rel_error == abs(kept - twin)[0] / (2.0 * abs(kept)[0])


@pytest.mark.parametrize("spec", [
    dict(start_order=512, max_order=256), dict(start_order=0), dict(start_order=-4),
    dict(rtol=-1.0), dict(rtol=0.0), dict(rtol=float("nan")), dict(cutoff_factor=0.0),
    dict(cutoff_factor=-50.0),
])
def test_quadrature_spec_rejects_an_empty_or_unbounded_rule(spec):
    with pytest.raises(ValidationError):
        QuadratureSpec(**spec)


def test_quadrature_spec_orders_double_up_to_the_cap():
    assert QuadratureSpec().orders() == [256, 512, 1024, 2048, 4096, 8192]
    assert QuadratureSpec(rtol=1e-12, start_order=8, max_order=64).orders() == [8, 16, 32, 64]
    assert QuadratureSpec(start_order=3, max_order=13).orders() == [3, 6, 12]
    assert QuadratureSpec(start_order=256, max_order=511).orders() == [256]
