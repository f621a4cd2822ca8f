"""Gauss-Legendre and trapezoid rules shared by the kernel, spectrum and
reservoir integrals, and the nested Clenshaw-Curtis rule of the
commutators' reservoir sum.

The nodes of order n are the roots of the Legendre polynomial P_n, found by
Newton's method on P_n and P_{n-1} evaluated by the three-term recurrence
(the recurrence-Newton scheme of Hale & Townsend, SIAM J. Sci. Comput.
35:A652, 2013). Newton starts from the Bessel-type asymptotic
theta_k = a + (cot a - 1/a) / (8 nu^2), a = j_{0,k} / nu, nu = n + 1/2,
with j_{0,k} the zeros of J_0 (a table of the first 20, McMahon's expansion
above; Bogaert, SIAM J. Sci. Comput. 36:A1008, 2014). The guess is
accurate to O(nu^-4) at every node, the ones next to x = +-1 included, so
one recurrence pass confirms the whole rule from order about 2500 on and
two suffice from order 23. The iteration runs on the nonnegative half of the
nodes at once and mirrors the rest, so an order costs O(n^2)
multiply-adds and O(n) transcendental calls. The weights
2 / ((1 - x^2) P_n'(x)^2) take P_n' = n (P_{n-1} - x P_n) / (1 - x^2) from
each node's last Newton pass, carried to the updated node to first order
by Legendre's equation, so no further recurrence pass is needed, and
1 - x^2 = (1 - x_a^2) + s (2 x_a - s) at the unrounded node x_a - s.
The recurrence runs in Reinsch's difference form, so P_n' keeps its digits
next to x = +-1: the weights there agree with a 40-digit reference to a few
1e-14 at order 8192.

Each adaptive rule below is a family of levels that one loop (`refine`)
runs until a level's value is within rtol of the previous level's.

The Clenshaw-Curtis rule of n = N + 1 points takes the nodes cos(j pi / N)
and is about as accurate as Gauss-Legendre of the same size on a smooth
integrand; its rules are nested, the one of (n + 1) / 2 points being its
every-other node, so each doubling keeps the nodes before it and their
difference is an error estimate at no further cost (Trefethen, SIAM Rev.
50:67, 2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged, ValidationError

# Newton passes allowed after the Bessel-zero guess; three reach the 1e-15
# step at every order up to 22, two from 23 on and one from about 2500 on
_NEWTON_PASSES = 8
# the first 20 zeros j_{0,k} of the Bessel function J_0
_J0_ZEROS = np.array([
    2.4048255576957728, 5.5200781102863106, 8.6537279129110122, 11.791534439014281,
    14.930917708487786, 18.071063967910923, 21.211636629879259, 24.352471530749303,
    27.493479132040255, 30.634606468431975, 33.775820213573569, 36.917098353664044,
    40.058425764628239, 43.199791713176730, 46.341188371661814, 49.482609897397817,
    52.624051841114996, 55.765510755019979, 58.906983926080942, 62.048469190227170,
])


def _bessel_j0_zeros(m: int) -> np.ndarray:
    """j_{0,1}, ..., j_{0,m}: the table, then McMahon's expansion in
    b = (k - 1/4) pi, whose next term is below 1e-16 j from k = 21 on."""
    b = (np.arange(1, m + 1) - 0.25) * np.pi
    ib = 1.0 / b
    j = b + ib * (1.0 / 8.0 + ib**2 * (-31.0 / 384.0 + ib**2 * (
        3779.0 / 15360.0 - ib**2 * 6277237.0 / 3440640.0)))
    top = min(m, _J0_ZEROS.size)
    j[:top] = _J0_ZEROS[:top]
    return j


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x) - x P_n(x)) for n >= 2, by the three-term
    recurrence in Reinsch's difference form: with u = 1 - x and
    d_j = P_j - P_{j-1},

        (j + 1) d_{j+1} = j d_j - (2j + 1) u P_j,   P_{j+1} = P_j + d_{j+1},

    and P_{n-1} - x P_n = u P_n - d_n. Next to x = 1, where P_j and P_{j-1}
    nearly agree, the plain form (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
    cancels the digits of that difference (about 1e-11 of P_n' at the last
    node of order 8192); u is exact there."""
    u = 1.0 - x
    p = x.copy()
    d = -u
    tmp = np.empty_like(x)
    for j in range(1, n):
        np.multiply(u, p, out=tmp)
        tmp *= (2.0 * j + 1.0) / (j + 1.0)
        d *= j / (j + 1.0)
        d -= tmp
        p += d
    return p, u * p - d


@lru_cache(maxsize=32)
def _legendre_cache(order: int):
    """Ascending nodes and weights of the order-point rule on [-1, 1]."""
    n = int(order)
    if n < 1:
        raise ValidationError(f"Gauss-Legendre order must be at least 1, got {n}")
    if n == 1:
        return np.zeros(1), np.full(1, 2.0)
    # the Bessel-zero guess for the nonnegative nodes, largest first (k = 1)
    nu = n + 0.5
    a = _bessel_j0_zeros((n + 1) // 2) / nu
    x = np.cos(a + (1.0 / np.tan(a) - 1.0 / a) / (8.0 * nu**2))
    if n % 2:
        x[-1] = 0.0  # P_n is odd, so its middle root is exactly 0
    # each pass iterates only the nodes whose last step was above 1e-15
    dp_node = np.empty_like(x)
    one_node = np.empty_like(x)
    active = np.arange(x.size)
    for _ in range(_NEWTON_PASSES):
        xa = x[active]
        p, r = _legendre_pair(n, xa)
        one = (1.0 - xa) * (1.0 + xa)
        dp = n * r / one  # P_n'
        step = p / dp
        # P_n' at the updated node to first order, with P_n'' from
        # Legendre's equation (1 - x^2) P'' = 2 x P' - n (n + 1) P
        dp_node[active] = dp - step * (2.0 * xa * dp - n * (n + 1.0) * p) / one
        # 1 - x^2 at the updated node, exactly: 1 - (xa - step)^2
        one_node[active] = one + step * (2.0 * xa - step)
        x[active] = xa - step
        active = active[np.abs(step) > 1e-15]
        if not active.size:
            break
    if n % 2:
        x[-1] = 0.0  # the difference form leaves P_n(0) a rounding error off 0
    w = 2.0 / (one_node * dp_node**2)
    half = n // 2  # the nodes mirrored to x < 0 (an odd order keeps x = 0 once)
    return (
        np.concatenate([-x[:half], x[::-1]]),
        np.concatenate([w[:half], w[::-1]]),
    )


def gauss_legendre(order: int, a: float, b: float):
    """Nodes and weights for the interval [a, b]."""
    x, w = _legendre_cache(int(order))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls the frequency quadrature on [0, cutoff], the cut being
    cutoff_factor times the model's frequency scale: the order doubles from
    start_order to max_order until converged.
    """

    rtol: float = 1e-7
    start_order: int = 256
    max_order: int = 8192
    cutoff_factor: float = 50.0

    def __post_init__(self):
        if not (1 <= self.start_order <= self.max_order and self.rtol > 0.0
                and self.cutoff_factor > 0.0):
            raise ValidationError(f"{self}: needs 1 <= start_order <= max_order, rtol > 0 "
                                  "and cutoff_factor > 0")

    def orders(self):
        out = []
        n = self.start_order
        while n <= self.max_order:
            out.append(int(n))
            n *= 2
        return out


@dataclass(frozen=True)
class QuadratureResult:
    order: int
    cutoff: float
    rtol: float
    est_rel_error: float
    rule: str = "gauss_legendre"
    alias_time: float | None = None
    kept: int | None = None  # of the order's nodes, those the representation keeps
    scale: float | None = None
    tried: tuple = ()  # (points, estimate) of every level with an estimate

    def metadata(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


def refine(levels, evaluate, rtol, rule, cutoff, deviation, **record):
    """Run `evaluate(nodes, weights) -> ndarray` on the (points, nodes,
    weights) of `levels`, drawn as needed, until the value's deviation from
    the previous level's is within rtol: returns it with a QuadratureResult of
    `record` and every estimate (`tried`), or raises QuadratureNotConverged."""
    prev, tried = None, []
    for points, nodes, weights in levels:
        value = evaluate(nodes, weights)
        if prev is not None:
            tried.append((points, deviation(prev, value)))
            if tried[-1][1] <= rtol:
                return value, QuadratureResult(points, cutoff, rtol, tried[-1][1], rule,
                                               tried=tuple(tried), **record)
        prev = value
    setting = "".join(f", {name} {number:g}" for name, number in record.items())
    moves = ", ".join(f"{n} points: {est:.3g}" for n, est in tried) or "no estimate"
    raise QuadratureNotConverged(f"{rule} on [0, {cutoff:g}]{setting}: no level within rtol "
                                 f"{rtol:g}; tried {moves}")


def _max_move(prev, value) -> float:
    """max |value - prev| / max |value|, 0 when value is 0."""
    scale = float(np.max(np.abs(value)))
    return float(np.max(np.abs(value - prev))) / scale if scale > 0.0 else 0.0


def adaptive_nodes(spec: QuadratureSpec, cutoff: float, evaluate):
    """Gauss-Legendre doubling over spec.orders() on [0, cutoff], run by
    `refine` to spec.rtol. Returns (value, QuadratureResult)."""
    levels = ((order, *gauss_legendre(order, 0.0, cutoff)) for order in spec.orders())
    return refine(levels, evaluate, spec.rtol, "gauss_legendre", cutoff, _max_move)


def trapezoid_nodes(spec: QuadratureSpec, cutoff: float, evaluate, alias_time: float):
    """Run `evaluate(nodes, weights) -> ndarray` on the midpoint rule M, then
    the trapezoid rule T (nodes n h, n = 1..N; the sine vanishes at 0) of
    N = ceil(alias_time cutoff / 2 pi) steps h on [0, cutoff], and return
    T's value and record. On the sine transform of an even entire function T
    adds its images at t + j 2 pi / h, j != 0 (Poisson summation; Trefethen &
    Weideman, SIAM Rev. 56:385, 2014), and M the same with odd j negated:
    est_rel_error = max |T - M| / (2 max |T|). Raises QuadratureNotConverged
    above rtol (`refine`), or before any evaluation when 2N is over
    sum(spec.orders()), the most the order-doubling loop takes."""
    n, budget = int(np.ceil(alias_time * cutoff / (2.0 * np.pi))), sum(spec.orders())
    if 2 * n > budget:
        raise QuadratureNotConverged(f"trapezoid rule of N = {n} nodes: 2N > budget {budget}")
    h = cutoff / n
    steps = np.arange(1, n + 1)
    levels = ((n, (steps - 0.5) * h, np.full(n, h)),
              (n, steps * h, np.append(np.full(n - 1, h), 0.5 * h)))
    return refine(levels, evaluate, spec.rtol, "trapezoid", cutoff,
                  lambda twin, value: 0.5 * _max_move(twin, value), alias_time=2.0 * np.pi / h)


@lru_cache(maxsize=16)
def _clenshaw_curtis(n: int):
    """Nodes cos(j pi / N), j = 0..N, descending from 1, and weights of the
    n = N + 1-point Clenshaw-Curtis rule on [-1, 1], N even (the explicit
    cosine sum of Trefethen, Spectral Methods in MATLAB, 2000, clencurt)."""
    big = n - 1
    theta = np.pi * np.arange(n) / big
    k = np.arange(1, big // 2)
    inner = theta[1:-1]
    v = (1.0 - np.cos(np.outer(inner, 2.0 * k)) @ (2.0 / (4.0 * k * k - 1.0))
         - np.cos(big * inner) / (big * big - 1.0))
    w = np.empty(n)
    w[0] = w[-1] = 1.0 / (big * big - 1.0)
    w[1:-1] = 2.0 * v / big
    return np.cos(theta), w


def tan_clenshaw_curtis(n: int, cutoff: float, scale: float):
    """The n-point Clenshaw-Curtis rule in u on [0, arctan(cutoff / scale)],
    mapped by omega = scale tan u: its weights carry d omega / d u = scale +
    omega^2 / scale, half its nodes lie below omega = scale, and it scales
    with scale and cutoff together. Its omega = 0 node is dropped: a
    reservoir sum weighs it by the measure 4 pi omega^2 = 0.

    Returns the n - 1 nodes, ascending, the last one cutoff exactly, their
    weights, and on the same nodes the weights of the rule's every-other-node
    subrule, the (n + 1) / 2-point rule, 0 where it has no node. n must be
    2^m + 1, m >= 2."""
    if n < 5 or (n - 1) & (n - 2):
        raise ValidationError(f"a nested Clenshaw-Curtis rule has 2^m + 1 >= 5 points, got {n}")
    x, w = _clenshaw_curtis(n)
    top = float(np.arctan(cutoff / scale))
    nodes = scale * np.tan(0.5 * top * (1.0 - x[1:]))
    nodes[-1] = cutoff
    jacobian = 0.5 * top * (scale + nodes**2 / scale)
    sub = np.zeros(n - 1)
    sub[1::2] = _clenshaw_curtis((n + 1) // 2)[1][1:] * jacobian[1::2]
    return nodes, w[1:] * jacobian, sub
