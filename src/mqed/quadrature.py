"""Gauss-Legendre quadrature helpers shared by the kernel, spectrum and
reservoir integrals.

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
2 / ((1 - x^2) P_n'(x)^2) take P_n' = n (x P_n - P_{n-1}) / (x^2 - 1) from
each node's last Newton pass, carried to the updated node to first order
by Legendre's equation, so no further recurrence pass is needed.

The adaptive scheme doubles the order until the target functional stops
moving (relative change below rtol) or the order cap is hit.
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
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, n >= 2."""
    prev = np.ones_like(x)
    cur = x.copy()
    nxt = np.empty_like(x)
    for j in range(1, n):
        # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
        np.multiply(x, cur, out=nxt)
        nxt *= (2.0 * j + 1.0) / (j + 1.0)
        prev *= j / (j + 1.0)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    return cur, prev


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
    active = np.arange(x.size)
    for _ in range(_NEWTON_PASSES):
        xa = x[active]
        p, q = _legendre_pair(n, xa)
        one = (1.0 - xa) * (1.0 + xa)
        dp = n * (q - xa * p) / one  # P_n'
        step = p / dp
        # P_n' at the updated node to first order, with P_n'' from
        # Legendre's equation (1 - x^2) P'' = 2 x P' - n (n + 1) P
        dp_node[active] = dp - step * (2.0 * xa * dp - n * (n + 1.0) * p) / one
        x[active] = xa - step
        active = active[np.abs(step) > 1e-15]
        if not active.size:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp_node**2)
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
    """Controls the frequency quadrature on [0, cutoff].

    cutoff is either explicit or derived as cutoff_factor times the model's
    frequency scale. fixed_order pins the order (no adaptivity); otherwise
    the order doubles from start_order to max_order until converged.
    """

    rtol: float = 1e-7
    start_order: int = 256
    max_order: int = 8192
    cutoff: float | None = None
    cutoff_factor: float = 50.0
    fixed_order: int | None = None

    def resolve_cutoff(self, frequency_scale: float) -> float:
        if self.cutoff is not None:
            return float(self.cutoff)
        if frequency_scale <= 0.0:
            return float(self.cutoff_factor)
        return float(self.cutoff_factor * frequency_scale)

    def orders(self):
        if self.fixed_order is not None:
            return [int(self.fixed_order)]
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
    converged: bool

    def metadata(self) -> dict:
        return {
            "order": self.order,
            "cutoff": self.cutoff,
            "rtol": self.rtol,
            "est_rel_error": self.est_rel_error,
            "converged": self.converged,
        }


def adaptive_nodes(spec: QuadratureSpec, cutoff: float, evaluate):
    """Run `evaluate(nodes, weights) -> ndarray` at doubling orders.

    Returns (value, QuadratureResult). Raises QuadratureNotConverged when the
    cap is reached while the value is still moving by more than rtol.
    """
    orders = spec.orders()
    prev = None
    value = None
    rel = np.inf
    for order in orders:
        x, w = gauss_legendre(order, 0.0, cutoff)
        value = evaluate(x, w)
        if prev is not None:
            scale = float(np.max(np.abs(value)))
            diff = float(np.max(np.abs(value - prev)))
            rel = diff / scale if scale > 0.0 else 0.0
            if rel <= spec.rtol:
                return value, QuadratureResult(order, cutoff, spec.rtol, rel, True)
        prev = value
    if spec.fixed_order is not None:
        return value, QuadratureResult(orders[-1], cutoff, spec.rtol, rel, True)
    raise QuadratureNotConverged(
        f"order {orders[-1]} still changing by {rel:g} (> rtol {spec.rtol:g})"
    )

