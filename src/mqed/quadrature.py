"""Gauss-Legendre quadrature helpers shared by the kernel, spectrum and
reservoir integrals.

The nodes of order n are the roots of the Legendre polynomial P_n, found by
Newton's method from Tricomi's asymptotic guess, with P_n and P_{n-1}
evaluated by the three-term recurrence (the recurrence-Newton scheme of
Hale & Townsend, SIAM J. Sci. Comput. 35:A652, 2013). The iteration runs on
the nonnegative half of the nodes at once and mirrors the rest, so an order
costs O(n^2) multiply-adds and O(n) transcendental calls. The weights
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

# Newton passes allowed after Tricomi's guess; at most four reach the 1e-15
# step at every order up to 16384 (three from order 46 on)
_NEWTON_PASSES = 8


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
    # Tricomi's guess for the nonnegative nodes, largest first (k = 1)
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (
        1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)
        - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    ) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n is odd; cos(theta) leaves ~1e-17 here
    # each pass iterates only the nodes whose last step was above 1e-15:
    # after the first, that is a handful next to x = 1
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

