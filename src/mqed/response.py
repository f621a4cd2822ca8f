"""Susceptibility kernels, spectra, causality checks and Laplace-domain
material response.

The time-domain memory kernel of an absorbing medium is the half-line sine
transform of the coupling spectral density,

    chi(k, t) = pref * integral_0^inf domega omega^2 sin(omega t) f f^dag,

with pref = 8 pi in either sector (`KERNEL_PREFACTOR`; natural units, as in
every numerical module); chi vanishes identically for t <= 0.

A rational part (a Lorentz or Drude coupling, gauged or not) has this
integral in closed form, chi_hat(rho) = s^2 / (rho^2 + gamma rho +
omega_0^2) (`CouplingModel.closed_form`), so its kernel values and its
spectrum come from that form, with no cut and no horizon. Every other
part is read through the frequency-quadrature representation `QuadRep`
(nodes omega_n and coefficients w_n pref omega_n^2 f f^dag), which is kept
with the kernel so the frequency spectrum and Laplace transform are taken
exactly in t.
Each representation keeps only the nodes of its rule that carry weight
(`_weighted_nodes`), so every consumer sums only those. A
rational part keeps one too, converged on the horizon of the two checks
that integrate it in time (`check_grid`): there it is the paper's coupling
integral beside the closed form. Its coefficients are stored as a
real (n, r) block against an (r, 9) complex basis of tensors, with r the
fewest columns the coefficients need (1 when every tensor is a multiple of
one fixed tensor, as for an isotropic or a frequency-independent
anisotropic medium), so each contraction (kernel values, the half-line
transform, the Laplace transform, the cosine kernel Q) is a real product on
r columns, mapped to tensors by one product with the basis at the end; on a
uniform time grid (`uniform_step`) the sin/cos tables of the kernel values,
of Q and of the oscillator ladder come from one angle-addition product
(`_angle_table`) on O(sqrt(n_t)) phases per node. Chunked tables stay
within one element budget (`_chunks`). The half-line transform finds its
few cancelling (omega, omega_n) pairs by bisection on the ascending nodes,
and the Kramers-Kronig check sums its dispersion integral by Maclaurin's rule
as a Toeplitz plus a Hankel FFT convolution in O(n log n). A run builds
one kernel per medium part and k, on one horizon, and every check that
reads chi (the spectrum, KK, the fluctuation-dissipation, continuity and
constitutive checks) takes that kernel or its spectrum. A kernel whose
omega^2 f f^dag is even and entire is one trapezoid rule (`chi_kernel`);
every other representation is converged by one order-doubling loop
(`_converged_rep`) on the functional its consumer reads: the kernel values
on t for `chi_kernel` (on `check_grid` for a rational part), chi_hat at
three probe values of rho for the
Laplace-domain response of a continuum medium (a much smaller
representation, because its cost is paid at every Bromwich-line point),
and Q on t for `conductor_Q`.
`LaplaceResponse` is the one carrier of the medium, a tuple of coupling
parts: the parts of each sector (bound and free carriers alike in the
electric one) fix eps_hat, mu_hat and the reservoir couplings, each part
through its closed form or its own representation. It evaluates the material
tensors for a scalar rho or a whole 1-d stack at once, at Re rho > 0 only:
a continuum part's branch cut lies on the imaginary axis, and no solver
path asks for more of a rational one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np

from .couplings import ELECTRIC, MAGNETIC, coupling_product
from .errors import (
    GridTooCoarse,
    LeftHalfPlane,
    NotPSD,
    TailNotDecayed,
    ValidationError,
    ZeroFrequency,
)
from .quadrature import QuadratureResult, QuadratureSpec, adaptive_nodes, trapezoid_nodes
from .rational import Rational
from .tensors import IDENTITY3

# pref of chi = pref int omega^2 sin(omega t) f f^dag, and of the cosine
# kernel Q = pref int omega^3 cos(omega t) f f^dag, in either sector
KERNEL_PREFACTOR = 8.0 * np.pi
# elements of one chunked table (`_chunks`), 8 MB of complex values, sized
# for the cache
_TABLE_ELEMENTS = 1 << 19
# the kernel's decay at a run's horizon (`scenario.part_kernel`), and at the
# alias time of a trapezoid rule less t_max (`chi_kernel`)
_KERNEL_TAIL = 1e-11
# the horizon, in units of 1 / frequency_scale, of the checks that integrate
# a kernel's quadrature representation in time: `noise.pdot_continuity`'s
# probe (four of its widths) and `observables.constitutive_roundtrip`'s grid
# (`check_grid`)
_CHECK_HORIZON = 20.0
# the share of its peak a kernel's tail may still move by over its last 5%
# of samples (`chi_spectrum`), and the plateau it reads as zero below
_TAIL_RTOL = 1e-6
# the fewest omega points kk_check accepts
KK_MIN_POINTS = 64
# |omega - omega_n| T below which the half-line transform of a mode is taken
# in its cancellation-free sinc form
_NEAR_PHASE = 1.0
# the share of sum_n |c_n| a representation drops, smallest |c_n| first
# (`_weighted_nodes`): it bounds the move of every value read from it
_PRUNE_RTOL = 1e-16
# a factored coefficient block reproduces each tensor to this fraction of its
# largest entry (`tensor_block`)
_BASIS_RTOL = 1e-14
# bases of the real flat forms of tensors: the identity, 9 real entries, and
# 9 real parts followed by 9 imaginary parts
_FLAT_IDENTITY = IDENTITY3.reshape(1, 9).astype(complex)
_UNIT_REAL = np.eye(9, dtype=complex)
_UNIT_COMPLEX = np.concatenate([np.eye(9), 1j * np.eye(9)])


def tensor_block(tensors):
    """(n, 3, 3) tensors as a real (n, r) block and an (r, 9) complex basis,
    tensors = (block @ basis).reshape(-1, 3, 3), on as few columns as hold
    them.

    When every tensor is a multiple of the identity (tested exactly) the
    block is that one column and the basis is I. Otherwise the tensors are
    taken in their real flat form F, the 9 real parts, followed by the 9
    imaginary parts when any is nonzero, and projected on the fewest right
    singular vectors of F that reproduce every row to `_BASIS_RTOL` of its
    largest entry (so of its norm), or to the smallest normal double when
    that is larger (such a row holds subnormal entries, which carry fewer
    digits). Both the decomposition and the test take the rows scaled to a
    largest entry of 1, so each row counts alike; a row below the smallest
    normal double over `_BASIS_RTOL` is scaled by that instead. This gives
    one column for s(omega) times a fixed tensor, at most 6 for real
    symmetric and 9 for Hermitian tensors. When no smaller set does, the
    block is F itself against the unit basis, which is exact.
    """
    flat = np.asarray(tensors).reshape(-1, 9)
    if np.any(flat.imag):
        real, unit = np.concatenate([flat.real, flat.imag], axis=1), _UNIT_COMPLEX
    else:
        real, unit = np.ascontiguousarray(flat.real), _UNIT_REAL
        diag = real[:, 0]
        if not np.any(real[:, [1, 2, 3, 5, 6, 7]]) and np.array_equal(diag, real[:, 4]) \
                and np.array_equal(diag, real[:, 8]):
            return real[:, :1].copy(), _FLAT_IDENTITY
    floor = np.finfo(float).tiny / _BASIS_RTOL
    rows = real / np.maximum(np.max(np.abs(real), axis=1), floor)[:, None]
    vt = np.linalg.svd(rows, full_matrices=False)[2]
    for r in range(1, min(vt.shape[0] + 1, real.shape[1])):
        v = vt[:r]
        if np.all(np.linalg.norm(rows - (rows @ v.T) @ v, axis=1) <= _BASIS_RTOL):
            return real @ v.T, v @ unit
    return real, unit


def block_tensors(product: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse of `tensor_block` (also for a product against a block): a
    real or complex (p, r) product on the basis -> (p, 3, 3) complex.

    Accumulated from the first term, not from zero as BLAS and `sum` do, so
    the products x * 0 of a one-column block keep their sign."""
    out = product[:, :1] * basis[0]
    for j in range(1, basis.shape[0]):
        out += product[:, j, None] * basis[j]
    return out.reshape(-1, 3, 3)


def _relative_deviation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max |lhs_i - rhs_i| / max |rhs_i| over (n, 3, 3) stacks, the deviation
    rule of every two-route check. A reference whose norm is 0 (or
    underflows) gives 1.0 against a nonzero lhs, |lhs - 0| / |lhs| at any
    scale, so a missing side cannot read small, and 0.0 when both are 0."""
    scale = float(np.max(np.linalg.norm(rhs, axis=(1, 2))))
    if scale == 0.0:
        return float(np.any(lhs))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)))) / scale


def _fft_size(n: int) -> int:
    """Smallest 11-smooth length >= n, which pocketfft transforms fast."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def uniform_step(t: np.ndarray):
    """h when t[j] = t[0] + j h to within a few ulp of max |t| for every j,
    else None: the one test of a uniform grid."""
    if t.size < 2:
        return None
    h = (t[-1] - t[0]) / (t.size - 1)
    ideal = t[0] + h * np.arange(t.size)
    if h <= 0.0 or np.max(np.abs(t - ideal)) > 4.0 * np.spacing(np.max(np.abs(t))):
        return None
    return float(h)


def _chunks(n: int, width: int) -> list:
    """Slices that cover range(n) in runs of as many rows of `width`
    elements as one table of `_TABLE_ELEMENTS` holds (at least one)."""
    step = max(1, _TABLE_ELEMENTS // max(1, width))
    return [slice(start, start + step) for start in range(0, n, step)]


def _angle_table(t: np.ndarray, nodes: np.ndarray, sin_block, cos_block) -> np.ndarray:
    """sin(t omega_n) @ sin_block + cos(t omega_n) @ cos_block for real
    (n, m) blocks, either of which may be None: (n_t, m).

    On a uniform grid t_j = t_0 + j h, write j = J R + i with R ~ sqrt(n_t),
    so t_j = a_i + b_J with a_i = i h and b_J = t_0 + J R h. Angle addition,

        sin(w (a + b)) S + cos(w (a + b)) C
            = sin(w a) [cos(w b) S - sin(w b) C] + cos(w a) [sin(w b) S + cos(w b) C],

    turns the product into two real GEMMs of the (R, n) tables sin(omega a)
    and cos(omega a) against the J-stacked blocks in brackets, so
    2 (R + n_t / R) n sines and cosines are evaluated instead of one or two
    per (t_j, omega_n). The nodes are taken in chunks of one (R, n) table
    each and the J groups in column chunks (`_chunks`); each bracket is built
    in one buffer (with one block, its one shift, made for it alone), the
    second GEMM is added into the first one's output, and the node chunks'
    partials are summed. Other grids build t omega_n in row chunks.
    """
    pairs = [(fn, b) for fn, b in ((np.sin, sin_block), (np.cos, cos_block)) if b is not None]
    m = pairs[0][1].shape[1]
    if not nodes.size:  # no node chunk would fill the output
        return np.zeros((t.size, m))
    h = uniform_step(t)
    if h is None:
        out = np.empty((t.size, m))
        for rows in _chunks(t.size, nodes.size):
            angles = np.multiply.outer(t[rows], nodes)
            out[rows] = reduce(np.add, [fn(angles) @ b for fn, b in pairs])
        return out

    def mix(x, p, y=None, q=None):  # x p + y q for (n, 1, g) factors, as (n, m g), g innermost
        buf = np.multiply(x, p[:, :, None], out=x if m == 1 and y is None else None)
        if y is not None:  # a column at a time, beside the one (n, m, g) table
            for j in range(m):
                buf[:, j] += y[:, 0] * q[:, j, None]
        return buf.reshape(len(x), -1)

    r = int(np.ceil(np.sqrt(t.size)))
    groups = -(-t.size // r)
    starts = t[0] + (r * h) * np.arange(groups)
    out = np.empty((groups, r, m))
    for i, ns in enumerate(_chunks(nodes.size, r)):
        sin_n, cos_n = (None if b is None else b[ns] for b in (sin_block, cos_block))
        sin_a = np.multiply.outer(h * np.arange(r), nodes[ns])  # (r, n)
        cos_a = np.cos(sin_a)
        np.sin(sin_a, out=sin_a)
        for g in _chunks(groups, sin_a.shape[1] * m):
            def shift(fn):  # fn(omega_n b_J) as (n, 1, g)
                return fn(a := np.multiply.outer(nodes[ns], starts[g])[:, None], out=a)
            if cos_n is None:
                part = sin_a @ mix(shift(np.cos), sin_n)
                part += cos_a @ mix(shift(np.sin), sin_n)
            elif sin_n is None:
                part = sin_a @ mix(shift(np.sin), -cos_n)
                part += cos_a @ mix(shift(np.cos), cos_n)
            else:
                sin_b, cos_b = shift(np.sin), shift(np.cos)
                part = sin_a @ mix(cos_b, sin_n, sin_b, -cos_n)
                part += cos_a @ mix(sin_b, sin_n, cos_b, cos_n)  # (r, m g)
            part = part.reshape(r, m, -1).transpose(2, 0, 1)
            out[g] = out[g] + part if i else part
    return out.reshape(-1, m)[: t.size]


@dataclass(frozen=True)
class QuadRep:
    """Frequency-quadrature representation sum_n c_n sin(omega_n t), with
    c_n = weight * pref * omega_n^2 * f f^dag held as a real (n, r) block
    against an (r, 9) complex basis (see `tensor_block`): every contraction
    works on the r block columns and maps to tensors through the basis."""

    nodes: np.ndarray  # (n,)
    block: np.ndarray  # (n, r) real
    basis: np.ndarray  # (r, 9) complex

    @classmethod
    def from_coeffs(cls, nodes, coeffs) -> "QuadRep":
        block, basis = tensor_block(coeffs)
        return cls(nodes=np.asarray(nodes, dtype=float), block=block, basis=basis)

    def contract(self, mat) -> np.ndarray:
        """sum_n mat[:, n] c_n for a real or complex (p, n) matrix: (p, 3, 3).
        Each row is summed by itself, not by BLAS (whose one-row and many-row
        kernels round apart), so a row's value does not depend on the rows
        it is batched with."""
        mat = np.asarray(mat)
        if np.iscomplexobj(mat):
            cols = [(mat.real * c).sum(1) + 1j * (mat.imag * c).sum(1) for c in self.block.T]
        else:
            cols = [(mat * c).sum(1) for c in self.block.T]
        return block_tensors(np.stack(cols, axis=1), self.basis)

    def kernel_values(self, t_grid) -> np.ndarray:
        t = np.asarray(t_grid, dtype=float)
        return block_tensors(_angle_table(t, self.nodes, self.block, None), self.basis)


@dataclass(frozen=True)
class SusceptibilityKernel:
    """A part's kernel values on t_grid and its quadrature representation,
    converged on [0, rep_horizon] (every t for a zero part). A rational
    part's values come from its closed form chi_hat (`closed_form`), and
    couplings_gap is how far the representation's kernel lies from them on
    that horizon, relative to their peak."""

    which: str
    k: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (n_t, 3, 3)
    quad: QuadratureResult
    rep: QuadRep
    rep_horizon: float
    model_parameters: dict = field(default_factory=dict)
    closed_form: Rational | None = None
    couplings_gap: float | None = None

    def metadata(self) -> dict:
        return {
            "which": self.which,
            "k": [float(x) for x in self.k],
            "t_max": float(self.t_grid[-1]),
            "n_t": int(self.t_grid.size),
            "quadrature": self.quad.metadata(),
            "model": self.model_parameters,
            **({} if self.closed_form is None else
               {"kernel": "closed_form", "couplings_gap": self.couplings_gap}),
        }

    def rep_to(self, t_end: float, consumer: str) -> QuadRep:
        """The representation, for a consumer that integrates it in time to
        t_end; past rep_horizon it was never converged, so that raises
        ValidationError."""
        if t_end > self.rep_horizon:
            raise ValidationError(
                f"{consumer} integrates the kernel to t = {t_end:g}, past the horizon "
                f"{self.rep_horizon:g} its representation was converged on")
        return self.rep


@dataclass(frozen=True)
class ResponseSpectrum:
    which: str
    k: np.ndarray
    omega_grid: np.ndarray
    values: np.ndarray  # (n_omega, 3, 3)
    imag_min_eig: float
    tail_fraction: float
    plateau: np.ndarray | None = None

    def imag_hermitian(self) -> np.ndarray:
        """Hermitian dissipative part (values - values^dag) / 2i per omega."""
        return (self.values - np.conj(np.transpose(self.values, (0, 2, 1)))) / 2.0j

    def real_hermitian(self) -> np.ndarray:
        return (self.values + np.conj(np.transpose(self.values, (0, 2, 1)))) / 2.0


def _validate_t_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("t_grid must be a 1-d grid with at least two points")
    if t[0] != 0.0:
        raise ValidationError("t_grid must start at 0")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("t_grid must be strictly increasing")
    return t


def _cutoff(model, quad: QuadratureSpec) -> float:
    """The top of the frequency rule: cutoff_factor times the model's
    frequency scale, or its hard cutoff when lower."""
    cutoff = float(quad.cutoff_factor * model.frequency_scale)
    if model.hard_cutoff is not None:
        cutoff = min(cutoff, model.hard_cutoff)
    return cutoff


def _weighted_nodes(nodes: np.ndarray, coeffs: np.ndarray):
    """The nodes whose coefficients carry weight, ascending, with those
    coefficients: the smallest Frobenius norms |c_n| are dropped as long as
    their sum stays within `_PRUNE_RTOL` of sum_n |c_n|. Every node is kept
    when that sum is 0."""
    norms = np.linalg.norm(coeffs.reshape(nodes.size, -1), axis=1)
    total = float(norms.sum())
    ranked = np.argsort(norms, kind="stable")
    dropped = int(np.searchsorted(np.cumsum(norms[ranked]), _PRUNE_RTOL * total, side="right"))
    if total == 0.0 or dropped == 0:
        return nodes, coeffs
    keep = np.sort(ranked[dropped:])
    return nodes[keep], coeffs[keep]


def _converged_rep(model, k, quad: QuadratureSpec, pref: float, functional, alias_time=None):
    """The representation of `model` at k, coefficients w_n pref omega_n^2
    f f^dag, at the level `refine` keeps for functional(rep): of the
    trapezoid rule of `alias_time` if given, else of Gauss-Legendre doubling.
    Each level keeps only the nodes that carry weight (`_weighted_nodes`);
    the dropped coefficients sum to at most `_PRUNE_RTOL` of sum_n |c_n|,
    which bounds the move of the kernel, |delta chi(t)| <= sum_dropped
    |c_n|, and of every other value read from it by the same sum times the
    largest factor its consumer puts on a node. Returns the representation,
    the converged functional and the record, `kept` the nodes it keeps."""
    stash = {}  # the last rule evaluated, the one kept

    def evaluate(x, w):
        stash["rep"] = QuadRep.from_coeffs(*_weighted_nodes(
            x, (w * pref * x**2)[:, None, None] * coupling_product(model, x, k)))
        return functional(stash["rep"])

    rule = adaptive_nodes if alias_time is None else partial(trapezoid_nodes, alias_time=alias_time)
    values, result = rule(quad, _cutoff(model, quad), evaluate)
    return stash["rep"], values, replace(result, kept=int(stash["rep"].nodes.size))


def check_grid(model) -> np.ndarray:
    """The constitutive round trip's grid: 3001 uniform times on the horizon
    of the checks that integrate a kernel's representation in time,
    `_CHECK_HORIZON` / frequency_scale. A rational part's representation is
    converged on it."""
    return np.linspace(0.0, _CHECK_HORIZON / model.frequency_scale, 3001)


def _oscillator_coefficients(form: Rational) -> tuple:
    """(s^2, omega_0^2, gamma) of a nonzero part's closed form s^2 / (rho^2
    + gamma rho + omega_0^2): the one reader of its coefficients."""
    return form.num[0].real, form.den[0].real, form.den[1].real


def _damped_oscillator(form: Rational, t: np.ndarray) -> np.ndarray:
    """The inverse transform of a part's closed form s^2 / (rho^2 + gamma
    rho + omega_0^2) on t, chi(t) = s^2 t e^{-gamma t / 2} sinc(Omega t / pi)
    with Omega = sqrt(omega_0^2 - gamma^2 / 4) taken complex: one form for the damped,
    the critically damped and the overdamped oscillator, Drude (omega_0 = 0)
    included. For Omega = i kappa it is evaluated as s^2 t e^{-a t}
    (1 - e^{-2 kappa t}) / (2 kappa t), a = omega_0^2 / (gamma / 2 + kappa)
    = gamma / 2 - kappa, which neither overflows nor cancels."""
    s2, w02, g = _oscillator_coefficients(form)
    omega = np.sqrt(complex(w02 - 0.25 * g**2))
    if omega.imag == 0.0:
        return s2 * t * np.exp(-0.5 * g * t) * np.sinc(omega.real * t / np.pi)
    x = 2.0 * omega.imag * t
    ratio = np.where(x > 0.0, -np.expm1(-x) / np.where(x > 0.0, x, 1.0), 1.0)
    return s2 * t * np.exp(-(w02 / (0.5 * g + omega.imag)) * t) * ratio


def chi_kernel(
    model,
    k,
    t_grid,
    quad: QuadratureSpec = QuadratureSpec(),
) -> SusceptibilityKernel:
    """Time-domain susceptibility kernel chi(k, t) on t_grid (t >= 0).

    A nonzero rational part, gauged or not (an orthogonal gauge leaves
    f f^dag as it is), takes its values from the closed form
    (`_damped_oscillator`); its representation is converged on `check_grid`
    alone, where its gap to the closed form is measured. Any other part is
    its representation on t_grid, the improper frequency integral truncated
    at the configured cutoff: a coupling model whose omega^2 f f^dag is even
    and entire takes one trapezoid rule, its alias time the horizon of
    `_KERNEL_TAIL` beyond t_max; any other Gauss-Legendre with order
    doubling until the kernel stops moving on the whole grid. A zero part
    builds no rule: its representation has no nodes and its quadrature
    record order 0. Every call builds a new representation; a run builds one
    per medium part and k for every check that reads it.
    """
    t = _validate_t_grid(t_grid)
    k = np.asarray(k, dtype=float)
    closed = None if model.is_zero else model.closed_form
    if model.is_zero:  # no rule: an empty representation, +0 at every t
        gap = None
        rep = QuadRep.from_coeffs(np.empty(0), np.empty((0, 3, 3)))
        values = rep.kernel_values(t)
        result = QuadratureResult(0, _cutoff(model, quad), quad.rtol, 0.0, rule=None, kept=0)
    elif closed is not None:
        t_rep = check_grid(model)
        rep, on_rep, result = _converged_rep(model, k, quad, KERNEL_PREFACTOR,
                                             lambda r: r.kernel_values(t_rep))
        exact = partial(_damped_oscillator, closed)
        gap = _relative_deviation(on_rep, block_tensors(exact(t_rep)[:, None], _FLAT_IDENTITY))
        values = block_tensors(exact(t)[:, None], _FLAT_IDENTITY)
    else:
        gap, t_rep = None, t
        alias = t[-1] + model.suggested_t_max(_KERNEL_TAIL) if model.even_entire_density else None
        rep, values, result = _converged_rep(model, k, quad, KERNEL_PREFACTOR,
                                             lambda r: r.kernel_values(t), alias)
    return SusceptibilityKernel(
        which=model.which,
        k=k,
        t_grid=t,
        values=values,
        quad=result,
        rep=rep,
        rep_horizon=np.inf if model.is_zero else float(t_rep[-1]),
        model_parameters=model.parameters(),
        closed_form=closed,
        couplings_gap=gap,
    )


def _plateau(values: np.ndarray):
    """Estimate the long-time limit from the final 5% of samples and verify
    the kernel has actually settled there.

    A genuine conductor plateau is flat and large compared to the residual
    tail wobble; a slowly decaying tail (e.g. the algebraic tail of the
    Gaussian family) fails the dominance test and is treated as zero."""
    n = values.shape[0]
    m = max(5, n // 20)
    tail = values[-m:]
    plateau = tail.mean(axis=0)
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros((3, 3), dtype=complex), 0.0
    wobble = float(np.max(np.abs(tail - plateau))) / scale
    if wobble > _TAIL_RTOL:
        raise TailNotDecayed(
            f"kernel tail still moving by {wobble:g} of peak (> {_TAIL_RTOL:g}); extend t_grid"
        )
    top = float(np.max(np.abs(plateau)))
    if top <= _TAIL_RTOL * scale or top <= 50.0 * wobble * scale:
        plateau = np.zeros((3, 3), dtype=complex)
    return plateau, wobble


def _seg(d, t_max):
    """integral_0^T e^{i d t} dt = T e^{ix/2} sinc(x / 2 pi), x = d T: stable
    for all x."""
    x = d * t_max
    return t_max * np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def _near_pairs(w: np.ndarray, nodes: np.ndarray, near: float):
    """(row, node) index pairs with |w - nodes| < near, rows ascending and
    nodes ascending within a row (the order of `np.nonzero` on the full
    table), for ascending nodes."""
    lo = np.searchsorted(nodes, w - 2.0 * near, side="left")
    count = np.searchsorted(nodes, w + 2.0 * near, side="right") - lo
    rows = np.repeat(np.arange(w.size), count)
    first = np.cumsum(count) - count  # each row's first pair
    cols = np.arange(rows.size) + (lo - first)[rows]
    keep = np.abs(w[rows] - nodes[cols]) < near
    return rows[keep], cols[keep]


def _half_line_transform_exact(rep: QuadRep, t_max: float, omega: np.ndarray) -> np.ndarray:
    """integral_0^T sin(omega_n t) e^{i omega t} dt summed over the representation.

    Per mode the integral factors as

        [e^{i omega T} (omega_n cos(omega_n T) - i omega sin(omega_n T)) - omega_n]
        / (omega^2 - omega_n^2),

    so all of the (omega, omega_n) dependence sits in one real matrix
    1 / (omega^2 - omega_n^2), contracted with three stacked column blocks.
    Where |omega - omega_n| T < _NEAR_PHASE that form cancels; those pairs are
    dropped from the matrix and added in the sinc form of `_seg`. They are
    found by bisection on the ascending nodes (a band of twice that width
    per omega, then the strict test on the band alone), so only the
    product, its reciprocal and the matrix product touch the whole table.
    omega >= 0 (`chi_spectrum` checks it) and omega_n > 0, so
    omega + omega_n is never the small factor.
    """
    nodes = rep.nodes
    if np.any(np.diff(nodes) < 0.0):
        raise ValidationError("the half-line transform needs ascending nodes")
    block = rep.block
    m = block.shape[1]
    if not nodes.size:  # +0, where the phase products below give -0
        return np.zeros((omega.size, 3, 3), dtype=complex)
    phase_n = nodes * t_max
    stacked = np.concatenate(
        [
            nodes[:, None] * block,
            np.sin(phase_n)[:, None] * block,
            (nodes * np.cos(phase_n))[:, None] * block,
        ],
        axis=1,
    )
    near = _NEAR_PHASE / t_max
    out = np.empty((omega.size, m), dtype=complex)
    for rows in _chunks(omega.size, nodes.size):
        w = omega[rows]
        close_w, close_n = _near_pairs(w, nodes, near)
        inv = np.subtract.outer(w, nodes)
        inv *= np.add.outer(w, nodes)
        with np.errstate(divide="ignore"):
            np.reciprocal(inv, out=inv)
        inv[close_w, close_n] = 0.0
        g = inv @ stacked
        phase = np.exp(1j * w * t_max)[:, None]
        chunk = phase * (g[:, 2 * m :] - 1j * w[:, None] * g[:, m : 2 * m]) - g[:, :m]
        for pairs in _chunks(close_w.size, nodes.size):  # a few per row unless T is tiny
            cw, cn = close_w[pairs], close_n[pairs]
            it = (_seg(w[cw] + nodes[cn], t_max) - _seg(w[cw] - nodes[cn], t_max)) / 2.0j
            np.add.at(chunk, cw, it[:, None] * block[cn])
        out[rows] = chunk
    return block_tensors(out, rep.basis)


def chi_spectrum(kernel: SusceptibilityKernel, omega_grid) -> ResponseSpectrum:
    """Half-line frequency transform chi_hat(k, omega) = int_0^inf chi e^{i omega t} dt.

    A rational part's spectrum is its closed form at rho = -i omega; its
    plateau chi(inf) = s^2 / gamma is that of a pole at rho = 0 (Drude).
    Any other kernel's is the half-line transform of its representation to
    t_max, whose tail must have settled within _TAIL_RTOL of its peak.
    Conductor-like kernels settle on a nonzero plateau chi(inf); the tail
    integral of the plateau is added analytically (i chi_inf e^{i omega T} /
    omega), which is what makes the free-carrier spectrum converge. Either
    way a plateau kernel has no spectrum at omega = 0, and the dissipative
    (hermitian-imaginary) part must come out PSD for omega > 0.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or np.any(omega < 0.0):
        raise ValidationError("omega_grid must be 1-d and nonnegative")
    closed = kernel.closed_form
    if closed is not None:
        # omega_0^2 = 0: a pole at rho = 0, whose residue is chi(inf)
        s2, w02, g = _oscillator_coefficients(closed)
        plateau = (s2 / g) * IDENTITY3 if w02 == 0.0 else None
        wobble = 0.0
    else:
        plateau, wobble = _plateau(kernel.values)
        plateau = plateau if np.any(plateau != 0.0) else None
    if plateau is not None and np.any(omega == 0.0):
        raise ZeroFrequency("spectrum of a plateau kernel diverges at omega = 0")

    if closed is not None:
        values = block_tensors(closed(-1j * omega)[:, None], _FLAT_IDENTITY)
    else:
        t_max = float(kernel.t_grid[-1])
        values = _half_line_transform_exact(kernel.rep, t_max, omega)
        if plateau is not None:
            fac = 1j * np.exp(1j * omega * t_max) / omega
            values = values + fac[:, None, None] * plateau[None, :, :]

    imh = (values - np.conj(np.transpose(values, (0, 2, 1)))) / 2.0j
    positive = omega > 0.0
    if np.any(positive):
        eigs = np.linalg.eigvalsh(imh[positive])
        min_eig = float(np.min(eigs))
        scale = float(np.max(np.abs(eigs))) or 1.0
        if min_eig < -1e-8 * scale:
            raise NotPSD(f"Im chi_hat has eigenvalue {min_eig:g} below -tol for omega > 0")
    else:
        min_eig = 0.0
    return ResponseSpectrum(
        which=kernel.which,
        k=kernel.k,
        omega_grid=omega,
        values=values,
        imag_min_eig=min_eig,
        tail_fraction=wobble,
        plateau=plateau,
    )


@dataclass(frozen=True)
class KKReport:
    max_rel_residual: float
    grid_step: float


def _kk_real_part(omega: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(2/pi) P int_0^inf w' Im(w') / (w'^2 - w_i^2) dw' at the points w_i >
    0 of an ascending uniform grid w_j = w_0 + j h, for a real (n, c) block of
    Im: (n, c), by Maclaurin's alternate-point rule.

    Im is odd, so the integral is (1 / pi w) P int g(w') / (w' - w) dw' over
    the whole line, g = w' Im(w') even and regular at 0 (where a conductor's
    Im has its pole). The rule sums g / (w' - w_i) at weight 2h on the points
    at odd multiples of h from w_i: the grid points at odd j - i (a Toeplitz
    kernel, the singular half) and the mirrored -w_j at an odd rounded (w_i +
    w_j) / h (a Hankel kernel, smooth); two real FFT convolutions of length
    >= 2n - 1, which leaves the kept rows free of wrap-around."""
    n = omega.size
    h = float(omega[-1] - omega[0]) / (n - 1)
    weighted = ((2.0 * h / np.pi) * omega)[:, None] * im
    size = _fft_size(2 * n - 1)
    # entry l of the Toeplitz kernel is at j - i = n - 1 - l, of the Hankel one at i + j = l
    offset, mirrored = n - 1.0 - np.arange(2 * n - 1), 2.0 * omega[0] + h * np.arange(2 * n - 1)
    toeplitz = np.fft.rfft(np.divide(1.0, h * offset, out=np.zeros_like(offset),
                                     where=offset % 2.0 == 1.0), size)
    hankel = np.fft.rfft(np.divide(-1.0, mirrored, out=np.zeros_like(mirrored),
                                   where=np.rint(mirrored / h) % 2.0 == 1.0), size)
    conv = np.fft.irfft(
        np.fft.rfft(weighted, size, axis=0) * toeplitz[:, None]
        + np.fft.rfft(weighted[::-1], size, axis=0) * hankel[:, None],
        size,
        axis=0,
    )
    return conv[n - 1 : 2 * n - 1] / omega[:, None]


def kk_check(spectrum: ResponseSpectrum) -> KKReport:
    """Kramers-Kronig residual of a spectrum on a uniform grid of positive omega.

    Reconstructs Re chi_hat from Im chi_hat entrywise through the half-line
    (even-extension) dispersion integral

        Re chi(w) = (2/pi) P int_0^inf w' Im chi(w') / (w'^2 - w^2) dw',

    summed at the grid points themselves by Maclaurin's alternate-point rule,
    whose error falls faster than any power of h for a smooth spectrum, by
    FFT (`_kk_real_part`). Reports the max relative deviation from the
    directly computed real part (`_relative_deviation`); an acausal spectrum
    shows up as an O(1) residual, not an exception. The grid must pass
    `uniform_step`; a descending grid is read from its low end, so both
    orders give the same residual.
    """
    omega = spectrum.omega_grid
    if omega.size < KK_MIN_POINTS:
        raise GridTooCoarse(f"kk_check needs at least {KK_MIN_POINTS} grid points")
    descending = omega[-1] < omega[0]
    h = uniform_step(omega[::-1] if descending else omega)
    if h is None or np.min(omega) <= 0.0:
        raise GridTooCoarse("kk_check needs a uniform grid of positive omega")
    im, basis = tensor_block(spectrum.imag_hermitian())
    re = spectrum.real_hermitian()
    if descending:
        omega, im, re = omega[::-1], im[::-1], re[::-1]
    resid = _relative_deviation(block_tensors(_kk_real_part(omega, im), basis), re)
    return KKReport(max_rel_residual=resid, grid_step=h)


@dataclass(frozen=True)
class LaplaceResponse:
    """The medium in the Laplace domain: eps_hat and mu_hat.

    The medium is a tuple of coupling parts, each an independent oscillator
    family in the sector its `which` names; free carriers are one more
    electric part. eps_hat = 1 + chi_hat_e and mu_hat = 1 + chi_hat_m,
    each chi_hat the sum over the nonzero parts of its sector
    (`sector`), and the reservoir couples to the same parts. A rational part
    contributes its closed form, evaluated anywhere off its poles; any other
    goes through its kernel quadrature representation (`laplace_rep`, one
    per |k|), for which the transform of each sine mode is omega_n / (rho^2
    + omega_n^2) exactly, at Re rho > 0 only.

    horizon and omega_top bound every time and reservoir frequency the mode
    coefficients are asked for, and they alone fix the Bromwich line of a
    continuum medium (`modes.bromwich_line`), one per k, kept in `lines`.
    `run_scenario` derives them from its grids; the defaults are what a
    default config derives: t_max and reservoir_cutoff.
    """

    medium: tuple
    quad: QuadratureSpec
    horizon: float = 10.0
    omega_top: float = 50.0
    _rep_cache: dict = field(default_factory=dict, repr=False)
    lines: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValidationError(f"horizon must be finite and > 0, got {self.horizon}")
        if not (np.isfinite(self.omega_top) and self.omega_top >= 0.0):
            raise ValidationError(f"omega_top must be finite and >= 0, got {self.omega_top}")

    @property
    def is_rational(self) -> bool:
        return all(part.is_rational for part in self.medium if not part.is_zero)

    @property
    def sign_flip_symmetric(self) -> bool:
        """True when every part is (`CouplingModel.sign_flip_symmetric`):
        the mode coefficients at R k then follow from those at k
        (`observables.sign_flipped`)."""
        return all(part.sign_flip_symmetric for part in self.medium)

    def sector(self, which: str) -> tuple:
        """The nonzero parts of the medium in sector `which`, in order."""
        return tuple(p for p in self.medium if p.which == which and not p.is_zero)

    def laplace_rep(self, model, k) -> QuadRep:
        """The representation chi_hat of the continuum `model` at k is
        evaluated from, one per |k|, built on first use. Its kernel values are
        the chi(t) whose transform the mode solver inverts."""
        k = np.asarray(k, dtype=float)
        key = (model, float(k @ k))
        rep = self._rep_cache.get(key)
        if rep is None:
            # converged on probe values of rho, not on a time horizon: this
            # representation is evaluated at every Bromwich-line point, so it
            # stays as small as the Laplace transform allows
            probe = np.array([0.37, 1.1, 3.3]) * model.frequency_scale
            rep, _, _ = _converged_rep(model, k, self.quad, KERNEL_PREFACTOR,
                                       lambda rep: rep.contract(rep.nodes[None, :] / (
                                           probe[:, None] ** 2 + rep.nodes[None, :] ** 2)))
            self._rep_cache[key] = rep
        return rep

    def chi(self, which: str, k, rho) -> np.ndarray:
        """chi_hat(k, rho) of sector `which`, summed over its parts, at Re
        rho > 0; LeftHalfPlane names the first rho with Re rho <= 0, for
        every medium."""
        scalar = np.ndim(rho) == 0
        rho = np.atleast_1d(np.asarray(rho, dtype=complex))
        left = np.real(rho) <= 0.0
        if np.any(left):
            raise LeftHalfPlane(f"chi_hat is evaluated at Re rho > 0 only, "
                                f"got {complex(rho[left][0])}")
        out = np.zeros((rho.size, 3, 3), dtype=complex)
        for part in self.sector(which):
            if (form := part.closed_form) is not None:
                out += form(rho)[:, None, None] * IDENTITY3
            else:
                rep = self.laplace_rep(part, k)
                for rows in _chunks(rho.size, rep.nodes.size):
                    mat = rho[rows, None] ** 2 + rep.nodes**2
                    np.divide(rep.nodes, mat, out=mat)
                    out[rows] += rep.contract(mat)
                    del mat  # freed before the next chunk's is built
        return out[0] if scalar else out

    def chi_moments(self, which: str, k):
        """(M1, M2) of chi_hat = M1 rho^-2 + M2 rho^-3 + O(rho^-4) at large
        rho, as (3, 3) tensors: chi'(0+) and chi''(0+) of sector `which`,
        summed over its parts. A rational part's closed form s^2 / (rho^2 +
        gamma rho + omega_0^2) gives (s^2, -s^2 gamma); a Laplace
        representation gives M1 = sum_n c_n omega_n and M2 = 0."""
        out = np.zeros((2, 3, 3), dtype=complex)
        for part in self.sector(which):
            if (form := part.closed_form) is not None:
                s2, _, g = _oscillator_coefficients(form)
                out += np.array([s2, -s2 * g])[:, None, None] * IDENTITY3
            else:
                rep = self.laplace_rep(part, k)
                out[0] += rep.contract(rep.nodes[None, :])[0]
        return out

    def eps(self, k, rho) -> np.ndarray:
        return IDENTITY3 + self.chi(ELECTRIC, k, rho)

    def mu(self, k, rho) -> np.ndarray:
        return IDENTITY3 + self.chi(MAGNETIC, k, rho)


def laplace_response(
    *parts,
    quad: QuadratureSpec = QuadratureSpec(),
    horizon: float = 10.0,
    omega_top: float = 50.0,
) -> LaplaceResponse:
    """The medium of the coupling `parts` (none for the vacuum)."""
    return LaplaceResponse(medium=parts, quad=quad, horizon=float(horizon),
                           omega_top=float(omega_top))


@dataclass(frozen=True)
class QKernelReport:
    """Linear-response kernel Q and its susceptibility-derivative split."""

    k: np.ndarray
    t_grid: np.ndarray
    q_values: np.ndarray  # (n_t, 3, 3)
    chi_values: np.ndarray
    quad: QuadratureResult

    def sigma_richardson(self) -> tuple:
        """Of Q - dchi/dt relative to the peak of Q, from dchi/dt at step h
        and again at 2h on every other point, both on the grid's first odd
        number of points (so both end on one point): the Richardson value
        (4 r_h - r_2h) / 3, the worst r_h and its h^2 estimate
        (`_richardson`)."""
        n = self.t_grid.size - 1 + self.t_grid.size % 2

        def residual(s):  # on every s-th of the first n points
            t = self.t_grid[:n:s]
            return self.q_values[:n:s] - finite_difference_time(self.chi_values[:n:s], t)

        return _richardson(residual(1), residual(2), float(np.max(np.abs(self.q_values))))


def difference_step(t_grid) -> float:
    """The step h of a time grid that `finite_difference_time` accepts: at
    least 3 points (the end stencils read three), increasing and uniform by
    `uniform_step`."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3:
        raise ValidationError("finite differences need at least 3 time points")
    h = uniform_step(t)
    if h is None:
        raise ValidationError("finite differences need an increasing uniform t_grid")
    return h


def finite_difference_time(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """d/dt on a uniform grid of at least 3 points (`difference_step`)."""
    return _central_difference(values, difference_step(t_grid))


def _central_difference(values: np.ndarray, h: float) -> np.ndarray:
    """d/dt at step h: central interior, one-sided second order at the ends
    (the t = 0 end never reaches into t < 0)."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _richardson(fine: np.ndarray, coarse: np.ndarray, scale: float, order: int = 2) -> tuple:
    """Of an O(h^p) error, p = `order`, sampled at step h (`fine`) and again
    at 2h on every other point (`coarse`), relative to `scale` (1 when it is
    0): the worst Richardson value (2^p r_h - r_2h) / (2^p - 1), the worst
    r_h and the worst |r_h - r_2h| / (2^p - 1), its h^p estimate."""
    scale = scale if scale > 0.0 else 1.0
    up = 2.0**order
    return (float(np.max(np.abs(up * fine[::2] - coarse))) / ((up - 1.0) * scale),
            float(np.max(np.abs(fine))) / scale,
            float(np.max(np.abs(fine[::2] - coarse))) / ((up - 1.0) * scale))


def conductor_Q(
    model,
    k,
    t_grid,
    quad: QuadratureSpec = QuadratureSpec(),
) -> QKernelReport:
    """Cosine-kernel linear-response tensor

        Q(k, t) = 8 pi int_0^inf domega omega^3 cos(omega t) f f^dag

    together with chi(k, t) for the decomposition check Q - d(chi)/dt,
    whose residual is the implied conductivity kernel sigma(k, t)
    (`QKernelReport.sigma_richardson`).
    """
    t = _validate_t_grid(t_grid)
    k = np.asarray(k, dtype=float)

    def q_on_t(rep):
        block = (KERNEL_PREFACTOR * rep.nodes)[:, None] * rep.block
        return block_tensors(_angle_table(t, rep.nodes, None, block), rep.basis)

    # pref = 1: the one representation carries w omega^2 f f^dag, scaled per
    # consumer to Q and to chi
    rep, q_values, result = _converged_rep(model, k, quad, 1.0, q_on_t)
    chi_values = KERNEL_PREFACTOR * rep.kernel_values(t)
    return QKernelReport(
        k=k,
        t_grid=t,
        q_values=q_values,
        chi_values=chi_values,
        quad=result,
    )
