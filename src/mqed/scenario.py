"""Scenario configuration, batch execution and verification reporting.

A config is `key = value` lines in four sections: [medium], [grids],
[numerics] and [output]. `_SCHEMA` declares each [grids], [numerics] and
[output] key with its default, parser and range rule; `_PARTS` declares the
medium kinds each part (electric, magnetic, conductor) takes, and a kind's
constructor and its required and optional parameters are its row of
`couplings._KINDS`. README.md lists both in its "Scenario config keys"
tables. Every value is checked when the config is parsed, so a bad one is a
config error naming its key before any stage runs. `_CHECKS` declares each check once, with the README claim it serves;
a run writes CSV/JSON artifacts plus a manifest listing each check it ran.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .conductor import conductor_modes
from .couplings import (_KINDS, ELECTRIC, MAGNETIC, TabulatedTable, coupling_from_target,
                        coupling_product, tabulated_from_csv)
from .errors import BudgetExceeded, NumericalError, ParseError, ValidationError
from .io import write_deviation_csv, write_json, write_tensor_grid_csv, write_tensor_series_csv
from .modes import MARGINAL_POLE_TOL, lambda_reality_scan
from .noise import noise_commutator, noise_current_coefficient, pdot_continuity
from .observables import (constitutive_roundtrip, equal_time_commutators, field_representation,
                          flip_signs, maxwell_residual, reservoir_picks, sign_flipped,
                          vacuum_spectrum)
from .quadrature import QuadratureSpec, gauss_legendre
from .response import (_KERNEL_TAIL, KK_MIN_POINTS, _cutoff, _relative_deviation, check_grid,
                       chi_kernel, chi_spectrum, conductor_Q, kk_check, laplace_response)

try:
    import resource
except ImportError:  # not on Windows
    resource = None


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, c, eps0, mu0 with eps0 mu0 c^2 = 1, the units a config is read
    and its outputs are written in: natural by default, SI from :meth:`si`
    (eps0 derived from mu0 and c, so the relation holds to rounding)."""

    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "mu0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.eps0 * self.mu0 * self.c**2 - 1.0) > 1e-12:
            raise ValueError("eps0 * mu0 * c^2 must equal 1")

    @classmethod
    def si(cls) -> "PhysicalConstants":
        c = 299792458.0
        mu0 = 4.0e-7 * np.pi
        return cls(hbar=1.054571817e-34, c=c, eps0=1.0 / (mu0 * c**2), mu0=mu0)


NATURAL = PhysicalConstants()

# The unit map at the config/output boundary: the engine runs in natural
# units, hbar = c = eps0 = mu0 = 1 with time in the config's unit. A
# quantity of each family below is its natural value times hbar^a c^b
# eps0^e mu0^m in the units of a `PhysicalConstants`, with the powers
# (a, b, e, m). So the engine reads an SI k (1/m) as c k and a length (m) as
# length / c, and frequencies and times as they are; a check value is
# dimensionless.
_SI_POWERS = {
    "k": (0, -1, 0, 0),
    # f and g: a tabulated part's table, a recovered coupling
    "coupling_electric": (0.5, 1.5, 0.5, 0),
    "coupling_magnetic": (0.5, 1.5, 0, -0.5),
    # modes_*, conductor_gamma_* (gamma): the eh, ee, hh and he blocks of
    # Lambda^-1 carry 1 / eps0, c, c and 1 / mu0, zeta and eta g and f
    "gamma": (0, 0, -1, 0),
    "xi": (0, 1, 0, 0),
    "gamma_tilde": (0, 1, 0, 0),
    "xi_tilde": (0, 0, 0, -1),
    "zeta": (0.5, 2.5, 0, 0.5),
    "eta": (0.5, 1.5, -0.5, 0),
    "zeta_tilde": (0.5, 1.5, 0, -0.5),
    "eta_tilde": (0.5, 2.5, 0.5, 0),
    # hbar eps0 Im chi_hat_e / pi, hbar Im chi_hat_m / (mu0 pi), hbar c^2 O(k)
    "noise_P": (1, 0, 1, 0),
    "noise_M": (1, 0, 0, -1),
    "commutator_equal_time": (1, 1, 0, 0),
}


def _si_factor(family: str, constants: PhysicalConstants) -> float:
    """A quantity of `family` in the units of `constants` over its natural
    value (`_SI_POWERS`): exactly 1.0 in natural units."""
    units = (constants.hbar, constants.c, constants.eps0, constants.mu0)
    return float(np.prod([u**p for u, p in zip(units, _SI_POWERS[family])]))


def _to_units(constants: PhysicalConstants, family: str, values):
    """Natural-unit values of `family` in the units of `constants`, as they are if natural."""
    factor = _si_factor(family, constants)
    return values if factor == 1.0 else factor * values


def output_formats(value) -> list:
    """The formats named by a comma list of csv and json (the config's
    `formats` key and the CLI's --format); ValueError for anything else."""
    parts = [part.strip() for part in str(value).split(",")]
    if any(part not in ("csv", "json") for part in parts):
        raise ValueError(f"'{value}' is not a comma list of csv and json")
    return parts


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"'{text}' is not a finite number")
    return value


def _finite_list(text: str) -> tuple:
    return tuple(_finite(x) for x in text.split(","))


def _wave_vectors(text: str) -> list:
    triples = [_finite_list(part) for part in text.split(";")]
    if any(len(trip) != 3 for trip in triples):
        raise ValueError("k entries need three components")
    return triples


def _formats(text: str) -> str:
    output_formats(text)
    return text


# a value must be `text`; the default is the text parsed for an absent key
_Rule = namedtuple("_Rule", "text holds")
_Key = namedtuple("_Key", "default parse rule", defaults=(None,))
_POSITIVE = _Rule("> 0", lambda x: x > 0.0)
_SIZE = _Rule("> 1", lambda n: n > 1)
_START_ORDER = QuadratureSpec().start_order

_SCHEMA = {
    "grids": {
        "omega_min": _Key("0.1", _finite, _POSITIVE),
        "omega_max": _Key("5.0", _finite, _POSITIVE),
        "n_omega": _Key("200", int, _SIZE),
        "t_max": _Key("10.0", _finite, _POSITIVE),
        "n_t": _Key("2001", int, _Rule(">= 3", lambda n: n >= 3)),  # differences read three
        "reservoir_order": _Key("384", int, _SIZE),
        "reservoir_cutoff": _Key("50.0", _finite, _POSITIVE),
        "commutator_t": _Key("0,1,5", _finite_list),  # in [0, t_max]: _validate
        "k": _Key("0,0,1", _wave_vectors, _Rule("nonzero", lambda ks: all(any(k) for k in ks))),
    },
    "numerics": {
        "quad_rtol": _Key("1e-7", _finite, _POSITIVE),
        "quad_max_order": _Key("8192", int, _Rule(f">= the quadrature start order {_START_ORDER}",
                                                  lambda n: n >= _START_ORDER)),
        "cutoff_factor": _Key("50.0", _finite, _POSITIVE),
        "fdt_tol": _Key("1e-5", _finite, _POSITIVE),
        "kk_tol": _Key("1e-4", _finite, _POSITIVE),
        "commutator_tol": _Key("1e-4", _finite, _POSITIVE),
        "maxwell_tol": _Key("1e-5", _finite, _POSITIVE),
        "roundtrip_tol": _Key("1e-6", _finite, _POSITIVE),
        "continuity_tol": _Key("1e-5", _finite, _POSITIVE),
        "constitutive_tol": _Key("1e-8", _finite, _POSITIVE),
        "reality_tol": _Key("1e-13", _finite, _POSITIVE),
        "seed": _Key("20260808", int, _Rule(">= 0", lambda n: n >= 0)),
    },
    "output": {"directory": _Key("out", str), "formats": _Key("csv,json", _formats)},
}
_SECTIONS = ("medium", *_SCHEMA)

# part -> (sector, the kinds it takes, its parameters outside any kind); a
# kind is its row of `couplings._KINDS`. The conductor part is the free
# carriers, a plain Drude form (no omega_max) that joins the electric part in
# the conductor stage; electric.target_table is invert-chi's target spectrum
_PARTS = {
    "electric": (ELECTRIC, _KINDS, ("target_table",)),
    "magnetic": (MAGNETIC, _KINDS, ()),
    "conductor": (ELECTRIC,
                  {name: _KINDS[name]._replace(optional=()) for name in ("zero", "drude")}, ()),
}
_PARAMETERS = {
    "kind": _Key(None, str),
    "strength": _Key(None, _finite),
    "resonance": _Key(None, _finite, _POSITIVE),
    "width": _Key(None, _finite, _POSITIVE),
    "axis_strengths": _Key(None, _finite_list, _Rule("three values", lambda v: len(v) == 3)),
    "center": _Key(None, _finite, _POSITIVE),
    "correlation_length": _Key(None, _finite),
    "omega_max": _Key(None, _finite, _POSITIVE),
    "table": _Key(None, str),
    "target_table": _Key(None, str),
}


@dataclass(frozen=True)
class ScenarioConfig:
    medium: dict
    grids: dict
    numerics: dict
    output: dict

    def k_list(self):
        return [np.asarray(trip, dtype=float) for trip in self.grids["k"]]

    def quadrature(self) -> QuadratureSpec:
        n = self.numerics
        return QuadratureSpec(
            rtol=n["quad_rtol"], max_order=int(n["quad_max_order"]),
            cutoff_factor=n["cutoff_factor"],
        )

    def model(self, part: str, constants: PhysicalConstants = NATURAL):
        """The coupling model of the medium part electric, magnetic or
        conductor in natural units, read in the units of `constants` (a
        length, a table's |k| axis and couplings); zero for no kind."""
        which, kinds, _ = _PARTS[part]
        kind = kinds[self.medium.get(f"{part}.kind", "zero")]
        given = {name: self.medium[f"{part}.{name}"] for name in kind.required + kind.optional
                 if f"{part}.{name}" in self.medium}
        if "correlation_length" in given:  # the one length, as 1 / k
            given["correlation_length"] *= _si_factor("k", constants)
        model = kind.build(which=which, **given)
        if (table := model.table) is None:
            return model
        return replace(model, table=TabulatedTable(
            omegas=table.omegas, kmags=table.kmags / _si_factor("k", constants),
            values=table.values / _si_factor(f"coupling_{which}", constants)))


def _value(key: str, spec: _Key, text: str, line: int | None = None):
    """The value of `key` parsed from `text` and checked against its rule."""
    where = "" if line is None else f" on line {line}"
    try:
        value = spec.parse(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value{where}: {exc}", key=key) from None
    if spec.rule is not None and not spec.rule.holds(value):
        raise ValidationError(f"must be {spec.rule.text}{where}", key=key)
    return value


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config; errors carry line numbers."""
    sections = {name: {} for name in _SECTIONS}
    lines = {}  # (section, key) -> the line that set it
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section '{name}'", lineno)
            current = name
            continue
        if current is None:
            raise ParseError("key outside any section", lineno)
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got '{stripped}'", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if current == "medium":
            part, _, param = key.partition(".")
            spec = _PARAMETERS.get(param) if part in _PARTS else None
        else:
            spec = _SCHEMA[current].get(key)
        if spec is None:
            raise ValidationError(f"unknown key in [{current}] (line {lineno})", key=key)
        first = lines.setdefault((current, key), lineno)
        if first != lineno:
            raise ValidationError(f"set twice in [{current}] (lines {first} and {lineno})",
                                  key=key)
        sections[current][key] = _value(key, spec, value, lineno)

    for name, keys in _SCHEMA.items():
        sections[name] = {key: _value(key, spec, spec.default) for key, spec in keys.items()
                          } | sections[name]
    config = ScenarioConfig(**sections)
    _validate(config)
    return config


def _validate(config: ScenarioConfig):
    """The rules that read more than one key."""
    if not all(0.0 <= ti <= config.grids["t_max"] for ti in config.grids["commutator_t"]):
        raise ValidationError("commutator times must lie in [0, t_max]", key="commutator_t")
    if config.grids["omega_min"] >= config.grids["omega_max"]:
        raise ValidationError("omega_min must lie below omega_max", key="omega_min")
    medium = config.medium
    for part, (_, kinds, extra) in _PARTS.items():
        name = medium.get(f"{part}.kind", "zero")
        if name not in kinds:
            raise ValidationError(f"the {part} part takes the kinds {', '.join(kinds)}",
                                  key=f"{part}.kind")
        kind = kinds[name]
        for key in medium:
            owner, _, param = key.partition(".")
            if owner == part and param not in ("kind", *extra, *kind.required, *kind.optional):
                raise ValidationError(f"kind '{name}' takes no such parameter", key=key)
        for param in kind.required:
            if f"{part}.{param}" not in medium:
                raise ValidationError(f"kind '{name}' requires it", key=f"{part}.{param}")


def serialize_scenario(config: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    lines = []
    for name in _SECTIONS:
        data = getattr(config, name)
        lines.append(f"[{name}]")
        for key in sorted(data):
            value = data[key]
            if isinstance(value, list):
                value = "; ".join(",".join(format(c, ".17g") for c in trip) for trip in value)
            elif isinstance(value, tuple):
                value = ",".join(format(v, ".17g") for v in value)
            elif isinstance(value, float):
                value = format(value, ".17g")
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


@dataclass
class RunManifest:
    config_text: str
    constants: str = "natural"
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    error: dict | None = None

    def add_check(self, name, claim, value, tol, details=None):
        """Lists a check, its README claim and its margin max_error / tolerance."""
        self.checks.append({
            "name": name, "passed": bool(value <= tol), "max_error": float(value),
            "tolerance": float(tol), "claim": claim, "margin": float(value) / float(tol),
            **({"details": details} if details else {}),
        })

    @contextmanager
    def timed(self, name):
        """Records the wall time of the block as timings[name], and the
        process's peak RSS so far when it exits as peak_rss_mb[name] (a
        high-water mark: the first stage that reaches the run's final value
        set it)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = round(time.perf_counter() - start, 6)
            if resource is not None:
                # ru_maxrss counts bytes on macOS and KiB elsewhere
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.peak_rss_mb[name] = round(peak / (2**20 if sys.platform == "darwin"
                                                       else 2**10), 3)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def payload(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "constants": self.constants,
            "config": self.config_text,
            "checks": self.checks,
            "outputs": self.outputs,
            "timings": self.timings,
            **({"peak_rss_mb": self.peak_rss_mb} if resource is not None else {}),
            "quadrature": self.quadrature,
            "error": self.error,
        }


@contextmanager
def _recorded_run(config: ScenarioConfig, out_dir, constants: PhysicalConstants):
    """The manifest of one run and its writer: emit(name, writer, *args)
    writes the output `name` when the config's formats include its
    extension, and lists it in the manifest; with `copies`, (name, signs),
    the writer writes them too, in the same call (`io._write_table`), and
    each is listed. The manifest is written when the run completes, and when
    a NumericalError ends it, after recording the error; the error then
    propagates."""
    out_dir = out_dir or config.output["directory"]
    formats = output_formats(config.output["formats"])
    manifest = RunManifest(
        config_text=serialize_scenario(config),
        constants="natural" if constants is NATURAL else "si",
    )

    def emit(name, writer, *args, copies=()):
        if name.rsplit(".", 1)[1] in formats:
            if copies:
                args = (*args, [(os.path.join(out_dir, n), signs) for n, signs in copies])
            writer(os.path.join(out_dir, name), *args)
            manifest.outputs += [name, *(n for n, _ in copies)]

    try:
        yield manifest, emit
    except NumericalError as exc:
        manifest.error = {"module": type(exc).__module__, "type": type(exc).__name__,
                          "message": str(exc)}
        emit("manifest.json", write_json, manifest.payload())
        raise
    emit("manifest.json", write_json, manifest.payload())


def part_kernel(model, k, t_grid=None, quad: QuadratureSpec = QuadratureSpec()):
    """The susceptibility kernel of one medium part at k, the one every check
    of a run reads: on 2200 points to where it has decayed to `_KERNEL_TAIL`
    of its peak, or on t_grid for a zero part, which has no such time."""
    if not model.is_zero:
        t_grid = np.linspace(0.0, model.suggested_t_max(_KERNEL_TAIL), 2200)
    return chi_kernel(model, k, t_grid, quad=quad)


# At each k a stage's builder writes its outputs and returns its product for
# one medium part (None for a zero part: nothing to check) from the product of
# the stage it reads, and the stage's checks measure it in `_CHECKS` order.
# Both reach the layer functions through this module's globals, so a rebinding
# of them (a tracer) sees every call.

def _chi_products(run, part, _):
    """A part's kernel and spectrum, which its chi and noise checks read."""
    model = run.models[part]
    kernel = part_kernel(model, run.k, run.t_grid, run.quad)
    run.manifest.quadrature[f"chi_{part}_{run.tag}"] = kernel.metadata()
    run.emit(f"chi_{part}_{run.tag}.csv", write_tensor_series_csv, "t", kernel.t_grid,
             kernel.values)
    spectrum = chi_spectrum(kernel, run.omega)
    run.emit(f"spectrum_{part}_{run.tag}.csv", write_tensor_series_csv, "omega",
             spectrum.omega_grid, spectrum.values)
    return None if model.is_zero else (kernel, spectrum)


def _noise_products(run, part, chi):
    """A part's kernel and noise commutator report."""
    if chi is None:
        return None
    rep = noise_commutator(run.models[part], chi[1])
    _emit_report(run, f"noise_{_POLARIZATION[part]}", "omega", rep)
    return chi[0], rep


def _orbit(k: np.ndarray) -> tuple:
    """The key of k's orbit under the sign flips: |k| componentwise, and the
    sign of each zero component, which maps with R_ii = +1."""
    return (*np.abs(k), *(np.signbit(k) & (k == 0.0)))


def _representation(run, name, *grids):
    """The field representation at run.k on the (t, omega_q nodes, weights)
    `grids` of the grid `name` (modes or maxwell), and its manifest record:
    `reused` when it is mapped by a sign flip (`sign_flipped`) from its
    orbit's solve, which run_scenario keeps while a later k of the run is in
    the orbit (run.later)."""
    kept = run.solved.get(run.orbit, {})
    if name in kept:
        tag, source = kept[name]
        flip = np.where(run.k == source.k, 1.0, -1.0)
        return sign_flipped(source, flip), {
            "reused": {"from": tag, "sign_flip": flip.astype(int).tolist()}}
    rep = field_representation(run.response, run.k, *grids)
    if run.later:
        run.solved.setdefault(run.orbit, {})[name] = run.tag, rep
    return rep, {}


def _modes_products(run, part, _):
    """The modes-grid field representation, which the commutators read.

    The first k of an orbit writes the mode tables of its later k too, each
    family X times its signs under the flip (`flip_signs`), from the same
    cells (`io._write_table`); a mapped k then writes none. run.units
    multiplies by a positive constant, so it commutes with the flip."""
    rep, record = _representation(run, "modes", run.t_modes, run.nodes, run.weights)
    mc = rep.coeffs
    run.manifest.quadrature[f"modes_{run.tag}"] = {**mc.metadata, **record}
    if record:
        return rep
    flips = [(tag, np.where(k == run.k, 1.0, -1.0)) for tag, k in run.later]

    def copies(name):
        return [(f"modes_{name}_{tag}.csv", flip_signs(name, flip)) for tag, flip in flips]

    for name in ("gamma", "xi", "gamma_tilde", "xi_tilde"):
        run.emit(f"modes_{name}_{run.tag}.csv", write_tensor_series_csv, "t", mc.t_grid,
                 run.units(name, getattr(mc, name)), copies=copies(name))
    for name in ("zeta", "eta", "zeta_tilde", "eta_tilde") if mc.omega_q_grid.size else ():
        run.emit(f"modes_{name}_{run.tag}.csv", write_tensor_grid_csv, ("omega_q", "t"),
                 (mc.omega_q_grid, mc.t_grid), run.units(name, getattr(mc, name)),
                 copies=copies(name))
    return rep


def _conductor_products(run, part, _):
    """The mode coefficients of the bound and free carriers together."""
    mc = conductor_modes(run.cond, run.k, run.t_grid[:: max(1, run.t_grid.size // 64)],
                         run.nodes)
    run.manifest.quadrature[f"conductor_{run.tag}"] = dict(mc.metadata)
    run.emit(f"conductor_gamma_{run.tag}.csv", write_tensor_series_csv, "t", mc.t_grid,
             run.units("gamma", mc.gamma))
    return mc


def _emit_report(run, family, label, report):
    """A commutator report's deviation curve and lhs tensors as CSV, the
    report as one-line JSON, in the run's units: `family` of `_SI_POWERS`."""
    report = replace(report, k=run.units("k", report.k), lhs=run.units(family, report.lhs),
                     rhs=run.units(family, report.rhs))
    scale = float(np.max(np.linalg.norm(report.rhs, axis=(1, 2)))) or 1.0
    deviation = np.linalg.norm(report.lhs - report.rhs, axis=(1, 2)) / scale
    name = f"{family}_{run.tag}"
    run.emit(f"{name}.csv", write_deviation_csv, label, report.grid, deviation, report.lhs)
    run.emit(f"{name}.json", lambda path: write_json(path, asdict(report), indent=None))


def _steps(grid: str, span: float, step: float) -> int:
    """The fewest steps of at most `step` over `span`, even (the Maxwell residual reads
    every other point too); BudgetExceeded naming the grid past `_CHECK_POINTS`."""
    n = 2 * int(np.ceil(0.5 * span / step))
    if n >= _CHECK_POINTS:
        raise BudgetExceeded(f"the {grid} grid needs {n:.4g} steps, above its budget "
                             f"_CHECK_POINTS = {_CHECK_POINTS}")
    return n


def _kk(run, part, got):
    # to the top of the kernel's rule, past which Im chi_hat is the truncation's
    # ripple (a closed form takes the same grid), at a step pi / (its horizon)
    top = _cutoff(run.models[part], run.quad)
    n = max(KK_MIN_POINTS, _steps("Kramers-Kronig", top, np.pi / got[0].t_grid[-1]))
    report = kk_check(chi_spectrum(got[0], (np.arange(n) + 0.5) * top / n))
    return _Measure(report.max_rel_residual, {"n_omega": n, "omega_max": top,
                                              "step": report.grid_step})


def _equal_time(run, part, got):
    comm = equal_time_commutators(got, run.t_set)
    _emit_report(run, "commutator_equal_time", "t", comm)
    return _Measure(comm.max_rel_err, {"minus_k": comm.details["minus_k"]})


def _vacuum_psd(run, part, got):
    eigs = np.linalg.eigvalsh(vacuum_spectrum(got, (0.0, 0.0, 0.0), 0.0))
    return _Measure(max(0.0, -float(np.min(eigs))), None, float(np.max(np.abs(eigs))))


def _maxwell(run, part, got):
    # on [0, t_max] at a step of _MAXWELL_KAPPA over the fastest rate of the
    # channels, |k| plus the top node of the run's small reservoir sample
    nodes, weights = run.maxwell_sample
    t_max = run.grids["t_max"]
    rate = float(np.linalg.norm(run.k)) + float(np.max(nodes))
    t = np.linspace(0.0, t_max, _steps("Maxwell", t_max, _MAXWELL_KAPPA / rate) + 1)
    rep, record = _representation(run, "maxwell", t, nodes, weights)
    res = maxwell_residual(rep)
    return _Measure(res.max_residual, {"plain": res.plain, "h_estimate": res.h_estimate,
                                       "n_t": t.size, "t_max": t_max, "channels": res.channels,
                                       **record})


def _continuity(run, part, got):
    rep = pdot_continuity(run.models[part], got[0])
    return _Measure(rep.relative_jump, {"dt": rep.dt, "h_estimate": rep.h_estimate})


def _constitutive(run, part, got):
    res = constitutive_roundtrip(run.models[part], got[0], check_grid(run.models[part]))
    return _Measure(res.residual, {"plain": res.plain, "h_estimate": res.h_estimate})


_BOTH, _MEDIUM = ("electric", "magnetic"), ("medium",)
_POLARIZATION = {"electric": "P", "magnetic": "M"}
# stage -> (the parts it builds a product for, its builder
# (run, part, product of the stage it reads), that stage)
_STAGES = {
    "chi": (_BOTH, _chi_products, None),
    "noise": (_BOTH, _noise_products, "chi"),
    "modes": (_MEDIUM, _modes_products, None),
    "commutators": (_MEDIUM, lambda run, part, modes: modes, "modes"),
    "conductor": (_MEDIUM, _conductor_products, None),
}

# the Maxwell step times its channels' fastest rate; the bundled media then read < 1e-6
_MAXWELL_KAPPA = 0.019
# the most points the Maxwell and Kramers-Kronig grids may take
_CHECK_POINTS = 1 << 15

# The tolerances no config key sets, each with one value in use.
# vacuum_spectrum is a positively weighted sum of v v^dag, so a negative
# eigenvalue is rounding, relative to the largest one.
_PSD_RTOL = 1e-10
# q_decomposition takes dchi/dt by second-order differences on the kernel's
# t grid, coarser than the Maxwell grid, so it gets ten times maxwell_tol.
_Q_TOL_FACTOR = 10.0

# a check's value, its details and the scale its tolerance is relative to
_Measure = namedtuple("_Measure", "value details scale", defaults=(None, 1.0))
# A manifest check: its name (formatted with the part, its polarization and
# the k tag), stage, parts, README claim, tolerance ([numerics] key, None for
# 1; times `factor` and the measured scale) and measure(run, part, got). With
# reads=False it does not read its stage's product `got`, which is freed first.
_Check = namedtuple("_Check", "name stage parts claim tol measure factor reads",
                    defaults=(1.0, True))
_HEISENBERG = "Maxwell and constitutive equations as Heisenberg equations"
_CANONICAL = "medium independence of the canonical structure"
_ROUNDTRIP = _Check(
    "roundtrip_{part}_{tag}", "chi", _BOTH, "susceptibilities from the coupling tensors",
    "roundtrip_tol", lambda run, part, got: _Measure(_roundtrip_error(
        run.models[part], got[1], run.omega, run.k)))
_CHECKS = (
    _Check("kk_{part}_{tag}", "chi", _BOTH, "causality", "kk_tol", _kk),
    _ROUNDTRIP,
    _Check("fdt_{pol}_{tag}", "noise", _BOTH, "fluctuation–dissipation", "fdt_tol",
           lambda run, part, got: _Measure(got[1].max_rel_err)),
    _Check("fdt_J_{tag}", "noise", ("electric",), "fluctuation–dissipation", "fdt_tol",
           lambda run, part, got: _Measure(noise_current_coefficient(got[1]).max_rel_err)),
    _Check("pdot_continuity_{tag}", "noise", ("electric",), _HEISENBERG, "continuity_tol",
           _continuity),
    _Check("constitutive_roundtrip_{tag}", "noise", ("electric",), _HEISENBERG,
           "constitutive_tol", _constitutive),
    # ten random sign flips of k: each draw has k's own k . k, so it reads
    # the representation built for k, inside any table that covers k; rho
    # on [0.1, 5] times the medium's frequency scale
    _Check("lambda_reality_{tag}", "modes", _MEDIUM, _HEISENBERG, "reality_tol",
           lambda run, part, got: _Measure(lambda_reality_scan(
               run.response, run.rng.choice((-1.0, 1.0), size=(10, 3)) * run.k,
               run.rng.uniform(0.1, 5.0, size=10) * run.scale).max_deviation), reads=False),
    _Check("equal_time_commutator_{tag}", "commutators", _MEDIUM, _CANONICAL,
           "commutator_tol", _equal_time),
    _Check("vacuum_spectrum_psd_{tag}", "commutators", _MEDIUM, _CANONICAL, None, _vacuum_psd,
           _PSD_RTOL),
    _Check("maxwell_residual_{tag}", "commutators", _MEDIUM, _HEISENBERG, "maxwell_tol",
           _maxwell, reads=False),
    # a stable medium's mode poles lie at Re p <= 0: past the margin the
    # modes metadata counts unstable poles by, a pole fails the check too
    _Check("conductor_poles_{tag}", "conductor", _MEDIUM, "conductor pathway", None,
           lambda run, part, got: _Measure(float(got.metadata.get("max_re_pole", 0.0))),
           MARGINAL_POLE_TOL),
    # only the bound part: its Q must be dchi/dt (a zero part reads 0)
    _Check("q_decomposition_{tag}", "conductor", _MEDIUM, "conductor pathway", "maxwell_tol",
           lambda run, part, got: _Measure(conductor_Q(
               run.models["electric"], run.k, run.t_grid, run.quad).sigma_residual),
           _Q_TOL_FACTOR, reads=False),
)


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    constants: PhysicalConstants = NATURAL,
    stages=("chi", "noise", "modes", "commutators", "conductor"),
) -> RunManifest:
    """Execute the configured checks and write artifacts + manifest.

    The config is read, and the outputs written, in the units of `constants`
    (`_SI_POWERS`). A stage runs with the stage it reads (noise reads chi,
    commutators read modes); the conductor stage runs only with free
    carriers. Each product is
    freed after its last reader, so the working set is the largest stage's.
    The run builds one medium, and one more with free carriers: the
    equal-time commutators compare with their closed-form free-space value.
    On a medium with the sign flips of k as its symmetry, the modes-grid and
    Maxwell-grid representations are solved once per orbit of the k list,
    and mapped at its later members (`_representation`).

    Deterministic for a fixed config and version: CSV bytes depend only on
    the numbers produced, and all random sampling is seeded from the config.
    """
    grids = config.grids
    run = SimpleNamespace(quad=config.quadrature(), grids=grids, num=config.numerics,
                          units=partial(_to_units, constants))
    run.models = models = {part: config.model(part, constants) for part in _BOTH}
    free = config.model("conductor", constants)
    ks = [k / _si_factor("k", constants) for k in config.k_list()]
    # the medium's frequency scale (a vacuum's: its largest |k|)
    run.scale = max((m.frequency_scale for m in (*models.values(), free) if not m.is_zero),
                    default=max(float(np.linalg.norm(k)) for k in ks))
    res_cut = 5.0 * run.scale  # the top of the Maxwell residual's reservoir sample
    # the latest time and the top reservoir frequency any stage asks the
    # modes for: they fix the Bromwich line of a continuum medium
    bounds = {"horizon": grids["t_max"],
              "omega_top": max(grids["reservoir_cutoff"], res_cut)}
    # the medium of the conductor stage: the free carriers as one more
    # electric part; None without free carriers
    run.cond = None if free.is_zero else laplace_response(
        models["electric"], free, models["magnetic"], quad=run.quad, **bounds)
    run.response = laplace_response(*models.values(), quad=run.quad, **bounds)
    run.rng = np.random.default_rng(int(run.num["seed"]))
    run.omega = np.linspace(grids["omega_min"], grids["omega_max"], int(grids["n_omega"]))
    run.t_grid = np.linspace(0.0, grids["t_max"], int(grids["n_t"]))
    run.t_modes = t_modes = np.linspace(0.0, grids["t_max"], 81)
    run.t_set = [t_modes[np.argmin(np.abs(t_modes - ti))] for ti in grids["commutator_t"]]
    # the reservoir rule of the modes, commutators and conductor stages
    run.nodes, run.weights = gauss_legendre(int(grids["reservoir_order"]), 0.0,
                                            grids["reservoir_cutoff"])
    # the Maxwell residual's reservoir sample at moderate frequencies: two
    # nodes of a 16-node rule
    nodes, weights = gauss_legendre(16, 0.0, res_cut)
    picks = reservoir_picks(nodes.size, 2)
    run.maxwell_sample = nodes[picks], weights[picks]
    wanted = {*stages, *(_STAGES[name][2] for name in stages)}
    ran = [name for name in _STAGES if name in wanted and (name != "conductor" or run.cond)]
    kept = {_STAGES[name][2] for name in ran}
    orbits = [_orbit(k) if run.response.sign_flip_symmetric else None for k in ks]
    run.solved = {}  # orbit -> {grid: (tag, representation)} (`_representation`)
    with _recorded_run(config, out_dir, constants) as (run.manifest, run.emit):
        for ik, k in enumerate(ks):
            run.k, run.tag, run.orbit = k, f"k{ik}", orbits[ik]
            # the later k of the run in this k's orbit, (tag, k)
            run.later = [(f"k{j}", ks[j]) for j in range(ik + 1, len(ks))
                         if run.orbit is not None and orbits[j] == run.orbit]
            held = {}  # (stage, part) -> the product a later stage reads
            for name in ran:
                parts, build, reads = _STAGES[name]
                with run.manifest.timed(f"{name}_{run.tag}"):
                    for part in parts:
                        got = build(run, part, held.pop((reads, part), None))
                        if name in kept:
                            held[name, part] = got
                        names = {"part": part, "pol": _POLARIZATION.get(part), "tag": run.tag}
                        for check in _CHECKS if got is not None else ():
                            if check.stage != name or part not in check.parts:
                                continue
                            if not check.reads:
                                got = None
                            value, details, scale = check.measure(run, part, got)
                            tol = (run.num[check.tol] if check.tol else 1.0) * check.factor
                            run.manifest.add_check(check.name.format(**names), check.claim,
                                                   value, tol * scale, details)
                        del got
            # no later k reads this k's lines, nor its orbit's solves after its last member
            for medium in filter(None, (run.response, run.cond)):
                medium.lines.clear()
            if not run.later:
                run.solved.pop(run.orbit, None)
    return run.manifest


def _roundtrip_error(model, spectrum, omega, k) -> float:
    rec = coupling_from_target(spectrum.imag_hermitian(), omega, k)
    return _relative_deviation(rec @ np.conj(np.transpose(rec, (0, 2, 1))),
                               coupling_product(model, omega, k))


def invert_chi(config: ScenarioConfig, out_dir=None,
               constants: PhysicalConstants = NATURAL) -> RunManifest:
    """Recover coupling tensors from a target dissipation spectrum.

    With electric.target_table configured the target Im chi_hat is read from
    CSV (omega, |k| grid); a non-PSD target raises NotPSD with provenance in
    the manifest. Otherwise the configured analytic medium is round-tripped.
    The config is read, and the couplings written, in the units of `constants`.
    """
    quad = config.quadrature()
    num = config.numerics
    omega = np.linspace(config.grids["omega_min"], config.grids["omega_max"],
                        int(config.grids["n_omega"]))
    # read once: every k interpolates the same table or kernel model
    target_path = config.medium.get("electric.target_table")
    if target_path is not None:
        table = tabulated_from_csv(target_path, which=ELECTRIC).table
    else:
        model = config.model("electric", constants)
        if model.is_zero:
            raise ValidationError("invert-chi needs an electric medium or target_table")
    with _recorded_run(config, out_dir, constants) as (manifest, emit):
        for ik, k in enumerate(config.k_list()):
            tag = f"k{ik}"
            with manifest.timed(f"invert_{tag}"):
                if target_path is not None:
                    rec = coupling_from_target(table.interpolate(omega, float(np.linalg.norm(k))),
                                               omega, k)
                    emit(f"recovered_coupling_{tag}.csv", write_tensor_series_csv, "omega", omega,
                         _to_units(constants, "coupling_electric", rec))
                else:
                    k = k / _si_factor("k", constants)
                    spectrum = chi_spectrum(part_kernel(model, k, quad=quad), omega)
                    err = _roundtrip_error(model, spectrum, omega, k)
                    manifest.add_check(f"roundtrip_{tag}", _ROUNDTRIP.claim, err,
                                       num[_ROUNDTRIP.tol])
    return manifest
