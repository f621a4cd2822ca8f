"""Scenario configuration, batch execution and verification reporting.

A config is `key = value` lines in four sections: [medium], [grids],
[numerics] and [output]. `_SCHEMA` declares each [grids], [numerics] and
[output] key with its default, parser and range rule; `_PARTS` declares the
medium kinds each part (electric, magnetic, conductor) takes, each with its
constructor and its required and optional parameters. README.md lists both
in its "Scenario config keys" table. Every value is checked when the config
is parsed, so a bad one is a config error naming its key before any stage
runs. Running a scenario writes CSV/JSON artifacts plus a manifest that
lists every executed check exactly once.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .conductor import conductor_modes, q_kernel_consistency
from .couplings import (
    ELECTRIC,
    MAGNETIC,
    combined_electric,
    coupling_from_target,
    coupling_product,
    drude,
    gaussian_anisotropic,
    lorentz_isotropic,
    tabulated_from_csv,
    zero_coupling,
)
from .errors import NumericalError, ParseError, ValidationError
from .io import write_deviation_csv, write_json, write_tensor_grid_csv, write_tensor_series_csv
from .modes import METHODS, lambda_reality_scan, resolve_method
from .noise import noise_commutator, noise_current_coefficient, pdot_continuity
from .observables import (
    constitutive_roundtrip,
    equal_time_commutators,
    field_representation,
    maxwell_residual,
    reservoir_picks,
    vacuum_spectrum,
)
from .quadrature import QuadratureSpec, gauss_legendre
from .response import (KK_MIN_POINTS, KernelStore, chi_kernel, chi_spectrum, kk_check,
                       laplace_response)
from .tensors import NATURAL, PhysicalConstants


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
_TIME_SIZE = _Rule(">= 3", lambda n: n >= 3)  # finite_difference_time reads three points
_START_ORDER = QuadratureSpec().start_order

_SCHEMA = {
    "grids": {
        "omega_min": _Key("0.1", _finite, _POSITIVE),
        "omega_max": _Key("5.0", _finite, _POSITIVE),
        "n_omega": _Key("200", int, _SIZE),
        "t_max": _Key("10.0", _finite, _POSITIVE),
        "n_t": _Key("2001", int, _TIME_SIZE),
        "reservoir_order": _Key("384", int, _SIZE),
        "reservoir_cutoff": _Key("50.0", _finite, _POSITIVE),
        "commutator_t": _Key("0,1,5", _finite_list),  # in [0, t_max]: _validate
        "kk_omega_max": _Key("50.0", _finite, _POSITIVE),
        "kk_n_omega": _Key("4096", int, _Rule(f">= {KK_MIN_POINTS}", lambda n: n >= KK_MIN_POINTS)),
        "maxwell_t_max": _Key("6.0", _finite, _POSITIVE),
        "maxwell_n_t": _Key("8001", int, _TIME_SIZE),
        "k": _Key("0,0,1", _wave_vectors, _Rule("nonzero", lambda ks: all(any(k) for k in ks))),
    },
    "numerics": {
        "laplace": _Key("auto", str, _Rule(f"one of {', '.join(METHODS)}", METHODS.__contains__)),
        "quad_rtol": _Key("1e-7", _finite, _POSITIVE),
        "quad_max_order": _Key("8192", int, _Rule(f">= the quadrature start order {_START_ORDER}",
                                                  lambda n: n >= _START_ORDER)),
        "cutoff_factor": _Key("50.0", _finite, _POSITIVE),
        "tail_rtol": _Key("1e-6", _finite, _POSITIVE),
        "continuity_dt": _Key("1e-3", _finite, _POSITIVE),
        "fdt_tol": _Key("1e-5", _finite, _POSITIVE),
        "kk_tol": _Key("1e-3", _finite, _POSITIVE),
        "commutator_tol": _Key("1e-4", _finite, _POSITIVE),
        "maxwell_tol": _Key("1e-5", _finite, _POSITIVE),
        "roundtrip_tol": _Key("1e-6", _finite, _POSITIVE),
        "continuity_tol": _Key("1e-5", _finite, _POSITIVE),
        "constitutive_tol": _Key("1e-5", _finite, _POSITIVE),
        "reality_tol": _Key("1e-13", _finite, _POSITIVE),
        "seed": _Key("20260808", int, _Rule(">= 0", lambda n: n >= 0)),
    },
    "output": {"directory": _Key("out", str), "formats": _Key("csv,json", _formats)},
}
_SECTIONS = ("medium", *_SCHEMA)

# a medium kind: its constructor, called with which=, constants= and the
# parameters the config gives, and its required and optional parameters
_Kind = namedtuple("_Kind", "build required optional", defaults=((), ()))
_KINDS = {
    "zero": _Kind(lambda which, constants: zero_coupling(which)),
    "lorentz_isotropic": _Kind(lorentz_isotropic, ("strength", "resonance", "width"),
                               ("omega_max",)),
    "drude": _Kind(drude, ("strength", "width"), ("omega_max",)),
    "gaussian_anisotropic": _Kind(gaussian_anisotropic, ("axis_strengths", "center"),
                                  ("correlation_length", "omega_max")),
    "tabulated": _Kind(lambda which, constants, table: tabulated_from_csv(table, which=which),
                       ("table",)),
}
# part -> (sector, the kinds it takes, its parameters outside any kind): the
# conductor part is the free carriers, a plain Drude form that joins the
# electric part in the conductor stage; electric.target_table is invert-chi's
# target spectrum
_PARTS = {
    "electric": (ELECTRIC, _KINDS, ("target_table",)),
    "magnetic": (MAGNETIC, _KINDS, ()),
    "conductor": (ELECTRIC, {"zero": _KINDS["zero"], "drude": _Kind(drude, ("strength", "width"))},
                  ()),
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

    def model(self, part: str, constants: PhysicalConstants):
        """The coupling model of the medium part electric, magnetic or
        conductor; zero when the config names no kind for it."""
        which, kinds, _ = _PARTS[part]
        kind = kinds[self.medium.get(f"{part}.kind", "zero")]
        given = {name: self.medium[f"{part}.{name}"] for name in kind.required + kind.optional
                 if f"{part}.{name}" in self.medium}
        return kind.build(which=which, constants=constants, **given)


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
    quadrature: dict = field(default_factory=dict)
    error: dict | None = None

    def add_check(self, name, value, tol, details=None):
        entry = {
            "name": name,
            "passed": bool(value <= tol),
            "max_error": float(value),
            "tolerance": float(tol),
        }
        if details:
            entry["details"] = details
        self.checks.append(entry)
        return entry["passed"]

    @contextmanager
    def timed(self, name):
        """Records the wall time of the block as timings[name]."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = round(time.perf_counter() - start, 6)

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
            "quadrature": self.quadrature,
            "error": self.error,
        }


@contextmanager
def _recorded_run(config: ScenarioConfig, out_dir, constants: PhysicalConstants):
    """The manifest of one run and its writer: emit(name, writer, *args)
    writes the output `name` when the config's formats include its
    extension, and lists it in the manifest. The manifest is written when the
    run completes, and when a NumericalError ends it, after recording the
    error; the error then propagates."""
    out_dir = out_dir or config.output["directory"]
    formats = output_formats(config.output["formats"])
    manifest = RunManifest(
        config_text=serialize_scenario(config),
        constants="natural" if constants is NATURAL else "si",
    )

    def emit(name, writer, *args):
        if name.rsplit(".", 1)[1] in formats:
            writer(os.path.join(out_dir, name), *args)
            manifest.outputs.append(name)

    try:
        yield manifest, emit
    except NumericalError as exc:
        manifest.error = {
            "module": type(exc).__module__,
            "type": type(exc).__name__,
            "message": str(exc),
        }
        emit("manifest.json", write_json, manifest.payload())
        raise
    emit("manifest.json", write_json, manifest.payload())


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    constants: PhysicalConstants = NATURAL,
    stages=("chi", "noise", "modes", "commutators", "conductor"),
) -> RunManifest:
    """Execute the configured checks and write artifacts + manifest.

    Deterministic for a fixed config and version: CSV bytes depend only on
    the numbers produced, and all random sampling is seeded from the config.
    """
    quad = config.quadrature()
    num = config.numerics
    grids = config.grids
    model_e = config.model("electric", constants)
    model_m = config.model("magnetic", constants)
    # the medium of the conductor stage: the bound electric part and the free
    # carriers as one electric coupling, no magnetic part; None without free
    # carriers
    free = config.model("conductor", constants)
    cond = None if free.is_zero else laplace_response(
        combined_electric(model_e, free), zero_coupling(MAGNETIC), constants=constants, quad=quad)
    response = laplace_response(model_e, model_m, constants=constants, quad=quad)
    try:
        method = resolve_method(response, num["laplace"])
    except ValidationError as exc:
        raise ValidationError(str(exc), key="laplace") from None
    vacuum = laplace_response(zero_coupling(ELECTRIC), zero_coupling(MAGNETIC),
                              constants=constants, quad=quad)
    rng = np.random.default_rng(int(num["seed"]))
    # one kernel representation per (medium, k), shared by the time-domain
    # consumers of this run
    kernels = KernelStore()

    omega = np.linspace(grids["omega_min"], grids["omega_max"], int(grids["n_omega"]))
    t_grid = np.linspace(0.0, grids["t_max"], int(grids["n_t"]))
    n_kk = int(grids["kk_n_omega"])
    kk_grid = (np.arange(n_kk) + 0.5) * grids["kk_omega_max"] / n_kk
    # the scale of the Maxwell residual's reservoir sample
    models = [m for m in (model_e, model_m, free) if not m.is_zero]
    # the reservoir rule of the modes, commutators and conductor stages
    nodes, weights = gauss_legendre(int(grids["reservoir_order"]), 0.0, grids["reservoir_cutoff"])

    with _recorded_run(config, out_dir, constants) as (manifest, emit):
        for ik, k in enumerate(config.k_list()):
            tag = f"k{ik}"

            if "chi" in stages:
                with manifest.timed(f"chi_{tag}"):
                    for model, name in ((model_e, "electric"), (model_m, "magnetic")):
                        t_ker = np.linspace(0.0, model.suggested_t_max(1e-11), 2200) \
                            if not model.is_zero else t_grid
                        kernel = kernels.kernel(model, k, t_ker, constants=constants, quad=quad)
                        manifest.quadrature[f"chi_{name}_{tag}"] = kernel.metadata()
                        emit(f"chi_{name}_{tag}.csv", write_tensor_series_csv, "t",
                             kernel.t_grid, kernel.values)
                        spectrum = chi_spectrum(kernel, omega, tail_rtol=num["tail_rtol"])
                        emit(f"spectrum_{name}_{tag}.csv", write_tensor_series_csv,
                             "omega", spectrum.omega_grid, spectrum.values)
                        if not model.is_zero:
                            kk = kk_check(chi_spectrum(kernel, kk_grid, tail_rtol=num["tail_rtol"]))
                            manifest.add_check(f"kk_{name}_{tag}", kk.max_rel_residual,
                                               num["kk_tol"])
                            rt = _roundtrip_error(model, spectrum, omega, k, constants)
                            manifest.add_check(f"roundtrip_{name}_{tag}", rt,
                                               num["roundtrip_tol"])

            if "noise" in stages:
                with manifest.timed(f"noise_{tag}"):
                    for model, name in ((model_e, "P"), (model_m, "M")):
                        if model.is_zero:
                            continue
                        rep = noise_commutator(model, k, omega, constants=constants,
                                               quad=quad, kernels=kernels)
                        manifest.add_check(f"fdt_{name}_{tag}", rep.max_rel_err, num["fdt_tol"])
                        emit(f"noise_{name}_{tag}.csv", write_deviation_csv, "omega", rep.grid,
                             _deviation_curve(rep), rep.lhs)
                        emit(f"noise_{name}_{tag}.json", _write_report, rep)
                        if name == "M":
                            continue
                        manifest.add_check(f"fdt_J_{tag}", noise_current_coefficient(rep).max_rel_err,
                                           num["fdt_tol"])
                        cont = pdot_continuity(model_e, k, constants=constants,
                                               dt=num["continuity_dt"], quad=quad,
                                               kernels=kernels)
                        manifest.add_check(f"pdot_continuity_{tag}", cont.relative_jump,
                                           num["continuity_tol"])
                        roundtrip = constitutive_roundtrip(
                            model_e, k,
                            np.linspace(0.0, 20.0 / model_e.frequency_scale, 3001),
                            constants=constants, quad=quad, kernels=kernels,
                        )
                        manifest.add_check(f"constitutive_roundtrip_{tag}",
                                           roundtrip.residual, num["constitutive_tol"])

            if "modes" in stages or "commutators" in stages:
                with manifest.timed(f"modes_{tag}"):
                    scan = lambda_reality_scan(
                        response,
                        rng.normal(size=(10, 3)),
                        rng.uniform(0.1, 5.0, size=10),
                    )
                    manifest.add_check(f"lambda_reality_{tag}", scan.max_deviation,
                                       num["reality_tol"])
                    t_modes = np.linspace(0.0, grids["t_max"], 81)
                    rep_field = field_representation(
                        response, k, t_modes, nodes, weights, method=method,
                    )
                    mc = rep_field.coeffs
                    manifest.quadrature[f"modes_{tag}"] = dict(mc.metadata)
                    if "modes" in stages:
                        for name in ("gamma", "xi", "gamma_tilde", "xi_tilde"):
                            emit(f"modes_{name}_{tag}.csv", write_tensor_series_csv, "t",
                                 mc.t_grid, getattr(mc, name))
                        for name in ("zeta", "eta", "zeta_tilde", "eta_tilde"):
                            if mc.omega_q_grid.size:
                                emit(f"modes_{name}_{tag}.csv", write_tensor_grid_csv,
                                     ("omega_q", "t"), (mc.omega_q_grid, mc.t_grid),
                                     getattr(mc, name))

            if "commutators" in stages:
                with manifest.timed(f"commutators_{tag}"):
                    t_set = [t_modes[np.argmin(np.abs(t_modes - ti))]
                             for ti in grids["commutator_t"]]
                    baseline = field_representation(vacuum, k, t_set, nodes, weights)
                    comm = equal_time_commutators(rep_field, t_set, baseline=baseline)
                    manifest.add_check(f"equal_time_commutator_{tag}", comm.max_rel_err,
                                       num["commutator_tol"])
                    emit(f"commutator_equal_time_{tag}.csv", write_deviation_csv, "t",
                         comm.grid, _deviation_curve(comm), comm.lhs)
                    emit(f"commutator_equal_time_{tag}.json", _write_report, comm)
                    spec_v = vacuum_spectrum(rep_field, (0.0, 0.0, 0.0), 0.0)
                    eigs = np.linalg.eigvalsh(spec_v)
                    manifest.add_check(f"vacuum_spectrum_psd_{tag}",
                                       max(0.0, -float(np.min(eigs))),
                                       1e-10 * max(1.0, float(np.max(np.abs(eigs)))))
                    # Maxwell residual wants a finer uniform grid and a small
                    # reservoir sample at moderate frequencies: two nodes of a
                    # 16-node rule, the only ones the residual reads
                    t_res = np.linspace(0.0, grids["maxwell_t_max"], int(grids["maxwell_n_t"]))
                    res_cut = 5.0 * max((m.frequency_scale for m in models), default=1.0)
                    nodes_r, weights_r = gauss_legendre(16, 0.0, res_cut)
                    picks = reservoir_picks(nodes_r.size, 2)
                    rep_res = field_representation(
                        response, k, t_res, nodes_r[picks], weights_r[picks],
                        method=method,
                    )
                    res = maxwell_residual(rep_res, reservoir_samples=picks.size)
                    manifest.add_check(f"maxwell_residual_{tag}", res.max_residual,
                                       num["maxwell_tol"], details=res.channels)

            if "conductor" in stages and cond is not None:
                with manifest.timed(f"conductor_{tag}"):
                    mc_c = conductor_modes(cond, k, t_grid[:: max(1, t_grid.size // 64)], nodes)
                    manifest.quadrature[f"conductor_{tag}"] = dict(mc_c.metadata)
                    manifest.add_check(
                        f"conductor_poles_{tag}",
                        float(mc_c.metadata.get("max_re_pole", 0.0)),
                        1e-10,
                    )
                    qrep = q_kernel_consistency(model_e, free, k, t_grid, constants, quad)
                    manifest.add_check(f"q_decomposition_{tag}", qrep.bound_sigma_residual,
                                       num["maxwell_tol"] * 10.0)
                    emit(f"conductor_gamma_{tag}.csv", write_tensor_series_csv, "t",
                         mc_c.t_grid, mc_c.gamma)
    return manifest


def _write_report(path, report):
    write_json(path, {
        "kind": report.kind,
        "k": [float(x) for x in report.k],
        "grid": report.grid,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "max_rel_err": report.max_rel_err,
        "details": report.details,
    })


def _deviation_curve(report) -> np.ndarray:
    scale = float(np.max(np.linalg.norm(report.rhs, axis=(1, 2)))) or 1.0
    return np.linalg.norm(report.lhs - report.rhs, axis=(1, 2)) / scale


def _roundtrip_error(model, spectrum, omega, k, constants) -> float:
    true = coupling_product(model, omega, k)
    imh = spectrum.imag_hermitian()
    rec = np.stack([
        coupling_from_target(imh[i], w, k, which=model.which, constants=constants)
        for i, w in enumerate(omega)
    ])
    recrec = rec @ np.conj(np.transpose(rec, (0, 2, 1)))
    scale = float(np.max(np.linalg.norm(true, axis=(1, 2)))) or 1.0
    return float(np.max(np.linalg.norm(recrec - true, axis=(1, 2)))) / scale


def invert_chi(config: ScenarioConfig, out_dir=None,
               constants: PhysicalConstants = NATURAL) -> RunManifest:
    """Recover coupling tensors from a target dissipation spectrum.

    With electric.target_table configured the target Im chi_hat is read from
    CSV (omega, |k| grid); a non-PSD target raises NotPSD with provenance in
    the manifest. Otherwise the configured analytic medium is round-tripped.
    """
    quad = config.quadrature()
    num = config.numerics
    omega = np.linspace(config.grids["omega_min"], config.grids["omega_max"],
                        int(config.grids["n_omega"]))
    with _recorded_run(config, out_dir, constants) as (manifest, emit):
        target_path = config.medium.get("electric.target_table")
        for ik, k in enumerate(config.k_list()):
            tag = f"k{ik}"
            with manifest.timed(f"invert_{tag}"):
                if target_path is not None:
                    table_model = tabulated_from_csv(target_path, which=ELECTRIC)
                    values = table_model.table.interpolate(omega, float(np.linalg.norm(k)))
                    rec = np.stack([
                        coupling_from_target(values[i], w, k, constants=constants)
                        for i, w in enumerate(omega)
                    ])
                    emit(f"recovered_coupling_{tag}.csv", write_tensor_series_csv, "omega", omega,
                         rec)
                else:
                    model = config.model("electric", constants)
                    if model.is_zero:
                        raise ValidationError("invert-chi needs an electric medium or target_table")
                    t_ker = np.linspace(0.0, model.suggested_t_max(1e-9), 1400)
                    kernel = chi_kernel(model, k, t_ker, constants=constants, quad=quad)
                    spectrum = chi_spectrum(kernel, omega, tail_rtol=num["tail_rtol"])
                    err = _roundtrip_error(model, spectrum, omega, k, constants)
                    manifest.add_check(f"roundtrip_{tag}", err, num["roundtrip_tol"])
    return manifest
