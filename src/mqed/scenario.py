"""Scenario configuration, batch execution and verification reporting.

Configs are structured key-value text with four sections:

    [medium]    electric.kind = lorentz_isotropic, electric.strength = ...,
                magnetic.*, conductor.* (free-carrier part routed through
                sigma_hat), electric.target_table = path (inversion target)
    [grids]     omega_max/n_omega (spectrum), t_max/n_t, k (semicolon list of
                comma triples), reservoir_order, kk_omega_max/kk_n_omega
    [numerics]  laplace = auto|rational_exact|talbot|bromwich_line,
                quad_rtol, quad_max_order, cutoff_factor, tail_rtol, plus
                the check tolerances (fdt_tol, kk_tol, commutator_tol,
                maxwell_tol, roundtrip_tol, continuity_tol)
    [output]    directory, formats = csv,json

Unknown keys are rejected with their location; all tolerances must be
positive; running a scenario writes CSV/JSON artifacts plus a manifest that
lists every executed check exactly once.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .conductor import conductor_modes, q_kernel_consistency
from .couplings import (
    _KINDS,
    ELECTRIC,
    MAGNETIC,
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
from .modes import METHODS, lambda_reality_scan
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
from .response import KernelStore, chi_kernel, chi_spectrum, kk_check, laplace_response
from .tensors import NATURAL, PhysicalConstants

_SECTIONS = ("medium", "grids", "numerics", "output")

_MEDIUM_KEYS = {
    "electric.kind", "electric.strength", "electric.resonance", "electric.width",
    "electric.axis_strengths", "electric.center", "electric.correlation_length",
    "electric.omega_max", "electric.table", "electric.target_table",
    "magnetic.kind", "magnetic.strength", "magnetic.resonance", "magnetic.width",
    "magnetic.axis_strengths", "magnetic.center", "magnetic.correlation_length",
    "magnetic.omega_max", "magnetic.table",
    "conductor.kind", "conductor.strength", "conductor.width",
}

_GRID_DEFAULTS = {
    "omega_min": 0.1,
    "omega_max": 5.0,
    "n_omega": 200,
    "t_max": 10.0,
    "n_t": 2001,
    "reservoir_order": 384,
    "reservoir_cutoff": 50.0,
    "commutator_t": "0,1,5",
    "kk_omega_max": 50.0,
    "kk_n_omega": 4096,
    "maxwell_t_max": 6.0,
    "maxwell_n_t": 8001,
    "k": "0,0,1",
}

_NUMERIC_DEFAULTS = {
    "laplace": "auto",
    "quad_rtol": 1e-7,
    "quad_max_order": 8192,
    "cutoff_factor": 50.0,
    "tail_rtol": 1e-6,
    "continuity_dt": 1e-3,
    "fdt_tol": 1e-5,
    "kk_tol": 1e-3,
    "commutator_tol": 1e-4,
    "maxwell_tol": 1e-5,
    "roundtrip_tol": 1e-6,
    "continuity_tol": 1e-5,
    "constitutive_tol": 1e-5,
    "reality_tol": 1e-13,
    "seed": 20260808,
}

_OUTPUT_DEFAULTS = {"directory": "out", "formats": "csv,json"}


def output_formats(value) -> list:
    """The formats named by a comma list of csv and json (the config's
    `formats` key and the CLI's --format); ValueError for anything else."""
    parts = [part.strip() for part in str(value).split(",")]
    if any(part not in ("csv", "json") for part in parts):
        raise ValueError(f"'{value}' is not a comma list of csv and json")
    return parts


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

    def model(self, section: str, constants: PhysicalConstants):
        raw = {k.split(".", 1)[1]: v for k, v in self.medium.items() if k.startswith(section + ".")}
        kind = raw.get("kind", "zero")
        which = MAGNETIC if section == "magnetic" else ELECTRIC
        omega_max = raw.get("omega_max")
        if kind == "zero":
            return zero_coupling(which)
        if kind == "lorentz_isotropic":
            return lorentz_isotropic(
                raw["strength"], raw["resonance"], raw["width"],
                which=which, omega_max=omega_max, constants=constants,
            )
        if kind == "drude":
            return drude(raw["strength"], raw["width"], which=which,
                         omega_max=omega_max, constants=constants)
        if kind == "gaussian_anisotropic":
            return gaussian_anisotropic(
                raw["axis_strengths"], raw["center"],
                raw.get("correlation_length", 0.0),
                which=which, omega_max=omega_max, constants=constants,
            )
        if kind == "tabulated":
            return tabulated_from_csv(raw["table"], which=which)
        raise ValidationError(f"unknown medium kind '{kind}'", key=f"{section}.kind")


_FLOAT_KEYS_MEDIUM = {
    "strength", "resonance", "width", "center", "correlation_length", "omega_max",
}


def _parse_value(section: str, key: str, value: str, line: int):
    if section == "medium":
        sub = key.split(".", 1)[1]
        if sub == "axis_strengths":
            return tuple(float(x) for x in value.split(","))
        if sub in _FLOAT_KEYS_MEDIUM:
            return float(value)
        return value
    if section == "grids":
        if key == "k":
            triples = []
            for part in value.split(";"):
                comps = [float(x) for x in part.split(",")]
                if len(comps) != 3:
                    raise ParseError(f"k entries need three components, got '{part}'", line)
                triples.append(tuple(comps))
            return triples
        if key == "commutator_t":
            return tuple(float(x) for x in value.split(","))
        if key in ("n_omega", "n_t", "reservoir_order", "kk_n_omega", "maxwell_n_t"):
            return int(value)
        return float(value)
    if section == "numerics":
        if key == "laplace":
            return value
        if key in ("quad_max_order", "seed"):
            return int(value)
        return float(value)
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
        known = {
            "medium": _MEDIUM_KEYS,
            "grids": set(_GRID_DEFAULTS),
            "numerics": set(_NUMERIC_DEFAULTS),
            "output": set(_OUTPUT_DEFAULTS),
        }[current]
        if key not in known:
            raise ValidationError(f"unknown key in [{current}] (line {lineno})", key=key)
        first = lines.setdefault((current, key), lineno)
        if first != lineno:
            raise ValidationError(f"set twice in [{current}] (lines {first} and {lineno})",
                                  key=key)
        try:
            sections[current][key] = _parse_value(current, key, value, lineno)
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value on line {lineno}: {exc}", key=key)

    grids = {**_GRID_DEFAULTS, **sections["grids"]}
    for key in ("k", "commutator_t"):
        if isinstance(grids[key], str):
            grids[key] = _parse_value("grids", key, grids[key], 0)
    numerics = {**_NUMERIC_DEFAULTS, **sections["numerics"]}
    output = {**_OUTPUT_DEFAULTS, **sections["output"]}
    config = ScenarioConfig(
        medium=dict(sections["medium"]), grids=grids, numerics=numerics, output=output
    )
    _validate(config)
    return config


def _validate(config: ScenarioConfig):
    for key in ("quad_rtol", "tail_rtol", "fdt_tol", "kk_tol", "commutator_tol",
                "maxwell_tol", "roundtrip_tol", "continuity_tol", "constitutive_tol",
                "reality_tol", "continuity_dt"):
        if not config.numerics[key] > 0.0:
            raise ValidationError("tolerance must be positive", key=key)
    if config.numerics["laplace"] not in METHODS:
        raise ValidationError("unknown laplace method", key="laplace")
    if config.numerics["seed"] < 0:
        raise ValidationError("seed must be nonnegative", key="seed")
    start = QuadratureSpec().start_order
    if config.numerics["quad_max_order"] < start:
        raise ValidationError(f"must be at least the start order {start}",
                              key="quad_max_order")
    for key in ("n_omega", "n_t", "reservoir_order", "kk_n_omega", "maxwell_n_t"):
        if int(config.grids[key]) <= 1:
            raise ValidationError("grid sizes must exceed 1", key=key)
    if not config.grids["k"]:
        raise ValidationError("k list must be nonempty", key="k")
    for trip in config.grids["k"]:
        if not all(np.isfinite(trip)):
            raise ValidationError("k components must be finite", key="k")
    for key in ("omega_min", "omega_max", "t_max", "kk_omega_max", "reservoir_cutoff",
                "maxwell_t_max"):
        if not config.grids[key] > 0.0:
            raise ValidationError("grid extents must be positive", key=key)
    if not all(0.0 <= ti <= config.grids["t_max"] for ti in config.grids["commutator_t"]):
        raise ValidationError("commutator times must lie in [0, t_max]", key="commutator_t")
    for section in ("electric", "magnetic", "conductor"):
        kind = config.medium.get(f"{section}.kind")
        if kind is not None and kind not in _KINDS:
            raise ValidationError(f"unknown kind '{kind}'", key=f"{section}.kind")
    if config.medium.get("conductor.kind") not in (None, "zero", "drude"):
        raise ValidationError("conductor part must be a drude (free-carrier) model",
                              key="conductor.kind")
    try:
        output_formats(config.output["formats"])
    except ValueError as exc:
        raise ValidationError(str(exc), key="formats") from None


def serialize_scenario(config: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    lines = []
    for name in _SECTIONS:
        data = getattr(config, name)
        lines.append(f"[{name}]")
        for key in sorted(data):
            value = data[key]
            if key == "k":
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


class _Timer:
    def __init__(self, manifest: RunManifest, name: str):
        self.manifest = manifest
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timings[self.name] = round(time.perf_counter() - self.start, 6)
        return False


@contextmanager
def _recorded_run(config: ScenarioConfig, out_dir, constants: PhysicalConstants):
    """The manifest of one run with its output directory and formats. The
    manifest is written when the run completes, and when a NumericalError
    ends it, after recording the error; the error then propagates."""
    out_dir = out_dir or config.output["directory"]
    formats = output_formats(config.output["formats"])
    manifest = RunManifest(
        config_text=serialize_scenario(config),
        constants="natural" if constants is NATURAL else "si",
    )
    try:
        yield manifest, out_dir, formats
    except NumericalError as exc:
        manifest.error = {
            "module": type(exc).__module__,
            "type": type(exc).__name__,
            "message": str(exc),
        }
        _finalize(manifest, out_dir, formats)
        raise
    _finalize(manifest, out_dir, formats)


def _conductor_response(config, model_e, constants, quad):
    """The medium of the conductor stage: the bound electric part, the
    configured Drude part as free carriers and no magnetic part; None when
    no conductor part is configured."""
    kind = config.medium.get("conductor.kind")
    if kind in (None, "zero"):
        return None
    free = drude(
        config.medium["conductor.strength"], config.medium["conductor.width"],
        constants=constants,
    )
    return laplace_response(model_e, zero_coupling(MAGNETIC), model_free=free,
                            constants=constants, quad=quad)


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
    cond = _conductor_response(config, model_e, constants, quad)
    rng = np.random.default_rng(int(num["seed"]))
    # one kernel representation per (medium, k), shared by the time-domain
    # consumers of this run
    kernels = KernelStore()

    omega = np.linspace(grids["omega_min"], grids["omega_max"], int(grids["n_omega"]))
    t_grid = np.linspace(0.0, grids["t_max"], int(grids["n_t"]))

    with _recorded_run(config, out_dir, constants) as (manifest, out_dir, formats):
        def emit(name, writer, *args):
            if "csv" in formats:
                path = os.path.join(out_dir, name)
                writer(path, *args)
                manifest.outputs.append(name)

        def emit_report(name, report):
            if "json" in formats:
                write_json(os.path.join(out_dir, name), {
                    "kind": report.kind,
                    "k": [float(x) for x in report.k],
                    "grid": report.grid,
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "max_rel_err": report.max_rel_err,
                    "details": report.details,
                })
                manifest.outputs.append(name)

        for ik, k in enumerate(config.k_list()):
            tag = f"k{ik}"
            models = [m for m in (model_e, model_m) if not m.is_zero]
            if cond is not None:
                models.append(cond.model_free)

            if "chi" in stages:
                with _Timer(manifest, f"chi_{tag}"):
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
                            kk_grid = (np.arange(int(grids["kk_n_omega"])) + 0.5) \
                                * grids["kk_omega_max"] / int(grids["kk_n_omega"])
                            kk = kk_check(chi_spectrum(kernel, kk_grid, tail_rtol=num["tail_rtol"]))
                            manifest.add_check(f"kk_{name}_{tag}", kk.max_rel_residual,
                                               num["kk_tol"])
                            rt = _roundtrip_error(model, spectrum, omega, k, constants)
                            manifest.add_check(f"roundtrip_{name}_{tag}", rt,
                                               num["roundtrip_tol"])

            if "noise" in stages:
                with _Timer(manifest, f"noise_{tag}"):
                    if not model_e.is_zero:
                        rep = noise_commutator(model_e, k, omega, constants=constants,
                                               quad=quad, kernels=kernels)
                        manifest.add_check(f"fdt_P_{tag}", rep.max_rel_err, num["fdt_tol"])
                        emit(f"noise_P_{tag}.csv", write_deviation_csv, "omega", rep.grid,
                             _deviation_curve(rep), rep.lhs)
                        emit_report(f"noise_P_{tag}.json", rep)
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
                    if not model_m.is_zero:
                        rep = noise_commutator(model_m, k, omega, constants=constants,
                                               quad=quad, kernels=kernels)
                        manifest.add_check(f"fdt_M_{tag}", rep.max_rel_err, num["fdt_tol"])
                        emit(f"noise_M_{tag}.csv", write_deviation_csv, "omega", rep.grid,
                             _deviation_curve(rep), rep.lhs)
                        emit_report(f"noise_M_{tag}.json", rep)

            response = laplace_response(model_e, model_m, constants=constants, quad=quad)
            if "modes" in stages or "commutators" in stages:
                with _Timer(manifest, f"modes_{tag}"):
                    scan = lambda_reality_scan(
                        response,
                        rng.normal(size=(10, 3)),
                        rng.uniform(0.1, 5.0, size=10),
                    )
                    manifest.add_check(f"lambda_reality_{tag}", scan.max_deviation,
                                       num["reality_tol"])
                    nodes, weights = gauss_legendre(
                        int(grids["reservoir_order"]), 0.0, grids["reservoir_cutoff"]
                    )
                    t_modes = np.linspace(0.0, grids["t_max"], 81)
                    rep_field = field_representation(
                        response, k, t_modes, nodes, weights, method=num["laplace"],
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
                with _Timer(manifest, f"commutators_{tag}"):
                    t_set = [t_modes[np.argmin(np.abs(t_modes - ti))]
                             for ti in grids["commutator_t"]]
                    vacuum = laplace_response(zero_coupling(ELECTRIC), zero_coupling(MAGNETIC),
                                              constants=constants, quad=quad)
                    baseline = field_representation(vacuum, k, t_set, nodes, weights)
                    comm = equal_time_commutators(rep_field, t_set, baseline=baseline)
                    manifest.add_check(f"equal_time_commutator_{tag}", comm.max_rel_err,
                                       num["commutator_tol"])
                    emit(f"commutator_equal_time_{tag}.csv", write_deviation_csv, "t",
                         comm.grid, _deviation_curve(comm), comm.lhs)
                    emit_report(f"commutator_equal_time_{tag}.json", comm)
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
                        method=num["laplace"],
                    )
                    res = maxwell_residual(rep_res, reservoir_samples=picks.size)
                    manifest.add_check(f"maxwell_residual_{tag}", res.max_residual,
                                       num["maxwell_tol"], details=res.channels)

            if "conductor" in stages and cond is not None:
                with _Timer(manifest, f"conductor_{tag}"):
                    wq_cond, _ = gauss_legendre(
                        int(grids["reservoir_order"]), 0.0, grids["reservoir_cutoff"]
                    )
                    mc_c = conductor_modes(cond, k, t_grid[:: max(1, t_grid.size // 64)], wq_cond)
                    manifest.quadrature[f"conductor_{tag}"] = dict(mc_c.metadata)
                    manifest.add_check(
                        f"conductor_poles_{tag}",
                        float(mc_c.metadata.get("max_re_pole", 0.0)),
                        1e-10,
                    )
                    qrep = q_kernel_consistency(cond, k, t_grid)
                    manifest.add_check(f"q_decomposition_{tag}", qrep.bound_sigma_residual,
                                       num["maxwell_tol"] * 10.0)
                    emit(f"conductor_gamma_{tag}.csv", write_tensor_series_csv, "t",
                         mc_c.t_grid, mc_c.gamma)
    return manifest


def _finalize(manifest: RunManifest, out_dir, formats):
    if "json" in formats:
        write_json(os.path.join(out_dir, "manifest.json"), manifest.payload())
        manifest.outputs.append("manifest.json")


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
    with _recorded_run(config, out_dir, constants) as (manifest, out_dir, formats):
        target_path = config.medium.get("electric.target_table")
        for ik, k in enumerate(config.k_list()):
            tag = f"k{ik}"
            with _Timer(manifest, f"invert_{tag}"):
                if target_path is not None:
                    table_model = tabulated_from_csv(target_path, which=ELECTRIC)
                    values = table_model.table.interpolate(omega, float(np.linalg.norm(k)))
                    rec = np.stack([
                        coupling_from_target(values[i], w, k, constants=constants)
                        for i, w in enumerate(omega)
                    ])
                    if "csv" in formats:
                        write_tensor_series_csv(
                            os.path.join(out_dir, f"recovered_coupling_{tag}.csv"),
                            "omega", omega, rec)
                        manifest.outputs.append(f"recovered_coupling_{tag}.csv")
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
