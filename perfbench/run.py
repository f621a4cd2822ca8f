"""mqed benchmark: the bundled media through the `mqed` CLI, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-reference

One run is a closed loop with one client: it starts one mqed child process
at a time, and keeps starting them until `--seconds` have passed (at
least one). The BLAS pool is one thread: mqed's work is mostly outside
BLAS, and a second thread doubled the spread of `cpu_s` between runs. One
extra child only imports mqed and parses the config, so set-up is sampled
at least twice. Every solving child passes through the correctness gate
(gate.py).

With `--trace 0` the last line of output is the JSON result with the
end-to-end metrics (medians over the children). With `--trace 1` one more
child runs with every layer function wrapped (tracer.py), and the result
holds the per-layer metrics instead, including the tracing overhead.
`--all` runs every workload both ways and prints every metric by name and
unit, and writes perfbench/_work/results.json with the run environment.
`--record-reference` rewrites the gate's reference from seed 0.

The line before the result is the run environment, as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
from workloads import REPO, WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_ONLY_CHILDREN = 1
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}

STAGES = ("chi", "noise", "modes", "commutators", "conductor")

PER_LAYER = {
    "quadrature.adaptive_nodes.calls": "count",
    "quadrature.adaptive_nodes.evaluations": "count",
    "quadrature.adaptive_nodes.nodes_evaluated": "count",
    "quadrature.evaluate.self_s": "s",
    "quadrature.gauss_legendre.calls": "count",
    "quadrature.gauss_legendre.self_s": "s",
    "response.chi_kernel.calls": "count",
    "response.chi_spectrum.calls": "count",
    "response.chi_spectrum.self_s": "s",
    "response.kk_check.self_s": "s",
    "response.conductor_Q.total_s": "s",
    "response.LaplaceResponse.chi.calls": "count",
    "response.LaplaceResponse.chi.total_s": "s",
    "noise.noise_commutator.total_s": "s",
    "noise.noise_current_coefficient.total_s": "s",
    "noise.pdot_continuity.total_s": "s",
    "modes.mode_coefficients.calls": "count",
    "modes.mode_coefficients.self_s": "s",
    "modes.assemble_lambda.calls": "count",
    "modes.lambda_reality_scan.total_s": "s",
    "observables.field_representation.calls": "count",
    "observables.field_representation.self_s": "s",
    "observables.field_representation.rss_rise_mb": "MB",
    "observables.maxwell_residual.self_s": "s",
    "observables.constitutive_roundtrip.self_s": "s",
    "observables.equal_time_commutators.self_s": "s",
    "conductor.conductor_modes.total_s": "s",
    "conductor.q_kernel_consistency.total_s": "s",
    "couplings.coupling_product.calls": "count",
    "couplings.coupling_from_target.calls": "count",
    "couplings.coupling_from_target.self_s": "s",
    "rational.partial_fractions.calls": "count",
    "rational.ilt_rational.self_s": "s",
    "io.write_tensor_series_csv.self_s": "s",
    "io.write_tensor_grid_csv.self_s": "s",
    "io.write_deviation_csv.self_s": "s",
    "io.write_json.self_s": "s",
    "io.bytes_written": "bytes",
    **{f"scenario.stage.{s}_s": "s" for s in STAGES},
    "scenario.run_scenario.self_s": "s",
    "trace.overhead_s": "s",
    "check_fail_ratio": "ratio",
    "worst_check_margin": "ratio",
}

# Seed-0 figures of the three verify workloads in the ROADMAP baseline table.
ROADMAP_BASELINE = {
    "lorentz-verify": {"solve_s": 25.7, "peak_rss_mb": 608, "failed": 0, "checks": 13},
    "gaussian-verify": {"solve_s": 28.2, "peak_rss_mb": 968, "failed": 0, "checks": 10},
    "conductor-verify": {"solve_s": 21.4, "peak_rss_mb": 540, "failed": 2, "checks": 12},
}


def environment() -> dict:
    """Context recorded next to the results; not compared."""
    sha = None
    if (REPO / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                             text=True, check=False)
        sha = out.stdout.strip() or None
    sources = sorted((REPO / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(REPO).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, config: Path, out_dir: Path, setup_only=False, trace=False) -> dict:
    """Start one mqed child, wait for it and return its measurements."""
    shutil.rmtree(out_dir, ignore_errors=True)
    record_path = out_dir.parent / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--record", str(record_path)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--", workload.command, "--config", str(config), "--out", str(out_dir)]
    stdout_path = out_dir.parent / "stdout.txt"
    with open(stdout_path, "wb") as stdout, open(out_dir.parent / "stderr.txt", "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=_child_env(), cwd=REPO)
        deadline = spawned + CHILD_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.send_signal(signal.SIGKILL)
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    return {
        "exit_code": proc.returncode,
        "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
        "setup_s": record["setup_end"] - spawned if "setup_end" in record else None,
        "solve_s": record.get("solve_s"),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "layers": record.get("layers"),
    }


def solve(workload, config: Path, work: Path, reference: dict, trace=False) -> dict:
    """One solving child plus its correctness gate and check accounting."""
    out_dir = work / "out"
    run = run_child(workload, config, out_dir, trace=trace)
    problems, manifest = gate.check_run(reference, run["exit_code"], run["stdout"], out_dir)
    manifest = manifest or {"checks": [], "timings": {}}
    checks = manifest["checks"]
    if run["solve_s"] is None:
        problems.append("no solve time recorded")
    run["problems"] = problems
    run["n_checks"] = len(reference["checks"])
    # a run that fails the gate counts all of its checks as failed
    run["n_failed"] = run["n_checks"] if problems else sum(not c["passed"] for c in checks)
    run["worst_check_margin"] = max(
        (c["max_error"] / c["tolerance"] for c in checks), default=float("nan"))
    run["stages"] = {
        s: sum(v for k, v in manifest["timings"].items() if k.startswith(s + "_k"))
        for s in STAGES
    }
    run["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir()) \
        if out_dir.is_dir() else 0
    for problem in problems:
        print(f"{workload.name}: gate: {problem}", file=sys.stderr)
    return run


def _prepare(workload, seed: int):
    """A fresh work directory holding the generated config."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.cfg"
    config.write_text(config_text(workload, seed), encoding="utf-8")
    return work, config


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """One benchmark run of `workload`; returns the result object."""
    work, config = _prepare(workload, seed)
    start = time.monotonic()
    # set-up is reported only by untraced runs
    setups = [] if trace else [run_child(workload, config, work / "out", setup_only=True)
                               for _ in range(SETUP_ONLY_CHILDREN)]
    runs = []
    while not runs or time.monotonic() - start < seconds:
        runs.append(solve(workload, config, work, reference))
    traced = solve(workload, config, work, reference, trace=True) if trace else None
    shutil.rmtree(work / "out", ignore_errors=True)

    children = setups + runs + ([traced] if traced else [])
    failed = sum(s["exit_code"] != 0 or s["setup_s"] is None for s in setups)
    failed += sum(bool(r["problems"]) for r in runs + ([traced] if traced else []))
    solved = [r for r in runs if r["solve_s"] is not None] or [{
        "solve_s": float("nan"), "cpu_s": float("nan"), "peak_rss_mb": float("nan")}]
    setup_samples = [c["setup_s"] for c in children if c["setup_s"] is not None]
    end_to_end = {
        "setup_s": statistics.median(setup_samples) if setup_samples else float("nan"),
        "solve_s": statistics.median(r["solve_s"] for r in solved),
        "cpu_s": statistics.median(r["cpu_s"] for r in solved),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solved),
        "check_pass_ratio": 1.0 - sum(r["n_failed"] for r in runs)
        / sum(r["n_checks"] for r in runs),
    }
    result = {"correct": failed == 0, "attempted": len(children), "failed": failed,
              "end_to_end": end_to_end, "solve_samples": [r["solve_s"] for r in runs]}
    if traced is not None:
        layers = dict(traced["layers"] or {})
        layers.update({f"scenario.stage.{s}_s": v for s, v in traced["stages"].items()})
        layers["io.bytes_written"] = traced["bytes_written"]
        layers["trace.overhead_s"] = (traced["solve_s"] or float("nan")) \
            - end_to_end["solve_s"]
        layers["check_fail_ratio"] = traced["n_failed"] / traced["n_checks"]
        layers["worst_check_margin"] = traced["worst_check_margin"]
        result["per_layer"] = layers
        result["checks"] = f"{traced['n_failed']}/{traced['n_checks']}"
    return result


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name, float("nan")), "unit": unit}
            for name, unit in units.items()}


def _print_report(name: str, result: dict, seed: int):
    print(f"\n== {name} (seed {seed}) correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<48} {result['end_to_end'][metric]:>14.6g} {unit}")
    layers = result["per_layer"]
    for metric, unit in PER_LAYER.items():
        print(f"  {metric:<48} {layers[metric]:>14.6g} {unit}")
    print(f"  checks failed / attempted: {result['checks']}")
    base = ROADMAP_BASELINE.get(name)
    if base and seed == 0:
        e2e = result["end_to_end"]
        print(f"  ROADMAP baseline: solve_s {base['solve_s']} s "
              f"(measured {e2e['solve_s']:.2f} s, {e2e['solve_s'] / base['solve_s'] - 1:+.1%}); "
              f"peak_rss_mb {base['peak_rss_mb']} MB (measured {e2e['peak_rss_mb']:.0f} MB); "
              f"checks failed {base['failed']}/{base['checks']} (measured {result['checks']})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (args.all or args.record_reference or args.workload):
        parser.error("give --workload, --all or --record-reference")

    needed = dict.fromkeys(["src/mqed/cli.py", *(f"configs/{w.config}" for w in WORKLOADS.values())])
    missing = [p for p in needed if not (REPO / p).is_file()]
    if missing:
        print(f"error: not an mqed checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = environment()
    # byte-compile once, so that set-up times a warm import on every run
    compileall.compile_dir(REPO / "src", quiet=1)

    if args.record_reference:
        reference = {}
        for workload in WORKLOADS.values():
            work, config = _prepare(workload, 0)
            run_child(workload, config, work / "out")
            reference[workload.name] = gate.record(gate.load_manifest(work / "out"), work / "out")
        reference["environment"] = env
        gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {gate.REFERENCE}")
        return 0

    reference = json.loads(gate.REFERENCE.read_text(encoding="utf-8"))
    if args.all:
        results = {}
        for name, workload in WORKLOADS.items():
            results[name] = measure(workload, args.seed, args.seconds, True, reference[name])
            _print_report(name, results[name], args.seed)
        WORK.mkdir(exist_ok=True)
        (WORK / "results.json").write_text(json.dumps(
            {"environment": env, "seed": args.seed, "seconds": args.seconds,
             "results": results}, indent=1) + "\n", encoding="utf-8")
        print(f"\nenvironment: {json.dumps(env)}")
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     reference[args.workload])
    metrics = _metrics(result["per_layer"], PER_LAYER) if args.trace \
        else _metrics(result["end_to_end"], END_TO_END)
    print(json.dumps({"environment": env, "solve_samples": result["solve_samples"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
