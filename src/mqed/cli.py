"""Command-line interface.

Subcommands map onto the pipeline stages:

    mqed chi         --config scenario.cfg --out DIR   kernels, spectra, KK
    mqed invert-chi  --config scenario.cfg --out DIR   coupling recovery
    mqed modes       --config scenario.cfg --out DIR   mode-coefficient export
    mqed commutators --config scenario.cfg --out DIR   noise + field commutators
    mqed conductor   --config scenario.cfg --out DIR   free-carrier pathway
    mqed verify      --config scenario.cfg --out DIR   the full check suite

Exit codes: 0 success, 1 configuration error (a bad config or bad
arguments), 2 numerical/model violation, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, NumericalError
from .scenario import (NATURAL, PhysicalConstants, invert_chi, output_formats, parse_scenario,
                       run_scenario)

_STAGES = {
    "chi": ("chi",),
    "modes": ("modes",),
    "commutators": ("chi", "noise", "modes", "commutators"),
    "conductor": ("conductor",),
    "verify": ("chi", "noise", "modes", "commutators", "conductor"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _formats(value: str) -> str:
    try:
        output_formats(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="scenario config path")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--format", default=None, type=_formats, metavar="FORMATS",
                        help="output formats, a comma list of csv and json "
                             "(overrides the config)")
    parser.add_argument("--si", action="store_true",
                        help="read the config and write the outputs in SI units "
                             "(the engine runs in natural units)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mqed", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_STAGES, "invert-chi"):
        p = sub.add_parser(name)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        config = parse_scenario(text)
        if args.format:
            config = dataclasses.replace(config, output={**config.output, "formats": args.format})
        constants = PhysicalConstants.si() if args.si else NATURAL
        if args.command == "invert-chi":
            manifest = invert_chi(config, out_dir=args.out, constants=constants)
        else:
            manifest = run_scenario(
                config, out_dir=args.out, constants=constants,
                stages=_STAGES[args.command],
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical/model violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for check in manifest.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['max_error']:.3e} (tol {check['tolerance']:g})")
    if not manifest.all_passed:
        print("one or more checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
