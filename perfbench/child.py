"""One mqed process of the benchmark.

    python3 perfbench/child.py --record FILE [--setup-only] [--trace] -- ARGS...

Imports mqed and parses the config named by `--config` in ARGS (set-up),
then, unless `--setup-only`, runs `mqed.cli.main(ARGS)` and times it
(solve). With `--trace` the layer functions are wrapped before the solve.
Writes the monotonic end-of-set-up instant, the solve time and the layer
metrics to FILE as JSON, and exits with mqed's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("mqed_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    mqed_args = [a for a in args.mqed_args if a != "--"]

    import mqed.cli
    from mqed.scenario import parse_scenario

    with open(mqed_args[mqed_args.index("--config") + 1], encoding="utf-8") as fh:
        parse_scenario(fh.read())
    record = {"setup_end": time.monotonic()}
    code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        code = mqed.cli.main(mqed_args)
        record["solve_s"] = time.perf_counter() - start
        if tracer is not None:
            record["layers"] = tracer.metrics()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
