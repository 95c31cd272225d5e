"""One measured run of mssflow in a fresh interpreter.

    python3 perfbench/worker.py CONFIG OUT_DIR RESULT_JSON [--trace SPANS]

Imports mssflow, loads CONFIG, and times `driver.run` from the loaded
config until it returns with every artifact written to OUT_DIR.  Writes
RESULT_JSON with the exit code, the stdout summary line, wall and CPU
time of the run, and the process's peak resident memory.  With --trace
the public functions are wrapped (see tracing.py), the spans are written
to SPANS, and the result also carries the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

import tracing


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args()

    import numpy
    from mssflow import driver
    from mssflow.config import load_config

    t0 = time.perf_counter()
    cfg = load_config(args.config)
    load_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(os.path.basename(args.out_dir))
        tracing.instrument(tracer, cfg)

    stdout = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = driver.run(cfg, out_dir=args.out_dir)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "load_s": load_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,     # Linux reports KiB
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall_s)
        tracer.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
