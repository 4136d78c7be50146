"""Run one opinionflow CLI invocation in a fresh interpreter and time it.

Usage: python3 bench/invoke.py SPEC.json

SPEC.json holds:
  argv      the CLI arguments (``opinionflow.cli.main(argv)``)
  first_op  "module:function" whose first call marks the first operation
  mode      "full" (run to the end), "setup" (exit at the first operation)
            or "trace" (full, with spans recorded by tracer.py)
  result    path of the JSON result to write
  trace_dir where a traced run dumps its spans

Times are CLOCK_MONOTONIC seconds, comparable with the parent's spawn time.
The package is imported from ./src of the current directory, never from
an installed copy.

Speed probe: from numpy's import on, the interpreter runs a fixed
reference kernel every SAMPLE_PERIOD_S of wall time (SIGALRM) and records
(start, duration) of each run. The parent uses these samples
to see how fast the host ran during each phase, and subtracts their time
from the phase.
"""

import json
import os
import resource
import signal
import sys
import time
from array import array

import numpy as np

SAMPLE_PERIOD_S = 0.02


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_IU = np.arange(5)
_IV = (_IU + 1) % 5


def reference_kernel() -> float:
    """Fixed work: 15 migration-like steps on a 5-vector, ~0.1 ms on an idle 2020s Xeon core.

    Small numpy calls under the interpreter slow down with the host about
    as much as the CLI workloads do. Tight integer loops and
    allocation-heavy Python track them less well.
    """
    y = np.full(5, 0.2)
    for _ in range(15):
        d = y[_IU] - y[_IV]
        f = y[_IU] * y[_IV] * 0.49 * d
        y = y + np.bincount(_IU, weights=f, minlength=5) - np.bincount(_IV, weights=f, minlength=5)
        y /= y.sum()
    return float(y[0])


samples = array("d")                      # start, duration, start, duration, ...


def _probe(signum, frame) -> None:
    t0 = now()
    reference_kernel()
    samples.extend((t0, now() - t0))


signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


def write_result(path: str, result: dict) -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    result["samples"] = samples.tolist()
    with open(path, "w") as fh:
        json.dump(result, fh)


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import importlib
    cli = importlib.import_module("opinionflow.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"opinionflow was not loaded from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["mode"] == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    mod_name, attr = spec["first_op"].split(":")
    mod = importlib.import_module(mod_name)
    inner = getattr(mod, attr)
    stamp = {}

    def first_op(*args, **kwargs):
        stamp["t_first_op"] = now()
        setattr(mod, attr, inner)
        if spec["mode"] == "setup":
            write_result(spec["result"], {"t_first_op": stamp["t_first_op"]})
            os._exit(0)
        return inner(*args, **kwargs)

    setattr(mod, attr, first_op)
    t_main = now()
    code = tracer.root(cli.main, spec["argv"]) if tracer else cli.main(spec["argv"])
    t_end = now()
    if "t_first_op" not in stamp:
        print("the first operation was never reached", file=sys.stderr)
        return 3
    if tracer:
        tracer.dump(spec["trace_dir"], t_end - t_main)
    write_result(spec["result"], {
        "t_first_op": stamp["t_first_op"], "t_end": t_end, "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
