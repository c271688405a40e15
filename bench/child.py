"""One benchmark pass in a fresh interpreter.

Started by run.py, never by hand. It imports kleintwist, builds the
workload's inputs (the set-up, timed from the moment the parent started
this process), then, unless only the set-up is asked for, runs and times
the pass, gates every output and writes everything it measured to the
result file as JSON. In trace mode the pass runs with the package's
functions wrapped and the spans go to a file of their own.

In ref mode it imports numpy and nothing of kleintwist, and reports how
long that start-up took: the reference that ``setup_s`` is scaled by (see
run.py). It goes through the same interpreter start, the same standard
library imports and the same numpy import as a set-up, so it slows down
with them when the host does, and a change to the package cannot move it.

An untraced pass runs under a ``SpeedProbe``. On a shared host the speed of
the virtual CPU drifts by a fifth or more within minutes, and wall time
follows it. The probe measures that speed during the pass, and
``pass_norm`` divides the pass time by it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


def probe_chunk() -> None:
    """The fixed unit of work the probe times: exact rational sums and tuple
    hashing, the operations the package spends its time in."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i % 13 + 1)
    seen = set()
    for i in range(600):
        seen.add((i % 7, i % 11, i % 13))


class SpeedProbe:
    """Runs ``probe_chunk`` every ``PERIOD`` seconds of the process's CPU
    time, from a SIGPROF handler, and records how long each run took. Runs
    more chunks at the end when the pass was too short to give
    ``MIN_SAMPLES``. ``spent`` is the wall time the probe itself took."""

    PERIOD = 0.1
    MIN_SAMPLES = 10

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        probe_chunk()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.spent += d

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def top_up(self) -> None:
        while len(self.samples) < self.MIN_SAMPLES:
            self._sample()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("ref", "setup", "pass", "trace"))
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("slot", type=int)
    ap.add_argument("started", type=float, help="parent's monotonic clock at spawn")
    ap.add_argument("out", help="result file")
    ap.add_argument("--spans", help="spans file (trace mode)")
    args = ap.parse_args()

    if args.mode == "ref":
        import numpy  # noqa: F401  (kleintwist's one third-party import)
        result = {"ref_s": time.monotonic() - args.started, "attempted": 0, "failures": []}
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    src = Path(__file__).resolve().parent.parent / "src"
    import kleintwist as kt
    import kleintwist.cli  # noqa: F401  (not imported by the package itself)
    if Path(kt.__file__).resolve().parent != src / "kleintwist":
        print(f"kleintwist imported from {kt.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.dirname(os.path.abspath(args.out))
    inputs = wl.setup(kt, args.seed, args.slot, workdir)
    result = {"setup_s": time.monotonic() - args.started}
    attempted, failures = wl.setup_check(kt, inputs)
    if args.mode == "pass":
        with SpeedProbe() as probe:
            wall0 = time.perf_counter()
            outputs = wl.run(kt, inputs, lambda name: contextlib.nullcontext())
            wall = time.perf_counter() - wall0
        pass_s = wall - probe.spent
        probe.top_up()
        probe_s = statistics.mean(probe.samples)
        result.update(pass_s=pass_s, probe_s=probe_s, pass_norm=pass_s / probe_s,
                      probe_samples=len(probe.samples))
    elif args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install(kt)
        wall0 = time.perf_counter()
        with tracer.span("bench.pass"):
            outputs = wl.run(kt, inputs, tracer.span)
        result["pass_s"] = time.perf_counter() - wall0
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed,
                                 "pass": args.slot})
    if args.mode != "setup":
        pass_attempted, pass_failures = wl.check(kt, inputs, outputs)
        attempted += pass_attempted
        failures += pass_failures
    result.update(attempted=attempted, failures=failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
