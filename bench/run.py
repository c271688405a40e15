"""kleintwist benchmark: one closed-loop client, one process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next
to this one. Each pass runs in a fresh interpreter (bench/child.py), so it
pays for the package's process-level caches the way a command-line user
does. Passes follow one another until the next one would end after
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics as medians over the run's
passes: ``pass_norm`` (the wall time of one pass divided by the time of a
fixed probe computation sampled during it, see child.SpeedProbe),
``setup_s`` (fresh interpreter until kleintwist is imported and the inputs
are built, at reference speed; see ``measure``) and ``peak_rss_mb``.
It also prints the pass's plain wall time and the plain set-up time.
``--trace 1`` runs each pass twice, untraced and traced, and reports the
per-layer metrics of the traced passes (see tracing.LAYER_TABLE); the
spans go to ``.bench_out/``.

Every output is checked against its exact expected value. A wrong,
missing or raised output counts as failed and the run carries on. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SETUPS = 3          # set-up-only children per run: at least this many,
MAX_SETUPS = 16         # and up to this many while they and their reference
SETUP_EXTRA_S = 6.0     # start-ups have taken less than this long
REF_S = 0.17            # the reference start-up time that setup_s is scaled to
RUN_LIMIT_S = 170.0     # no child starts after this; a run must end within 180 s


class Runner:
    """Starts the child passes of one run and collects their results."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 spans_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.t0 = time.monotonic()
        self.slots = 0
        self.attempted = 0
        self.failures: list = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, mode: str, slot: int) -> dict | None:
        """One child process; None (and one failure counted) when it crashed."""
        out = self.workdir / f"{mode}-{slot}.json"
        spans = self.spans_dir / f"spans-{self.workload}-seed{self.seed}-pass{slot}.json"
        timeout = max(1.0, RUN_LIMIT_S + 5 - self.elapsed())
        started = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload,
               str(self.seed), str(slot), repr(started), str(out)]
        if mode == "trace":
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
            err = proc.stderr.strip().splitlines()[-1:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            err = [f"killed after {timeout:.0f} s"]
        wall = time.monotonic() - started
        if err is not None:
            self.attempted += 1
            self.failures.append(f"{mode} pass {slot} crashed: {' '.join(err)}")
            return None
        with open(out) as fh:
            res = json.load(fh)
        res["wall"] = wall
        self.attempted += res["attempted"]
        self.failures += [f"{mode} pass {slot}: {f}" for f in res["failures"]]
        return res

    def next_slot(self, last_wall: float | None) -> int | None:
        """The slot of the next pass, or None when the run is over. The first
        pass always runs; another only when the last one completed and one
        more like it would end within the run."""
        if self.slots and (last_wall is None or
                           self.elapsed() + last_wall > min(self.seconds, RUN_LIMIT_S)):
            return None
        self.slots += 1
        return self.slots - 1


def measure(r: Runner) -> tuple[dict | None, list]:
    passes, wall = [], None
    while (slot := r.next_slot(wall)) is not None:
        res = r.child("pass", slot)
        wall = res["wall"] if res else None
        if res is not None:
            passes.append(res)
    if not passes:
        return None, []
    # On a shared host the speed of a fresh interpreter's start drifts by a
    # quarter or more within seconds, and set-up is mostly start-up: the
    # interpreter, the standard library and numpy. So each set-up-only child
    # comes right after a reference start-up (child.py ref mode), and its
    # set-up time is divided by that reference and scaled by REF_S: the
    # set-up time, in seconds, at the speed where that start-up takes REF_S.
    setups, extra = [], 0.0
    while r.elapsed() < RUN_LIMIT_S and (
            len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and extra < SETUP_EXTRA_S)):
        ref = r.child("ref", 0)
        res = r.child("setup", 0) if ref is not None else None
        if res is None:
            break
        setups.append((REF_S * res["setup_s"] / ref["ref_s"], res["setup_s"], ref["ref_s"]))
        extra += ref["wall"] + res["wall"]
    if not setups:
        return None, []
    scaled, plain, ref = (statistics.median(col) for col in zip(*setups))

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {"pass_norm": med("pass_norm"), "setup_s": scaled,
               "peak_rss_mb": med("peak_rss_mb")}
    n, k = len(passes), len(setups)
    name = workloads.WORKLOADS[r.workload].pass_name
    rows = [f"  {'pass_norm':<28} {metrics['pass_norm']:>12.4f} ratio  median of {n}",
            f"  {name + ' (wall)':<28} {med('pass_s'):>12.4f} s      median of {n}",
            f"  {'probe chunk (wall)':<28} {med('probe_s') * 1e3:>12.4f} ms     "
            f"median of {n} passes, {sum(p['probe_samples'] for p in passes)} samples",
            f"  {'setup_s':<28} {scaled:>12.4f} s      median of {k}, at reference speed",
            f"  {'set-up (wall)':<28} {plain:>12.4f} s      median of {k}",
            f"  {'reference start-up (wall)':<28} {ref:>12.4f} s      median of {k}",
            f"  {'peak_rss_mb':<28} {metrics['peak_rss_mb']:>12.4f} MB     median of {n}"]
    units = {"pass_norm": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    return {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}, rows


def trace(r: Runner) -> tuple[dict | None, list]:
    pairs, wall = [], None
    while (slot := r.next_slot(wall)) is not None:
        plain = r.child("pass", slot)
        traced = r.child("trace", slot) if plain is not None else None
        wall = None
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
            wall = plain["wall"] + traced["wall"]
    if not pairs:
        return None, []
    names = tracing.layer_metric_names()
    values = {}
    for m in names:
        if m == "bench.trace_overhead_ratio":
            vals = [t["pass_s"] / p["pass_s"] for p, t in pairs]
        else:
            vals = [t["layers"][m] for _, t in pairs]
        values[m] = statistics.median(vals)
    traced_s = statistics.median([t["pass_s"] for _, t in pairs])
    rows = [f"  traced passes: {len(pairs)}; traced pass {traced_s:.4f} s; spans in "
            f"{r.spans_dir.relative_to(ROOT)}/spans-{r.workload}-seed{r.seed}-pass*.json",
            "  module self time, share of the traced pass:"]
    for mod in tracing.MODULES + ("bench",):
        v = values.get(f"{mod}.self_s", 0.0)
        rows.append(f"    {mod:<10} {v:>10.4f} s  {v / traced_s if traced_s else 0:6.1%}")
    for group, moves, loaded, unchanged in tracing.LAYER_TABLE:
        rows.append(f"  should move {moves}; loaded on {loaded}; "
                    f"predicted no change on {unchanged}:")
        for m in group:
            rows.append(f"    {m:<44} {values[m]:>12.6g} {tracing.unit_of(m)}")
    return ({m: {"value": values[m], "unit": tracing.unit_of(m)} for m in names}, rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kleintwist" / "__init__.py").is_file():
        print(f"no kleintwist package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "kleintwist", quiet=1)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        r = Runner(args.workload, args.seed, args.seconds, workdir, out_dir)
        metrics, rows = (trace if args.trace else measure)(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(r.failures)
    print(f"kleintwist benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, {r.elapsed():.1f} s elapsed")
    print("\n".join(rows))
    print(f"  {'failed_ratio':<28} {failed / max(1, r.attempted):>12.4f} ratio  "
          f"{failed} of {r.attempted} operations")
    for f in r.failures[:20]:
        print(f"  FAILED {f}")
    if metrics is None:
        print("no pass completed, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": r.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
