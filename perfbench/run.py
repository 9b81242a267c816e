"""massflat benchmark: one closed-loop client driving the public API.

Usage:
    python3 perfbench/run.py --workload {sweep,mesh,certify,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One op starts when the previous one returns.
The inputs of every op come from ``--seed``; each op's output is checked.

``--trace 0`` measures the end-to-end metrics (setup_s, ops_per_s,
latency_p50_ms, latency_tail_ms, pass_frac, peak_rss_mb).  Its times are
given at the reference speed: a fixed reference task, timed between ops
throughout the run, measures how fast the machine ran, and every time is
scaled by REF_S over the reference task's median.  The lines before the
result also print the wall-clock values.  ``--trace 1`` runs half the time
untraced, then installs span wrappers around the package's public functions
and runs the other half traced; it reports the per-layer metrics, per op,
and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sweep", "mesh", "certify", "cli")
SETUP_TRIALS = 5
TAIL_BEYOND = 10
REF_S = 0.010           # the reference task's time at the reference speed
REF_EVERY_S = 0.2       # wall time between two reference samples in a loop

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "profiles.points": "count/op",
    "profiles.busy_s": "s/op",
    "profiles.validate.calls": "count/op",
    "profiles.validate.busy_s": "s/op",
    "profiles.errors": "count/op",
    "geometry.build.calls": "count/op",
    "geometry.build.busy_s": "s/op",
    "geometry.build.knots": "count/op",
    "geometry.query.calls": "count/op",
    "geometry.query.points": "count/op",
    "geometry.query.busy_s": "s/op",
    "geometry.query.self_s": "s/op",
    "geometry.r_of_s.newton_steps": "count/op",
    "geometry.slope.calls": "count/op",
    "geometry.slope.points": "count/op",
    "geometry.integral.busy_s": "s/op",
    "geometry.errors": "count/op",
    "embedding.constants.calls": "count/op",
    "embedding.constants.busy_s": "s/op",
    "embedding.check.busy_s": "s/op",
    "embedding.check.self_s": "s/op",
    "embedding.errors": "count/op",
    "mesh.build.busy_s": "s/op",
    "mesh.nodes": "count/op",
    "mesh.edges": "count/op",
    "mesh.dijkstra.calls": "count/op",
    "mesh.dijkstra.sources": "count/op",
    "mesh.dijkstra.busy_s": "s/op",
    "mesh.dijkstra.useful_frac": "frac",
    "mesh.peak_graph_mb": "MB",
    "mesh.errors": "count/op",
    "certificates.flat.calls": "count/op",
    "certificates.flat.busy_s": "s/op",
    "certificates.flat.self_s": "s/op",
    "certificates.budget.calls": "count/op",
    "certificates.budget.busy_s": "s/op",
    "certificates.errors": "count/op",
    "ghdist.best.calls": "count/op",
    "ghdist.best.busy_s": "s/op",
    "ghdist.candidates": "count/op",
    "ghdist.candidates_per_best": "count",
    "ghdist.segment.busy_s": "s/op",
    "ghdist.errors": "count/op",
    "sweeps.rows": "count/op",
    "sweeps.rows_failed": "count/op",
    "sweeps.busy_s": "s/op",
    "sweeps.concurrency": "ratio",
    "sweeps.errors": "count/op",
    "serialization.busy_s": "s/op",
    "serialization.errors": "count/op",
    "cli.import_s": "s/op",
    "cli.import_scipy_s": "s/op",
    "cli.main_s": "s/op",
    "cli.exit_nonzero": "count/op",
    "cli.errors": "count/op",
    "trace.op_s": "s/op",
    "trace.overhead_ops_per_s": "1/s",
}


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile): the sorted sample with exactly TAIL_BEYOND
    samples after it, and the share of samples at or below it, in percent.
    With too few samples there is no such percentile: (nan, nan); the
    end-to-end run therefore always makes at least TAIL_BEYOND + 1 ops.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return math.nan, math.nan
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


_REF_DATA = None


def _ref_data():
    """The reference task's fixed input: 20,000 floats (160 kB)."""
    global _REF_DATA
    if _REF_DATA is None:
        import numpy as np

        _REF_DATA = np.random.default_rng(0).random(20_000)
    return _REF_DATA


def reference_task() -> float:
    """Seconds taken by one fixed unit of interpreter and numpy work.

    About 10 ms on the machine the baseline was measured on: a pure-Python
    float loop, then numpy sorts and sums on a small array, the two kinds of
    work massflat's ops are made of.  It calls nothing of massflat, so a
    change to the package leaves it alone, while a slower or busier machine
    slows it as it slows the ops.  Its data stay small, so that what an op
    leaves in the caches does not change its time; a random gather from a
    4 MB table runs 50% slower right after an op than in a warm loop.
    """
    import numpy as np

    small = _ref_data()
    t0 = time.perf_counter()
    x = 0.0
    for k in range(35_000):
        x += math.sqrt(k + x % 7.0)
    for _ in range(12):
        y = np.cumsum(np.sqrt(np.sort(small * (1.0 + x * 1e-15))))
    if not (math.isfinite(x) and math.isfinite(y[-1])):
        raise RuntimeError("reference task went wrong")
    return time.perf_counter() - t0


def slowness(samples) -> float:
    """How much slower than the reference speed the machine ran: > 1 is slower."""
    return statistics.median(samples) / REF_S


class Loop:
    """A closed loop of ops, with latencies and pass/fail counts.

    Between two ops the loop also times the reference task, once for every
    REF_EVERY_S of wall time that has passed; ``ref`` holds those samples,
    and the time they took is left out of the loop's ``wall``.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.next_op = 0
        self.problems = []
        self.ref = []
        _ref_data()                  # built before any timing starts

    def run(self, seconds: float, min_ops: int = 1) -> dict:
        """Run ops until ``seconds`` have passed and ``min_ops`` were tried."""
        wl = self.workload
        latencies, passed, failed = [], 0, 0
        t0 = time.perf_counter()
        deadline = t0 + seconds
        next_ref, ref_wall = t0, 0.0
        while True:
            now = time.perf_counter()
            if next_ref <= now:
                while next_ref <= now:     # one sample per REF_EVERY_S elapsed
                    self.ref.append(reference_task())
                    next_ref += REF_EVERY_S
                ref_wall += time.perf_counter() - now
            i = self.next_op
            self.next_op += 1
            spec = wl.inputs(i)
            if self.tracer is not None:
                self.tracer.op = i
            start = time.perf_counter()
            try:
                result = wl.run(spec)
            except Exception as exc:   # an op that raises is a failed op
                latencies.append(time.perf_counter() - start)
                failed += 1
                self.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            else:
                latencies.append(time.perf_counter() - start)
                try:
                    bad = wl.check(spec, result)
                except Exception as exc:   # a broken check fails the op
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
                if bad:
                    failed += 1
                    self.problems.append(f"op {i}: " + "; ".join(bad))
                else:
                    passed += 1
            if time.perf_counter() >= deadline and len(latencies) >= min_ops:
                break
        wall = time.perf_counter() - t0 - ref_wall
        return {"latencies": latencies, "passed": passed, "failed": failed,
                "wall": wall}


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of start to ready-for-the-first-op."""
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
        finally:
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


def _metric_lines(metrics: dict, notes: dict) -> list:
    return [f"  {name:<32s} {m['value']:.6g} {m['unit']}"
            + (f"  ({notes[name]})" if name in notes else "")
            for name, m in metrics.items()]


def end_to_end(args, wl) -> dict:
    loop = Loop(wl)
    # enough ops that the tail percentile exists, however slow an op is
    res = loop.run(args.seconds, min_ops=TAIL_BEYOND + 1)
    slow = slowness(loop.ref)
    wall_ms = [1000.0 * x for x in res["latencies"]]
    lat_ms = [x / slow for x in wall_ms]
    attempted = len(lat_ms)
    tail_ms, tail_pct = tail(lat_ms)
    if getattr(wl, "peak_rss_mb", None) is not None:
        rss = wl.peak_rss_mb
        rss_note = "largest CLI child process"
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_note = "load process"
    # the probes run right after the loop; the loop's slowness, taken from
    # about a hundred samples, scales them better than samples taken between
    # probes, which in one set read 12% faster than the loop while the
    # probes themselves ran slower
    setup_wall = setup_seconds(args.workload, args.seed)
    values = {
        "setup_s": setup_wall / slow,
        "ops_per_s": res["passed"] * slow / res["wall"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "pass_frac": res["passed"] / attempted,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": (f"median of {SETUP_TRIALS} fresh-process set-ups; "
                    f"wall {setup_wall:.6g} s"),
        "ops_per_s": (f"{res['passed']} passed ops in {res['wall']:.3f} "
                      f"wall s; wall {res['passed'] / res['wall']:.6g} 1/s"),
        "latency_p50_ms": (f"{attempted} ops; wall "
                           f"{statistics.median(wall_ms):.6g} ms"),
        "latency_tail_ms": (f"p{tail_pct:.1f}: {TAIL_BEYOND} of {attempted} "
                            f"ops above it; wall {tail(wall_ms)[0]:.6g} ms"),
        "pass_frac": f"{res['failed']} of {attempted} ops failed",
        "peak_rss_mb": rss_note,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"res": res, "loop": loop, "metrics": metrics, "notes": notes}


def traced(args, wl, tracer) -> dict:
    import tracer as tracing

    loop = Loop(wl, tracer)
    half = args.seconds / 2.0
    plain = loop.run(half)
    if args.workload == "cli":
        wl.traced = True
    else:
        tracer.install()
        tracer.enabled = True
    res = loop.run(half)
    tracer.enabled = False
    ops = res["passed"] + res["failed"]
    if args.workload == "cli":
        raw = tracing.merge(wl.trace_parts)
    else:
        raw = tracer.raw()
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(out)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(tracing.layer_metrics(raw, ops))
    if args.workload == "cli":
        main_calls = raw["groups"].get("cli.main", {}).get("calls", 0.0)
        values["cli.import_s"] = wl.import_s / ops
        values["cli.import_scipy_s"] = wl.import_scipy_s / ops
        values["cli.main_s"] = raw["groups"].get("cli.main", {}).get("busy_s", 0.0) / ops
        values["cli.exit_nonzero"] = wl.exit_nonzero / loop.next_op
        values["cli.errors"] += (wl.crashes + ops - main_calls) / ops
    values["trace.op_s"] = sum(res["latencies"]) / ops
    values["trace.overhead_ops_per_s"] = (res["passed"] / res["wall"]
                                          - plain["passed"] / plain["wall"])
    res = {"latencies": plain["latencies"] + res["latencies"],
           "passed": plain["passed"] + res["passed"],
           "failed": plain["failed"] + res["failed"]}
    metrics = {k: {"value": float(values[k]), "unit": u}
               for k, u in PER_LAYER.items()}
    notes = {"trace.overhead_ops_per_s":
             f"{ops} traced ops, {raw['spans']} spans"}
    return {"res": res, "loop": loop, "metrics": metrics, "notes": notes}


def probe(args) -> int:
    """Set up as a workload process would, report ready, and exit."""
    import workloads

    workdir = ROOT / ".perfbench" / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "massflat" / "__init__.py").is_file():
        print(f"error: no massflat sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.probe:
        return probe(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_dijkstra()   # before massflat is imported

    import workloads

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        out = traced(args, wl, tracer) if args.trace else end_to_end(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    res = out["res"]
    attempted = res["passed"] + res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} ops, {res['failed']} failed")
    ref = out["loop"].ref
    print(f"  reference task: median {1000.0 * statistics.median(ref):.4g} ms "
          f"over {len(ref)} samples, slowness {slowness(ref):.4f}"
          + ("" if args.trace else "; times below are wall / slowness"))
    print("\n".join(_metric_lines(out["metrics"], out["notes"])))
    for line in out["loop"].problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": attempted,
                      "failed": res["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
