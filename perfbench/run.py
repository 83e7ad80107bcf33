"""Benchmark of superrigid: three workloads, a correctness gate on every pass,
and a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload finite_rigidity --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

With ``--trace 0`` the workload runs in full passes for about ``--seconds``.
Before each pass, and once after the last, the set-up (import of the library,
``make`` of every entry, seeded relabelling) runs in a burst of SETUP_BURST
back-to-back set-ups, and the next pass uses the last one.  A speed probe
samples the host's speed all the while, and the operation and set-up times
are scaled to a reference speed (see SpeedProbe); timings are medians.  With
``--trace 1`` one untraced and one traced pass are run and the per-layer
metrics are reported.  The last line of standard output is one JSON
object.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, build_ops, import_library  # noqa: E402

SETUP_BURST = 10


def probe_work():
    """The speed probe's fixed work: Fraction arithmetic and tuple-keyed dict
    updates, the kinds of work the library does, about 1.5 ms."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    d = {}
    for i in range(600):
        k = (i % 13, i % 7)
        d[k] = d.get(k, 0) + i * 3
    x = [Fraction(i, 7) for i in range(60)]
    for i, a in enumerate(x):
        d[(i % 5, i % 3)] = d.get((i % 5, i % 3), 0) + a * a
    return s, sorted(d.items())


class SpeedProbe:
    """Samples the host's speed while the workload runs.

    The host's speed wanders by up to about 1.6x within seconds and drifts
    over minutes, much more than the run-to-run difference a change should
    show.  Every INTERVAL seconds a SIGALRM handler times probe_work on
    the benchmark's own CPU.  The time of an operation or a set-up is then
    scaled by PROBE_S over the mean probe time in a window around it: its
    time on a machine where probe_work takes exactly PROBE_S.  now() is a clock that
    leaves out the time spent in the handler, so the probe adds nothing to
    the times it scales.
    """

    INTERVAL = 0.05
    WINDOW = 0.25
    PROBE_S = 0.0015

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []   # (now(), seconds)
        self.busy = False
        probe_work()

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += time.perf_counter() - t0
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start`` on now(), at the probe's
        reference speed."""
        lo, hi = start - self.WINDOW, start + seconds + self.WINDOW
        near = [dt for t, dt in self.samples if lo <= t <= hi]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return seconds * self.PROBE_S / statistics.fmean(near)


@dataclass
class OpResult:
    name: str
    start: float
    seconds: float
    verdict: bool
    mismatches: list
    error: str | None


def run_pass(ops, clock=time.perf_counter) -> list[OpResult]:
    """Run every operation once, judging each result outside its timing."""
    gc.collect()
    results = []
    for op in ops:
        t0 = clock()
        try:
            out = op.call()
        except Exception:
            results.append(OpResult(op.name, t0, clock() - t0, False,
                                    [], traceback.format_exc()))
        else:
            dt = clock() - t0
            verdict, mismatches = op.judge(out)
            results.append(OpResult(op.name, t0, dt, verdict, mismatches, None))
    return results


def setup(workload: str, seed: int, clock=time.perf_counter):
    """Import the library afresh, make every entry the workload uses and build
    its operations; returns the library, the operations and the time taken."""
    t0 = clock()
    lib = import_library(fresh=True)
    ops = build_ops(lib, workload, seed)
    return lib, ops, clock() - t0


def summarize(passes: list) -> dict:
    """Gate outcome over all passes."""
    results = [r for rs in passes for r in rs]
    failed = [r for r in results if not r.verdict or r.mismatches or r.error]
    return {"correct": not any(r.mismatches or r.error for r in results),
            "attempted": len(results), "failed": len(failed),
            "failed_ops": sorted({r.name for r in failed}),
            "problems": [m for r in results for m in r.mismatches]
            + [r.error for r in results if r.error]}


def setup_burst(workload: str, seed: int, clock):
    """Set up SETUP_BURST times back to back, each set-up dropping the last so
    that one copy of the library and its entries is alive at a time.  Returns
    the operations of the last set-up and (start, seconds) of each set-up."""
    times, ops = [], None
    for _ in range(SETUP_BURST):
        ops = None
        gc.collect()
        t0 = clock()
        _, ops, dt = setup(workload, seed, clock)
        times.append((t0, dt))
    return ops, times


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed, seconds):
    # The peak before the library is first imported is the interpreter and
    # this harness.  peak_rss_mb is the peak above it over the first burst
    # and pass: that work is the same in every run, while later re-imports
    # fragment the heap by an amount that depends on how many passes fit.
    floor = max_rss_mb()
    probe = SpeedProbe()
    probe.start()
    try:
        # A burst of set-ups runs before each pass and once after the last,
        # so that the set-up samples are spread over the run.
        start = probe.now()
        ops, burst = setup_burst(workload, seed, probe.now)
        bursts, passes = [burst], []
        while True:
            passes.append(run_pass(ops, probe.now))
            if len(passes) == 1:
                peak = max_rss_mb()
            ops = None
            ops, burst = setup_burst(workload, seed, probe.now)
            bursts.append(burst)
            elapsed = probe.now() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        probe.stop()
    scaled_ops = [{r.name: probe.scaled(r.start, r.seconds) for r in rs}
                  for rs in passes]
    walls = [sum(ops.values()) for ops in scaled_ops]
    raw_walls = [sum(r.seconds for r in rs) for rs in passes]
    slowest = [max(ops.items(), key=lambda kv: kv[1]) for ops in scaled_ops]
    # The median of every set-up of the run: the fastest of each burst
    # spread twice as much between runs.
    setup_times = [[probe.scaled(t, dt) for t, dt in burst] for burst in bursts]
    raw_setups = [[dt for _, dt in burst] for burst in bursts]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "slowest_op_s": (statistics.median(t for _, t in slowest), "s"),
        "setup_s": (statistics.median(t for ts in setup_times for t in ts), "s"),
        "peak_rss_mb": (peak - floor, "MB"),
    }
    probe_ms = [dt * 1e3 for _, dt in probe.samples]
    notes = [f"passes {len(passes)}: wall_s " + " ".join(f"{w:.3f}" for w in walls)
             + "; unscaled " + " ".join(f"{w:.3f}" for w in raw_walls),
             f"slowest op: {slowest[0][0]}",
             f"speed probe: {len(probe_ms)} samples, quartiles "
             + " ".join(f"{q:.3f}" for q in statistics.quantiles(probe_ms, n=4))
             + f" ms against {probe.PROBE_S * 1e3:g} ms",
             f"median set-up of each burst of {SETUP_BURST}: "
             + " ".join(f"{statistics.median(ts):.4f}" for ts in raw_setups)
             + " s; scaled: "
             + " ".join(f"{statistics.median(ts):.4f}" for ts in setup_times),
             f"max RSS {peak:.2f} MB after the first pass, {max_rss_mb():.2f} MB "
             f"at the end, {floor:.2f} MB before the library"]
    return metrics, summarize(passes), len(passes), notes


def traced_run(workload, seed):
    from tracer import Tracer, layer_metrics

    lib, ops, _ = setup(workload, seed)
    plain = run_pass(ops)
    tracer = Tracer(lib)
    tracer.install()
    try:
        ops = build_ops(lib, workload, seed)
        make_s = tracer.incl_s("catalog.make")
        tracer.reset()
        traced = run_pass(ops)
    finally:
        tracer.uninstall()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics = layer_metrics(tracer)
    metrics["catalog.make_s"] = (make_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    top = sorted(tracer.records.items(), key=lambda kv: -kv[1].self_s)[:12]
    notes = [f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s",
             "top self time: " + ", ".join(f"{k} {r.self_s:.3f}s/{r.calls}"
                                           for k, r in top)]
    return metrics, summarize([plain, traced]), 2, notes


def report(workload, seed, metrics, gate, passes, notes) -> dict:
    print(f"workload {workload} seed {seed}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    per_pass = gate["attempted"] // passes
    print(f"  {'ops_failed':30s} {gate['failed'] // passes}/{per_pass} per pass"
          + (f" ({', '.join(gate['failed_ops'])})" if gate["failed_ops"] else ""))
    for problem in gate["problems"][:10]:
        print(f"  GATE: {problem}")
    return {"correct": gate["correct"], "attempted": gate["attempted"],
            "failed": gate["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, *result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
