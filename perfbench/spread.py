"""Run the benchmark on every workload of BENCHMARK.json with seeds 1-10, one
run at a time, and report for each end-to-end metric its median, quartiles and
spread (quartile distance over median), the way a baseline is recorded in
perfbench/baseline.json.

    python3 perfbench/spread.py [--out perfbench/baseline.json]
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}",
           "run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run_once(w, seed, bench["run_seconds"])
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(json.dumps({"workload": w, **runs[-1]}), flush=True)
        summary = {m: quartile_summary([r[m] for r in runs]) for m in bounds}
        for m, s in summary.items():
            print(f"{w:18s} {m:14s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[m]})", flush=True)
        out["workloads"][w] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
