"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                 [--out FILE]

Runs perfbench/run.py once per (workload, seed), one process at a time,
from the checkout root, with run_seconds from BENCHMARK.json. For each
metric it prints the median of the per-run values and the spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4), which
is how a run set is judged against the bounds in BENCHMARK.json. --out
writes the summary, every run's final line, wall time and phase medians
(raw pass_s, Reference ref_s and raw setup_raw_s among them), and the first
run's environment record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run's final line, its detail record and its wall time."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    phases = {name: p["median"] for name, p in detail.get("phases", {}).items()}
    if "setup_raw_s" in detail:
        phases["setup_raw_s"] = detail["setup_raw_s"]["median"]
    return json.loads(lines[-1]), {"env": env, "phase_medians": phases}, wall


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        results, walls, phases, env = [], [], [], None
        for seed in seeds:
            result, detail, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            results.append(result)
            walls.append(wall)
            phases.append(detail["phase_medians"])
            env = env or detail["env"]
        summary = summarise(results)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": summary,
            "runs": results,
            "run_wall_s": walls,
            "run_phase_medians": phases,
            "env": env,
        }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"failed={report['workloads'][workload]['failed']} "
              f"wall={sum(walls):.0f}s over {len(walls)} runs")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound={bound} {'ok' if s['spread'] <= bound else 'OVER'}"
            print(f"  {name} median={s['median']:.6g} {s['unit']} spread={s['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
