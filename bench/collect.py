"""Run the benchmark over several seeds and record the results.

    python3 bench/collect.py --label baseline --seeds 1-10

Runs `bench/run.py` once per (workload, seed) for every workload and for
the run length in BENCHMARK.json, one run at a time, and
writes bench/BENCH_<label>.json: the git revision, Python version and
CPU count, every run's metrics, and per workload and metric the median,
the quartiles and the spread (quartile distance / median), as
`statistics.quantiles(values, n=4)` gives them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = BENCHMARK["run_seconds"]
    doc = {"git_rev": git_rev(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "seconds": seconds, "trace": args.trace,
           "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                              if args.trace == 0)
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]} if len(runs) > 1 else {}
        doc["workloads"][workload] = {"summary": metrics, "runs": runs}
        for name, s in metrics.items():
            if args.trace == 0:
                print(f"{workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f}")
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
