"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py --workloads census2,kappa3 --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --trace 1 --seeds 1-3 --out perfbench/baseline/BENCH_x.json

Each run is a separate `run.py` process, one after another. For each
workload and metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(values, n=4).
--out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write runs and summary to this JSON file")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "elapsed_s": elapsed, "run": json.loads(lines[-2])["run"], "result": result})
            ok &= result["correct"]
            print(f"{workload} seed {seed} ({elapsed:.0f} s): correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g} {v['unit']}" for k, v in sorted(result["metrics"].items())
                      if k in bounds or args.trace), flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {k: summarise([r["result"]["metrics"][k]["value"] for r in runs]) for k in names}
        for k, s in summary.items():
            bound = bounds.get(k)
            if bound is None and args.trace:
                continue
            unit = runs[0]["result"]["metrics"][k]["unit"]
            line = f"  {workload} {k}: median {s['median']:.4g} {unit}"
            if "spread" in s:
                line += f" spread {s['spread']:.3f}"
                if bound is not None:
                    line += f" (bound {bound}, a third {bound / 3:.3f})"
            print(line)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
