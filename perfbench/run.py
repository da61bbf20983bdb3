"""Benchmark harness for cayleydense: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census2 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s); --trace 1 times one untraced pass, then wraps every layer's
public functions in spans and prints the per-layer metrics. The last line
of standard output is the JSON result; the line before it records the run
(seed, sizes, interpreter, machine, commit). Both, plus the spans of a
traced run, are also written under .bench_out/. --smoke runs every
workload at tiny sizes, traced and untraced, and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 2  # wall_s and cpu_s are medians over at least this many passes

# per_layer metrics: (span, statistic) pairs, then the ratios and extras below.
LAYER_STATS = (
    ("abelian.enumerate_groups", ("calls", "s")),
    ("abelian.generates", ("calls", "s")),
    ("zmatrix.invariant_factors", ("calls", "s")),
    ("zmatrix.proper_generating_set", ("calls", "s")),
    ("cayley.successor_table", ("calls", "s")),
    ("cayley.bfs_distances", ("calls", "s", "self_s")),
    ("cayley.distance_profile", ("calls", "s")),
    ("cayley.dilate_digraph", ("calls", "s")),
    ("mdd.build_mdd", ("calls", "s", "self_s")),
    ("mdd.verify_mdd", ("s", "self_s")),
    ("mdd.dilate_mdd", ("s",)),
    ("mdd.extract_lshape", ("s",)),
    ("mdd.is_proper", ("calls", "s")),
    ("kappa_search.kappa", ("calls", "s", "self_s")),
    ("kappa_search.cache_get", ("calls", "s")),
    ("kappa_search.cache_put", ("calls", "s")),
    ("cli.run", ("calls", "s", "self_s")),
)
# Metric prefix -> span name, where the two differ.
SPAN_OF = {
    "kappa_search.cache_get": "kappa_search.KappaCache.get",
    "kappa_search.cache_put": "kappa_search.KappaCache.put",
}
RATIOS = (
    ("cayley.bfs_distances.generating_frac", "cayley.bfs_distances"),
    ("kappa_search.cache_hit_frac", "kappa_search.KappaCache.get"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def fresh_import() -> SimpleNamespace:
    """Import cayleydense from scratch, so that each set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "cayleydense" or m.startswith("cayleydense.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cayleydense")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "cayleydense":
        raise SystemExit(f"imported cayleydense from {pkg.__file__}, not from this checkout")
    layers = {}
    for layer in tracing.LAYERS:
        try:
            layers[layer] = importlib.import_module(f"cayleydense.{layer}")
        except ModuleNotFoundError:
            layers[layer] = None
    return SimpleNamespace(**layers)


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its children that have been waited for."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


def children_cpu_seconds() -> float:
    return _cpu(resource.RUSAGE_CHILDREN)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, size: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run of one workload; returns the result object and the run record."""
    wl = workloads.WORKLOADS[name](size, seed, workdir, ROOT)
    setups = []
    for _ in range(1 if trace else wl.setup_reps):  # setup_s is the median of these
        t0 = perf_counter()
        cd = fresh_import()
        wl.setup(cd)
        setups.append(perf_counter() - t0)
    wl.reference()
    tally = workloads.Tally()
    walls, cpus, summaries, child_cpu = [], [], [], []
    tracer = None
    start = perf_counter()
    # A traced run times one untraced pass first, as the base of the tracing
    # overhead. Passes stop when the next one would end after `seconds`.
    while True:
        if walls and trace and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
        if tracer is not None:
            tracer.pass_index = len(summaries)
            first = len(tracer.spans)
        c0, k0, t0 = cpu_seconds(), children_cpu_seconds(), perf_counter()
        out = wl.run_pass(cd)
        t1, c1, k1 = perf_counter(), cpu_seconds(), children_cpu_seconds()
        wl.check(out, tally)
        out = None  # so that the next pass does not run beside this one's outputs in memory
        if tracer is None:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
        else:
            summaries.append((t1 - t0, tracer.summary(first, len(tracer.spans))))
            child_cpu.append(k1 - k0)
        done = len(summaries) if trace else len(walls)
        if done >= (1 if trace else MIN_PASSES) and perf_counter() - start + (t1 - t0) > seconds:
            break

    if trace:
        metrics, absent = layer_metrics(tracer, summaries, child_cpu, walls[0])
    else:
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "cpu_s": {"value": median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
        absent = []
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": size,
        **machine_info(),
        "setup_runs_s": setups,
        "untraced_pass_s": walls,
        "traced_pass_s": [w for w, _ in summaries],
        "failures": tally.messages,
        "absent_spans": absent,
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return {"result": result, "record": record, "tracer": tracer}


def layer_metrics(tracer, summaries, child_cpu, untraced_wall):
    """Per-layer metrics as medians over the traced passes; names never wrapped are absent."""
    metrics = {}
    absent = set()

    def put(metric, values, unit):
        metrics[metric] = {"value": median(values), "unit": unit}

    for prefix, stats in LAYER_STATS:
        span = SPAN_OF.get(prefix, prefix)
        if span not in tracer.wrapped:
            absent.add(span)
        for stat in stats:
            put(f"{prefix}.{stat}", [s.get(span, {}).get(stat, 0) for _, s in summaries], UNITS[stat])
    for metric, span in RATIOS:
        if span not in tracer.wrapped:
            absent.add(span)
        fracs = []
        for _, s in summaries:
            entry = s.get(span, {})
            fracs.append(entry["nonnull"] / entry["calls"] if entry.get("calls") else 0.0)
        put(metric, fracs, "fraction")
    put("kappa_search.pool_child_cpu_s", child_cpu, "s")
    traced = median([w for w, _ in summaries])
    put("trace.wall_s", [traced], "s")
    put("trace.overhead_s", [traced - untraced_wall], "s")
    return metrics, sorted(absent)


def write_outputs(run: dict) -> None:
    record = run["record"]
    stem = f"{record['workload']}_seed{record['seed']}_trace{record['trace']}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{stem}.json").write_text(
        json.dumps({"record": record, "result": run["result"]}, indent=1) + "\n"
    )
    tracer = run["tracer"]
    if tracer is not None:
        with open(OUT / f"spans_{stem}.jsonl", "w", encoding="utf-8") as fh:
            for pass_index, name, start, end, parent in tracer.spans:
                fh.write(json.dumps([pass_index, name, start, end, parent]) + "\n")


def run_one(name, size, seed, seconds, trace):
    workdir = OUT / f"work_{name}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(name, size, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; metric names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = set(spec_workload["name"] for spec_workload in spec["workloads"]) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_one(name, workloads.SMOKE[name], 1, 0, bool(trace))
            res = run["result"]
            names_ok = set(res["metrics"]) == want[trace]
            ok &= res["correct"] and names_ok
            print(
                f"{name} trace={trace}: correct={res['correct']} attempted={res['attempted']} "
                f"failed={res['failed']} metric names match={names_ok}"
            )
            for msg in run["record"]["failures"]:
                print("  " + msg)
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, checks only")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cayleydense" / "__init__.py").is_file():
        print(f"no cayleydense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    run = run_one(args.workload, workloads.FULL[args.workload], args.seed, args.seconds, bool(args.trace))
    write_outputs(run)
    for msg in run["record"]["failures"]:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({"run": run["record"]}, sort_keys=True))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
