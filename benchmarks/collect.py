"""Repeated benchmark runs, summarised as one point of the BENCH trajectory.

    python3 benchmarks/collect.py --runs 10 --label seed --out benchmarks/results/BENCH_seed.json

For each workload, runs ``run.py`` once per seed with ``--trace 0`` and
then ``--trace-runs`` times with ``--trace 1``. For every end-to-end
metric it prints and records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. A
spread above a third of its bound is flagged, except for ``setup_s``.
Per-layer metrics are recorded as the median over the traced runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--label", default="")
    parser.add_argument("--commit", default=None)
    parser.add_argument("--out", help="trajectory JSON file to write")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "label": args.label,
        "commit": args.commit or _commit(),
        "hardware": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                     "machine": platform.machine(),
                     "python": platform.python_version(),
                     "numpy": importlib.metadata.version("numpy")},
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = [_run(workload, seeds[i % len(seeds)], args.seconds, 1)
                  for i in range(args.trace_runs)]
        entry = {"attempted": sum(r["attempted"] for r in runs + traced),
                 "failed": sum(r["failed"] for r in runs + traced),
                 "end_to_end": {}, "per_layer": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"{workload:14s} {metric:14s} median {med:12.6g} "
                  f"{runs[0]['metrics'][metric]['unit']:4s} spread {spread:7.4f} "
                  f"bound {bound}{flag}")
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
        for metric in traced[0]["metrics"] if traced else []:
            entry["per_layer"][metric] = {
                "unit": traced[0]["metrics"][metric]["unit"],
                "value": statistics.median(r["metrics"][metric]["value"] for r in traced)}
        print(f"{workload:14s} error_rate     {entry['failed']} of {entry['attempted']} trials wrong")
        record["workloads"][workload] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
