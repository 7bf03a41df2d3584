"""aclrisk benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload long_csv --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Each workload runs in three steps, in fresh processes that import the
package from ``src/``:

1. ``workloads.py`` writes the seeded inputs and their expected outcomes
   (not timed);
2. ``worker.py`` runs the closed loop for ``--seconds`` and judges every
   outcome;
3. with ``--trace 0``, fresh interpreters import ``aclrisk.cli``, half of
   them before step 2 and half after it; ``setup_s`` is their median
   import time.

End-to-end times are scaled against the machine's current speed: op
times by a calibration kernel timed next to each op (see
``calibrate.py``), import times by a fresh import of the package's
dependencies alone. The unscaled figures are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (trials attempted and trials with
a wrong outcome, so ``error_rate = failed / attempted``) and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Inputs and reports go to ``.bench_work/`` and are removed
at the end; the traced run's spans are kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("long_csv", "openpose_dirs", "batch_landing")

# setup_s: each fresh import of aclrisk.cli is paired with a fresh import
# of the package's dependencies alone, and scaled by REFERENCE_IMPORT_S over
# that pair's time. On a shared host import times drift by up to 40% for
# minutes at a time, and the pair drifts together; the calibration kernel
# of calibrate.py does not follow that drift. Half of the pairs run before
# the closed loop and half after it.
SETUP_PAIRS = 10
REFERENCE_IMPORT_S = 0.1
DEPENDENCIES_CODE = ("import time; t = time.perf_counter(); import argparse, contextlib, "
                     "csv, dataclasses, fractions, json, math, os, pathlib, re, typing, "
                     "numpy; print(time.perf_counter() - t)")
SETUP_CODE = ("import time; t = time.perf_counter(); import aclrisk.cli; "
              "print(time.perf_counter() - t, aclrisk.cli.__file__)")
GENERATE_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "trials_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACLRISK_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} took longer than {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def import_seconds() -> tuple[float, float]:
    """Import times of fresh interpreters: ``aclrisk.cli``, and its
    dependencies alone."""
    dependencies = float(_run([sys.executable, "-c", DEPENDENCIES_CODE], 60))
    seconds, path = _run([sys.executable, "-c", SETUP_CODE], 60).split(maxsplit=1)
    if SRC not in Path(path.strip()).resolve().parents:
        raise BenchError(f"aclrisk.cli was imported from {path.strip()}, not from {SRC}")
    return float(seconds), dependencies


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, fault: str | None = None) -> dict:
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        argv = [sys.executable, str(BENCH / "workloads.py"), "--workload", name,
                "--seed", str(seed), "--out", str(work)]
        argv += ["--smoke"] if smoke else []
        argv += ["--fault", fault] if fault else []
        _run(argv, GENERATE_TIMEOUT_S)
        setup = []
        if trace == 0:
            import_seconds()   # untimed: writes the bytecode caches
            setup += [import_seconds() for _ in range(SETUP_PAIRS // 2)]
        argv = [sys.executable, str(BENCH / "worker.py"), "--manifest",
                str(work / "manifest.json"), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(work / "result.json")]
        if trace:
            argv += ["--spans", str(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")]
        _run(argv, 2 * seconds + 90)
        result = json.loads((work / "result.json").read_text())
        if trace == 0:
            setup += [import_seconds() for _ in range(SETUP_PAIRS - len(setup))]
            scaled = statistics.median(t * REFERENCE_IMPORT_S / d for t, d in setup)
            result["metrics"] = {"setup_s": scaled, **result["metrics"]}
            result["notes"]["setup_s"] = (
                f"median of {len(setup)} fresh imports of aclrisk.cli; unscaled "
                f"{statistics.median(t for t, _ in setup):.4g} s, dependencies alone "
                f"{statistics.median(d for _, d in setup):.4g} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs")
    parser.add_argument("--fault", choices=("wrong-oracle", "missing-rejection"),
                        help="break an expectation on purpose (self-check)")
    args = parser.parse_args(argv)

    if not (SRC / "aclrisk" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no aclrisk package under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.smoke, args.fault)
        except BenchError as exc:
            sys.stderr.write(f"benchmark: {name}: {exc}\n")
            return 1
        attempted, failed = result["attempted"], result["failed"]
        for metric, unit in units.items():
            note = result["notes"].get(metric, "")
            print(f"{name:14s} {metric:48s} {result['metrics'][metric]:14.6g} {unit:9s} {note}")
        print(f"{name:14s} {'error_rate':48s} {failed / attempted:14.6g} {'1':9s} "
              f"{failed} of {attempted} trials wrong")
        for reason in result["reasons"]:
            sys.stderr.write(f"benchmark: {name}: wrong outcome: {reason}\n")
        if not result["consistent"]:
            sys.stderr.write(f"benchmark: {name}: per-layer self times do not "
                             "add up to the traced op time\n")
        summary["correct"] &= failed == 0 and result["consistent"]
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({f"{prefix}{m}": {"value": result["metrics"][m], "unit": u}
                                   for m, u in units.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
