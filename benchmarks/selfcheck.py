"""Self-check of the benchmark: proves its correctness checks can fail.

    python3 benchmarks/selfcheck.py

1. A smoke-sized run of each workload, untraced and traced, reports
   ``correct`` with no wrong outcome and exactly the metrics that
   BENCHMARK.json names.
2. A wrong oracle grade (long_csv, openpose_dirs) and a missing rejection
   (batch_landing) each drive ``error_rate`` above 0.
3. In a directory that holds only BENCHMARK.json and the benchmark's
   files, run.py exits with a non-zero code and prints no result.

Exits with 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SECONDS = "1"


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--seed", "7",
                           "--seconds", SMOKE_SECONDS, *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def _result(*args: str) -> dict:
    code, out = _run(*args)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            r = _result("--workload", workload, "--trace", str(trace), "--smoke")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{workload} trace {trace}: smoke run correct, error_rate 0")
            check(set(r["metrics"]) == expected[trace],
                  f"{workload} trace {trace}: reports exactly the metrics of BENCHMARK.json")

    for workload, fault in (("long_csv", "wrong-oracle"), ("openpose_dirs", "wrong-oracle"),
                            ("batch_landing", "missing-rejection")):
        r = _result("--workload", workload, "--smoke", "--fault", fault)
        check(not r["correct"] and r["failed"] > 0,
              f"{workload} with {fault}: error_rate {r['failed']}/{r['attempted']} > 0")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        code, out = _run("--workload", spec["workloads"][0]["name"], cwd=bare)
        check(code != 0 and not out.strip(),
              f"without the package: exit code {code}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
