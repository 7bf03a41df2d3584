"""Mutation testing of aclrisk with the standard library only (see README, "Test").

Each mutant is one operator change in one module of ``src/aclrisk``, written
into a temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``; the
checkout is never written. The tier-1 suite runs there with ``-x -p
no:cacheprovider --hypothesis-seed 0`` plus the arguments after ``--``. A run
past the time limit is ended with its whole process group and counts as
killed, by timeout. One JSON summary goes to stdout; its ``killed`` counts
include the timeouts.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aclrisk"
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed", "0"]

# operator: (its symbol, then what it becomes: the neighbour before the negation)
OPERATORS = {
    ast.Lt: ("<", "<=", ">="), ast.LtE: ("<=", "<", ">"),
    ast.Gt: (">", ">=", "<="), ast.GtE: (">=", ">", "<"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}

# Mutants that no input can tell from the code, by module:line:column:old→new
EQUIVALENT = {
    "kinematics.py:65:34:-→+": "a full window ends at len + 1; every slice clips at the end",
    "kinematics.py:173:17:-→+": "a landing window ends past the last row; every slice clips",
    "motion_synth.py:235:30:>→>=": "perturb at sigma 0 returns its series' values unchanged",
    "pose_ingest.py:246:23:<=→<": "a frame number is a digit group or a position: never negative",
}


class Mutant(NamedTuple):
    key: str      # module:line:column:old→new, the column 1-based
    module: str
    offset: int   # byte offset of the operator in the module
    old: str
    new: str


def enumerate_mutants(path: Path) -> list[Mutant]:
    """Every mutant of one module, in source order (ast columns count bytes)."""
    source = path.read_bytes()
    starts = [0, *accumulate(len(line) for line in source.splitlines(keepends=True))]
    mutants = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            gaps = zip(node.ops, operands, operands[1:])
        elif isinstance(node, ast.BinOp):
            gaps = [(node.op, node.left, node.right)]
        else:
            continue
        for op, left, right in (g for g in gaps if type(g[0]) in OPERATORS):
            old, *news = OPERATORS[type(op)]
            # between the operands there is only the operator, brackets and comments
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            gap = source[lo:starts[right.lineno - 1] + right.col_offset]
            offset = lo + re.sub(rb"#[^\n]*", lambda m: b" " * len(m[0]), gap).index(old.encode())
            line = bisect_right(starts, offset)
            mutants += [Mutant(f"{path.name}:{line}:{offset - starts[line - 1] + 1}:{old}→{new}",
                               path.name, offset, old, new) for new in news]
    return sorted(mutants, key=lambda m: (m.offset, m.new))


def run_suite(mutant: Mutant | None, extra: list[str], timeout: float) -> tuple[str, float]:
    """('survived' | 'killed' | 'timeout', seconds) of one tier-1 run in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="aclrisk-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant:
            source = (PACKAGE / mutant.module).read_bytes()
            end = mutant.offset + len(mutant.old)
            assert source[mutant.offset:end] == mutant.old.encode(), mutant.key
            (work / "src" / "aclrisk" / mutant.module).write_bytes(
                source[:mutant.offset] + mutant.new.encode() + source[end:])
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *PYTEST, *extra], cwd=work, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:  # tests fork kept workers: end the whole group, whether or not pytest ended
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    outcome = "timeout" if code is None else "survived" if code == 0 else "killed"
    return outcome, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments for every pytest run, after --")
    extra = parser.parse_args(argv).pytest_args
    names = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    mutants = [m for n in names for m in enumerate_mutants(PACKAGE / n)]

    outcome, seconds = run_suite(None, extra, timeout=3600.0)
    if outcome != "survived":
        sys.exit("the unmutated suite fails: mend it or the pytest arguments first")
    timeout = 3.0 * seconds
    print(f"unmutated suite: {seconds:.1f} s; timeout {timeout:.0f} s", file=sys.stderr)
    todo = [m for m in mutants if m.key not in EQUIVALENT]
    results: dict[str, str] = {}

    def run(m: Mutant) -> None:
        results[m.key] = run_suite(m, extra, timeout)[0]
        print(f"[{len(results)}/{len(todo)}] {m.key} {results[m.key]}", file=sys.stderr)

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:  # one mutant per CPU
        list(pool.map(run, todo))
    summary: dict = {"modules": {}, "survivors": []}
    for name in names:
        mine = [m for m in mutants if m.module == name]
        outcomes = [results.get(m.key, "equivalent") for m in mine]
        count = outcomes.count
        summary["modules"][name] = {
            "mutants": len(mine), "killed": count("killed") + count("timeout"),
            "timeout": count("timeout"), "survived": count("survived"),
            "equivalent": count("equivalent")}
        summary["survivors"] += [m.key for m, o in zip(mine, outcomes) if o == "survived"]
    print(json.dumps(summary, indent=1, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
