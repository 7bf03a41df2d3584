"""Closed-loop runner for one workload, in a process of its own.

    PYTHONPATH=src python3 benchmarks/worker.py --manifest DIR/manifest.json \\
        --seconds 20 --trace 0 --out DIR/result.json

One client on one thread: each op starts when the previous one has
ended. One untimed op warms the caches; the timed loop then cycles
through the ops for ``--seconds``. Every trial outcome is judged against
the manifest; see ``Checker``.

With ``--trace 1`` the loop alternates untraced and traced passes over
the ops. Per-layer metrics come from the traced passes only, and
``trace.overhead_ms`` is the traced minus the untraced median op time.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import aclrisk
from aclrisk import assessment, cli
from aclrisk.config import RunConfig
from aclrisk.errors import AclRiskError

import calibrate
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
GRADE_KEYS = ("x1", "x2", "x3", "x4", "x5")
TAIL_BEYOND = 10   # op_ms_tail: the latency with this many ops slower than it
MAX_REASONS = 5


class Checker:
    """Judges each trial outcome; counts attempts, wrong outcomes and
    rejections by stage.

    An outcome is wrong when it is an unexpected exception or rejection,
    when an expected rejection is missing or has the wrong type or stage,
    when its grades differ from the manifest's analytic grades, or when
    its report bytes differ from those of the trial's first run.
    """

    def __init__(self):
        self.reference: dict[int, bytes] = {}
        self.verdict: dict[int, str | None] = {}
        self.attempted = 0
        self.wrong = 0
        self.reasons: list[str] = []
        self.traced_failures = dict.fromkeys(tr.STAGES, 0)   # rejections in traced ops

    def judge(self, trial: dict, outcome: tuple, traced: bool) -> None:
        self.attempted += 1
        kind = outcome[0]
        if traced and kind == "rejected" and outcome[2] in tr.STAGES:
            self.traced_failures[outcome[2]] += 1
        reason = self._reason(trial, outcome)
        if reason is not None:
            self.wrong += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"trial {trial['number']}: {reason}")

    def _reason(self, trial: dict, outcome: tuple) -> str | None:
        kind, expected = outcome[0], trial["reject"]
        if kind == "exception":
            return f"unexpected exception {outcome[1]}"
        if kind == "rejected":
            got = f"{outcome[1]} at stage {outcome[2]}"
            if expected is None:
                return f"unexpected rejection {got}"
            if (outcome[1], outcome[2]) != (expected["error"], expected["stage"]):
                return f"rejected as {got}, expected {expected['error']} at {expected['stage']}"
            return None
        if expected is not None:
            return f"expected {expected['error']} at {expected['stage']}, got a report"
        payload, number = outcome[1], trial["number"]
        reference = self.reference.get(number)
        if reference is None:
            self.reference[number] = payload
            self.verdict[number] = self._grade_reason(trial, payload)
        elif payload != reference:
            return "report bytes differ between repetitions"
        return self.verdict[number]

    @staticmethod
    def _grade_reason(trial: dict, payload: bytes) -> str | None:
        if trial["grades"] is None:
            return None
        grades = json.loads(payload)["grades"]
        got = [grades[k] for k in GRADE_KEYS]
        if got != trial["grades"]:
            return f"grades {got}, analytic grades {trial['grades']}"
        return None


def _error_outcome(exc: BaseException) -> tuple:
    if isinstance(exc, AclRiskError):
        return ("rejected", type(exc).__name__, exc.stage)
    return ("exception", f"{type(exc).__name__}: {exc}")


class Op:
    """One unit op over ``trials``; ``run`` is what the benchmark times."""

    def __init__(self, trials: list[dict]):
        self.trials = trials

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def outcomes(self, value) -> list[tuple[dict, tuple]]:
        if isinstance(value, BaseException):
            return [(t, _error_outcome(value)) for t in self.trials]
        return self._outcomes(value)

    def _outcomes(self, value):
        return [(self.trials[0], ("report", value))]


class LibraryTrial(Op):
    """assess_trial, then emit_traces and emit_report(..., "json")."""

    def __init__(self, trial: dict, cfg: RunConfig):
        super().__init__([trial])
        self.cfg = cfg

    def run(self) -> bytes:
        t = self.trials[0]
        report = assessment.assess_trial(t["sagittal"], t["frontal"], self.cfg,
                                         number=t["number"])
        assessment.emit_traces(report, t["traces"])
        return assessment.emit_report(report, "json")


class CliTrial(Op):
    """One in-process ``aclrisk assess ... --report FILE`` call."""

    def __init__(self, trial: dict, report_dir: str):
        super().__init__([trial])
        self.report = Path(report_dir) / f"report_{trial['number']}.json"
        self.argv = ["assess", "--sagittal", trial["sagittal"], "--frontal", trial["frontal"],
                     "--report", str(self.report), "--number", str(trial["number"])]

    def prepare(self) -> None:
        self.report.unlink(missing_ok=True)

    def run(self) -> int:
        return cli.main(self.argv)

    def _outcomes(self, code: int):
        if code != 0:
            return [(self.trials[0], ("exception", f"cli exit code {code}"))]
        return [(self.trials[0], ("report", self.report.read_bytes()))]


class Batch(Op):
    """One assess_batch call, then the canonical bytes of every report."""

    def __init__(self, trials: list[dict], cfg: RunConfig):
        super().__init__(trials)
        self.cfg = cfg
        self.batch = [assessment.Trial(t["number"], t["sagittal"], t["frontal"])
                      for t in trials]

    def run(self):
        result = assessment.assess_batch(self.batch, self.cfg)
        payloads = {r.number: assessment.report_to_json(r) for r in result.reports}
        return result.failures, payloads

    def _outcomes(self, value):
        failures, payloads = value
        failed = {f["number"]: f for f in failures}
        out = []
        for t in self.trials:
            if t["number"] in payloads:
                out.append((t, ("report", payloads[t["number"]])))
            elif t["number"] in failed:
                f = failed[t["number"]]
                out.append((t, ("rejected", f["error"], f["stage"])))
            else:
                out.append((t, ("exception", "trial missing from the batch result")))
        return out


def build_ops(manifest: dict) -> list[Op]:
    cfg = RunConfig(window_mode=manifest["window_mode"])
    trials = manifest["trials"]
    workload = manifest["workload"]
    if workload == "long_csv":
        return [LibraryTrial(t, cfg) for t in trials]
    if workload == "openpose_dirs":
        return [CliTrial(t, manifest["reports"]) for t in trials]
    size = manifest["batch_size"]
    return [Batch(trials[i:i + size], cfg) for i in range(0, len(trials), size)]


def _call(op: Op, tracer: tr.Tracer | None) -> tuple[float, float, object]:
    """Run one op: its time in ms, the speed scale next to it, its value."""
    op.prepare()
    scale = calibrate.scale()
    t0 = perf_counter()
    if tracer is not None:
        tracer.begin_op()
    try:
        value = op.run()
    except Exception as exc:  # judged as the op's outcome
        value = exc
    finally:
        if tracer is not None:
            tracer.end_op()
    return (perf_counter() - t0) * 1e3, scale, value


def run_loop(ops: list[Op], seconds: float, tracer: tr.Tracer | None,
             checker: Checker) -> dict:
    _, _, value = _call(ops[0], None)   # untimed warm-up
    for trial, outcome in ops[0].outcomes(value):
        checker.judge(trial, outcome, False)

    latencies: dict[bool, list[float]] = {False: [], True: []}
    scales: dict[bool, list[float]] = {False: [], True: []}
    trials = 0
    start = perf_counter()
    deadline = start + seconds
    passes = 0
    while perf_counter() < deadline:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                ms, scale, value = _call(op, tracer if traced else None)
                latencies[traced].append(ms)
                scales[traced].append(scale)
                for trial, outcome in op.outcomes(value):
                    checker.judge(trial, outcome, traced)
                trials += len(op.trials)
                if perf_counter() >= deadline:
                    break
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    return {"latencies": latencies, "scales": scales, "trials": trials,
            "elapsed": perf_counter() - start}


def _source_bytes(path: str) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.suffix.lower() == ".json")
    return p.stat().st_size


def _scaled(loop: dict, traced: bool) -> list[float]:
    """Op times scaled to the calibration kernel's reference speed."""
    return [ms * scale for ms, scale in zip(loop["latencies"][traced], loop["scales"][traced])]


def end_to_end(loop: dict) -> tuple[dict, dict]:
    raw = loop["latencies"][False]
    lat = sorted(_scaled(loop, False))
    n = len(lat)
    # The highest order statistic with TAIL_BEYOND ops above it, and never
    # below the median when a run holds too few ops for that.
    k = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    tail, pct = lat[k], 100.0 * (k + 1) / n
    op_seconds = math.fsum(lat) / 1e3
    metrics = {
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail,
        "trials_per_s": loop["trials"] / op_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_ms_p50": f"median of {n} ops; unscaled {statistics.median(raw):.4g} ms, "
                     f"median scale {statistics.median(loop['scales'][False]):.3f}",
        "op_ms_tail": f"p{pct:.1f}: {n - 1 - k} of {n} ops slower",
        "trials_per_s": f"{loop['trials']} trials in {op_seconds:.2f} s of scaled op time; "
                        f"unscaled {loop['trials'] / loop['elapsed']:.4g}/s of wall time",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def per_layer(loop: dict, tracer: tr.Tracer, checker: Checker, manifest: dict) -> tuple[dict, dict]:
    touchdown = {t["sagittal"]: t["touchdown_frame"] for t in manifest["trials"]}
    sizes = {t[v]: _source_bytes(t[v]) for t in manifest["trials"]
             for v in ("sagittal", "frontal")}
    metrics = tr.summarize(tracer.spans, touchdown, sizes)
    traced, untraced = loop["latencies"][True], loop["latencies"][False]
    ops = max(len(traced), 1)
    for stage, count in checker.traced_failures.items():
        metrics[f"failures.{stage}"] = count / ops
    metrics["trace.overhead_ms"] = (statistics.median(_scaled(loop, True))
                                    - statistics.median(_scaled(loop, False)))
    notes = {"trace.op_ms": f"mean of {len(traced)} traced ops",
             "trace.overhead_ms": f"median of {len(traced)} traced minus median of "
                                  f"{len(untraced)} untraced ops, scaled like op_ms_p50"}
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = parser.parse_args()

    src = ROOT / "src"
    if src not in Path(aclrisk.__file__).resolve().parents:
        sys.stderr.write(f"aclrisk was imported from {aclrisk.__file__}, not from {src}\n")
        return 2
    manifest = json.loads(Path(args.manifest).read_text())
    ops = build_ops(manifest)
    checker = Checker()
    tracer = tr.Tracer() if args.trace else None
    loop = run_loop(ops, args.seconds, tracer, checker)
    consistent = True
    if tracer is None:
        metrics, notes = end_to_end(loop)
    else:
        metrics, notes = per_layer(loop, tracer, checker, manifest)
        residual = tr.self_time_residual_ms(metrics)
        consistent = abs(residual) < 1e-6
        notes["trace.uncovered_ms"] = f"self times + uncovered - op time = {residual:.3g} ms"
        if args.spans:
            tracer.write(Path(args.spans))
    Path(args.out).write_text(json.dumps({
        "attempted": checker.attempted,
        "failed": checker.wrong,
        "consistent": consistent,
        "reasons": checker.reasons,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
