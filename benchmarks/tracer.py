"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces each function in ``SPANS`` at its module attribute,
and at every other ``aclrisk`` module attribute bound to the same
object, with a wrapper that records a span: name, start, end, parent
span and op id. Spans stay in memory until the run ends.

Only the functions in ``SPANS`` are wrapped. Helpers that a layer calls
inside itself (``read_series_csv``, ``parse_openpose_frame``, the AHP
weight derivation, ...) count in that layer's self time, so a metric
keeps its meaning when a later change reorganises a layer's insides.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

# Span name -> suffix of its self-time metric. Glue layers report
# ``self_ms``; the others ``ms``. Both are self time per op.
SPANS = {
    "pose_ingest.load_series": "ms",
    "pose_ingest.preprocess_report": "ms",
    "kinematics.analysis_window": "ms",
    "kinematics.extract_sagittal": "ms",
    "kinematics.extract_frontal": "ms",
    "scoring.grade_all": "ms",
    "ahp.aggregate": "ms",
    "assessment.resolve_weights": "ms",
    "config.RunConfig.validate": "ms",
    "assessment.report_to_json": "ms",
    "assessment.emit_traces": "ms",
    "assessment.assess_trial": "self_ms",
    "assessment.assess_batch": "self_ms",
    "cli.main": "self_ms",
}

STAGES = ("ingest", "preprocess", "window", "extract", "grade", "weights",
          "aggregate", "emit")

# Per-layer metrics: name -> unit. Times and counts are means per traced op.
PER_LAYER_UNITS = {f"{name}.{suffix}": "ms" for name, suffix in SPANS.items()}
PER_LAYER_UNITS.update({
    "pose_ingest.load_series.frames": "frames/op",
    "pose_ingest.load_series.bytes_in": "B/op",
    "pose_ingest.preprocess_report.values_gated": "count/op",
    "pose_ingest.preprocess_report.values_interpolated": "count/op",
    "pose_ingest.preprocess_report.rejected": "count/op",
    "kinematics.analysis_window.touchdown_miss": "share",
    "assessment.resolve_weights.calls": "count/op",
    "assessment.emit_traces.bytes_out": "B/op",
    "trace.op_ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.overhead_ms": "ms",
})
PER_LAYER_UNITS.update({f"failures.{stage}": "count/op" for stage in STAGES})

OP = "op"
_RAISED = object()
TOUCHDOWN_TOLERANCE = 2   # frames


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# What each wrapper keeps of a call, taken after its end time is read.
_INFO = {
    "pose_ingest.load_series": lambda a, k, r: (str(_arg(a, k, 0, "source")), len(r)),
    "pose_ingest.preprocess_report": lambda a, k, r: (r[1].values_gated,
                                                      r[1].values_interpolated),
    "kinematics.analysis_window": lambda a, k, r: (_arg(a, k, 1, "mode", "full"), r[0]),
    "assessment.assess_trial": lambda a, k, r: str(_arg(a, k, 0, "sagittal_source")),
    "assessment.emit_traces": lambda a, k, r: list(r.values()),
}


class Tracer:
    """Installs span wrappers on demand and keeps the spans they record.

    A span is ``[name, start, end, parent index, op id, info]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "aclrisk" or n.startswith("aclrisk.")]
        for name in SPANS:
            module, *path = name.split(".")
            owner = importlib.import_module(f"aclrisk.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            for obj in {id(o): o for o in [owner, *modules]}.values():
                for attr, value in list(vars(obj).items()):
                    if value is original:
                        self._patches.append((obj, attr, wrapper, original))

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                rec[5] = _RAISED
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for obj, attr, wrapper, _ in self._patches:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, _, original in self._patches:
            setattr(obj, attr, original)

    def begin_op(self) -> None:
        self._op += 1
        self.spans.append([OP, 0.0, 0.0, None, self._op, None])
        self._stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter()

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end in s, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def summarize(spans: list[list], touchdown_by_source: dict[str, int],
              bytes_by_source: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics, as means per op, from the recorded spans.

    Self time is a span's duration minus its children's durations, so the
    self times of all spans plus ``trace.uncovered_ms`` (op time in no
    span) add up to ``trace.op_ms``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    ops = 0
    windows = misses = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        own_ms = (end - start - child[i]) * 1e3
        if name == OP:
            ops += 1
            totals["trace.op_ms"] += (end - start) * 1e3
            totals["trace.uncovered_ms"] += own_ms
            continue
        totals[f"{name}.{SPANS[name]}"] += own_ms
        if name == "pose_ingest.load_series" and isinstance(info, tuple):
            totals[f"{name}.frames"] += info[1]
            totals[f"{name}.bytes_in"] += bytes_by_source.get(info[0], 0)
        elif name == "pose_ingest.preprocess_report":
            if info is _RAISED:
                totals[f"{name}.rejected"] += 1
            elif isinstance(info, tuple):
                totals[f"{name}.values_gated"] += info[0]
                totals[f"{name}.values_interpolated"] += info[1]
        elif name == "kinematics.analysis_window" and isinstance(info, tuple):
            mode, start_pos = info
            trial = parent
            while trial is not None and spans[trial][0] != "assessment.assess_trial":
                trial = spans[trial][3]
            touchdown = (touchdown_by_source.get(spans[trial][5])
                         if trial is not None else None)
            if mode == "landing" and touchdown is not None:
                windows += 1
                misses += abs(start_pos - touchdown) > TOUCHDOWN_TOLERANCE
        elif name == "assessment.resolve_weights":
            totals[f"{name}.calls"] += 1
        elif name == "assessment.emit_traces" and isinstance(info, list):
            totals[f"{name}.bytes_out"] += sum(Path(p).stat().st_size for p in info)
    ops = max(ops, 1)
    metrics = {k: v / ops for k, v in totals.items()}
    metrics["kinematics.analysis_window.touchdown_miss"] = misses / windows if windows else 0.0
    return metrics


def self_time_residual_ms(metrics: dict[str, float]) -> float:
    """``trace.op_ms`` minus the sum of every self time and the uncovered time."""
    parts = [metrics[f"{name}.{suffix}"] for name, suffix in SPANS.items()]
    parts.append(metrics["trace.uncovered_ms"])
    return metrics["trace.op_ms"] - math.fsum(parts)
