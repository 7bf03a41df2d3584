"""End-to-end trial assessment: ingest, preprocess, extract, grade,
weight, aggregate, and report.

A full assessment needs both camera views; the five features span both
planes. The two series are not time-synchronized: every feature is a
per-view peak, so each view is windowed and reduced independently.

Reports are deterministic: identical inputs and config produce
byte-identical JSON. Every pipeline error is annotated with exactly one
stage name ("config", "ingest", "preprocess", "window", "extract",
"grade", "weights", "aggregate", "emit").
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .config import RunConfig
from .errors import AclRiskError, ConsistencyFailure, EmptySource, IoFailure
from .scoring import GradeVector, grade_all, grade_label

@contextmanager
def _stage(name: str):
    """Annotate any pipeline error escaping this block with one stage name."""
    try:
        yield
    except AclRiskError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    except OSError as exc:
        raise IoFailure(str(exc), stage=name) from exc


@dataclass
class AssessmentReport:
    number: int
    features: dict
    grades: dict
    labels: dict
    weights: dict
    consistency: dict | None
    total: float
    config: dict
    preprocessing: dict
    traces: dict = field(default_factory=dict)
    # trace name -> (frame indices, values); not part of the serialized report
    trace_data: dict[str, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False, repr=False)

    def grade_vector(self) -> GradeVector:
        return GradeVector(*(int(self.grades[k]) for k in GradeVector._fields))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace_data"}


def resolve_weights(cfg: RunConfig):
    """Weight vector per the configured source.

    Returns (weights, consistency dict or None). Raises
    ConsistencyFailure when a derived matrix fails the CR < 0.1 check and
    force is not set.
    """
    if cfg.weight_source == "table5-compat":
        return ahp.TABLE5_COMPAT_WEIGHTS.copy(), None
    if cfg.weight_source == "explicit":
        return np.asarray(cfg.weights, dtype=float), None
    if cfg.weight_source == "geometric":
        weights = ahp.weights_geometric(cfg.judgment_matrix)
    else:
        weights = ahp.weights_sum_method(cfg.judgment_matrix)
    report = ahp.consistency(cfg.judgment_matrix, weights)
    if not report.passed and not cfg.force:
        raise ConsistencyFailure(
            f"judgment matrix CR = {report.cr:.4f} >= {ahp.CONSISTENCY_THRESHOLD}; "
            "re-elicit the matrix or pass --force")
    if cfg.hierarchical:
        cw = ahp.weights_sum_method(cfg.criterion_matrix)
        weights = ahp.hierarchical_weights(cw, cfg.criterion_groups, weights)
    return weights, asdict(report)


def _assess_view(source: str | Path, view: str, cfg: RunConfig):
    """Ingest, preprocess, window and extract one view.

    Returns the view's features (SagittalFeatures or FrontalFeatures)
    and its PreprocessStats.
    """
    with _stage("ingest"):
        series = pi.load_series(source, cfg.person_policy)
    with _stage("preprocess"):
        series, stats = pi.preprocess_report(
            series, pi.required_keypoints(view, cfg.sagittal_side),
            cfg.confidence_threshold, cfg.max_gap)
    with _stage("window"):
        window = kin.analysis_window(series, cfg.window_mode, cfg.window_duration_s,
                                     cfg.default_fps)
    with _stage("extract"):
        if view == pi.SAGITTAL:
            return kin.extract_sagittal(series, window, side=cfg.sagittal_side), stats
        return kin.extract_frontal(series, window), stats


def assess_trial(
    sagittal_source: str | Path,
    frontal_source: str | Path,
    config: RunConfig | None = None,
    number: int = 1,
    *,
    weighting: tuple[np.ndarray, dict | None] | None = None,
) -> AssessmentReport:
    """Run the full pipeline on one two-view trial.

    The sagittal view runs in the calling process and, where fork is safe
    (see ``_map``), the frontal view at the same time in a forked child;
    otherwise the frontal view runs after it. When both views are bad the
    error reported is the sagittal view's. ``weighting`` is the
    ``resolve_weights(config)`` result, when the caller already has it.
    """
    cfg = config or RunConfig()
    with _stage("config"):
        cfg.validate()
    (sag, sag_stats), (fro, fro_stats) = _map(
        _assess_view, [(sagittal_source, pi.SAGITTAL, cfg), (frontal_source, pi.FRONTAL, cfg)])

    with _stage("grade"):
        grades = grade_all(sag, fro, cfg.thresholds)

    with _stage("weights"):
        weights, consistency = weighting if weighting is not None else resolve_weights(cfg)

    with _stage("aggregate"):
        total = ahp.aggregate(list(grades), weights)

    config_snapshot = cfg.as_dict()
    config_snapshot["inputs"] = {
        "sagittal": str(sagittal_source),
        "frontal": str(frontal_source),
    }
    return AssessmentReport(
        number=number,
        features={"p1": sag.p1, "p2": sag.p2,
                  "s4_peak": fro.s4_peak, "d1_px": fro.d1, "d2_px": fro.d2},
        grades={k: int(v) for k, v in zip(GradeVector._fields, grades)},
        labels={k: grade_label(v) for k, v in zip(GradeVector._fields, grades)},
        weights={"source": cfg.weight_source, "values": [float(w) for w in weights]},
        consistency=dict(consistency) if consistency else None,
        total=float(total),
        config=config_snapshot,
        preprocessing={"sagittal": asdict(sag_stats), "frontal": asdict(fro_stats)},
        # p1, p2, s1, ..., s4: every ``*_trace`` field of the two feature objects
        trace_data={f.name.removesuffix("_trace"): (feats.frame_indices, getattr(feats, f.name))
                    for feats in (sag, fro) for f in fields(feats)
                    if f.name.endswith("_trace")},
    )


# -- serialization ---------------------------------------------------------


def report_to_json(report: AssessmentReport) -> bytes:
    """Canonical JSON bytes (sorted keys, two-space indent, trailing newline).

    A report holding NaN or infinity is refused: JSON has no such numbers.
    """
    try:
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise IoFailure(f"report is not valid JSON: {exc}", stage="emit") from exc
    return (text + "\n").encode()


SUMMARY_HEADER = "number,x1,x2,x3,x4,x5,total"


def summary_csv(rows: list[tuple[int, GradeVector, float]]) -> str:
    lines = [SUMMARY_HEADER]
    lines += [f"{n},{g.x1},{g.x2},{g.x3},{g.x4},{g.x5},{t:.4f}" for n, g, t in rows]
    return "\n".join(lines) + "\n"


def emit_report(report: AssessmentReport, fmt: str = "json") -> bytes:
    """Serialize a report: full JSON, or a one-row CSV summary."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return summary_csv([(report.number, report.grade_vector(), report.total)]).encode()
    raise ValueError(f"unknown report format: {fmt!r}")


def emit_traces(report: AssessmentReport, directory: str | Path) -> dict[str, str]:
    """Write the six per-frame traces as `frame,value` CSV files.

    Updates ``report.traces`` with the written file references and
    returns them.
    """
    if report.trace_data is None:
        raise IoFailure("report carries no trace data", stage="emit")
    directory = Path(directory)
    with _stage("emit"):
        directory.mkdir(parents=True, exist_ok=True)
        refs = {}
        for name, (frames, values) in report.trace_data.items():
            path = directory / f"{name}.csv"
            lines = ["frame,value"]
            lines += [f"{f},{v!r}" for f, v in zip(frames.tolist(), values.tolist())]
            path.write_text("\n".join(lines) + "\n")
            refs[name] = str(path)
    report.traces = refs
    return refs


# -- batch ------------------------------------------------------------------


class Trial(NamedTuple):
    number: int
    sagittal: str
    frontal: str


@dataclass
class BatchResult:
    reports: list[AssessmentReport]
    failures: list[dict]

    def summary(self) -> str:
        rows = [(r.number, r.grade_vector(), r.total) for r in self.reports]
        return summary_csv(rows)


def _assess_one(trial: Trial, cfg: RunConfig, weighting) -> AssessmentReport | dict:
    """One batch trial: its report, or its failure record if a pipeline error stopped it."""
    try:
        return assess_trial(trial.sagittal, trial.frontal, cfg, number=trial.number,
                            weighting=weighting)
    except AclRiskError as exc:
        return {
            "number": trial.number,
            "stage": exc.stage or "unknown",
            "error": type(exc).__name__,
            "message": exc.message,
        }


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set while a map's children run; each child inherits it
_mapping = False


def _worker_count(n_items: int) -> int:
    """How many processes share ``n_items``: the caller and its forked children.

    Fork is unsafe on macOS and in a process running other threads (a
    child gets a copy of every lock, but only the calling thread), a
    daemonic multiprocessing worker already shares the CPUs with its pool,
    and a map's caller and children already share them with each other,
    so these run every item in-process.
    """
    workers = min(n_items, _usable_cpus())
    if (_mapping or workers < 2 or sys.platform == "darwin" or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    # a process that never imported multiprocessing is none of its workers
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return 1
    return workers


def _share_result(fn, share: list[tuple]) -> bytes:
    """A forked share's pickled ``("ok", outcomes)``, or ``("error", exc)`` for the
    error that stopped it."""
    try:
        return pickle.dumps(("ok", [fn(*args) for args in share]))
    except Exception as exc:
        error = exc
    try:
        data = pickle.dumps(("error", error))
        pickle.loads(data)  # an exception can pickle and still fail to rebuild
        return data
    except Exception:
        return pickle.dumps(("error", RuntimeError(
            f"a forked share raised {type(error).__name__}: {error} "
            "(the error cannot be pickled)")))


def _map(fn, calls: list[tuple]) -> list:
    """``[fn(*args) for args in calls]``, spread over the caller and forked children.

    With ``workers`` processes, call i runs in share ``i % workers``:
    share 0 in the calling process, every other share in a child forked
    for it, which writes its pickled outcomes down a pipe and leaves by
    ``os._exit``. Outcomes come back in call order. If the caller's share
    raises, every child is killed and reaped; otherwise the first child's
    error is raised with its type, and a child that ends without a result
    is a ``RuntimeError`` naming its wait status. While the children run,
    a map called in the caller or in a child runs in-process.
    """
    global _mapping
    workers = _worker_count(len(calls))
    if workers == 1:
        return [fn(*args) for args in calls]
    outcomes = [None] * len(calls)
    children = {}  # pid -> read end of its pipe, for each child not yet reaped
    _mapping = True
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # never return into the caller's stack, flush its stdio buffers or run atexit
                code = 1
                try:
                    os.close(read_fd)
                    data = _share_result(fn, calls[k::workers])
                    with open(write_fd, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        outcomes[0::workers] = [fn(*args) for args in calls[0::workers]]
        for k, (pid, pipe) in enumerate(list(children.items()), 1):
            # read to the end before reaping: a long result outgrows the pipe buffer
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status != 0 or not data:
                raise RuntimeError(f"forked worker {pid} ended without a result "
                                   f"(wait status {status})")
            kind, value = pickle.loads(data)
            if kind == "error":
                raise value
            outcomes[k::workers] = value
    finally:
        _mapping = False
        for pid, pipe in children.items():
            from signal import SIGKILL  # numpy does not import signal: only this path pays
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def assess_batch(trials: list[Trial], config: RunConfig | None = None) -> BatchResult:
    """Assess trials; a bad config or weighting fails the batch, a bad trial only itself.

    The trials are shared among the calling process and forked children
    as ``_map`` describes. A batch that forks runs each trial's two views
    one after the other in the process that has the trial. Reports and
    failures come back in trial order.
    """
    cfg = config or RunConfig()
    with _stage("config"):
        cfg.validate()
    with _stage("weights"):
        weighting = resolve_weights(cfg)
    if not trials:
        raise EmptySource("batch contains no trials")
    outcomes = _map(_assess_one, [(t, cfg, weighting) for t in trials])
    return BatchResult(
        reports=[o for o in outcomes if isinstance(o, AssessmentReport)],
        failures=[o for o in outcomes if isinstance(o, dict)])
