"""End-to-end trial assessment: ingest, preprocess, extract, grade,
weight, aggregate, and report.

A full assessment needs both camera views; the five features span both
planes. The two series are not time-synchronized: every feature is a
per-view peak, so each view is windowed and reduced independently.

Reports are deterministic: identical inputs and config produce
byte-identical JSON. Every pipeline error is annotated with exactly one
stage name ("ingest", "preprocess", "window", "extract", "grade",
"weights", "aggregate", "emit").
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .config import RunConfig
from .errors import AclRiskError, ConsistencyFailure, EmptySource, IoFailure
from .scoring import (
    GradeVector,
    grade_all,
    grade_cosine_frontal,
    grade_cosine_sagittal,
    grade_distance,
    grade_label,
)

TRACE_NAMES = ("p1", "p2", "s1", "s2", "s3", "s4")

GRADE_KEYS = ("x1", "x2", "x3", "x4", "x5")


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
class TraceBundle:
    sagittal_frames: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    frontal_frames: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    s4: np.ndarray

    def named(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {
            "p1": (self.sagittal_frames, self.p1),
            "p2": (self.sagittal_frames, self.p2),
            "s1": (self.frontal_frames, self.s1),
            "s2": (self.frontal_frames, self.s2),
            "s3": (self.frontal_frames, self.s3),
            "s4": (self.frontal_frames, self.s4),
        }


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
    trace_data: TraceBundle | None = field(default=None, compare=False, repr=False)

    def grade_vector(self) -> GradeVector:
        return GradeVector(*(int(self.grades[k]) for k in GRADE_KEYS))

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "features": self.features,
            "grades": self.grades,
            "labels": self.labels,
            "weights": self.weights,
            "consistency": self.consistency,
            "total": self.total,
            "config": self.config,
            "preprocessing": self.preprocessing,
            "traces": self.traces,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AssessmentReport":
        return cls(
            number=data["number"],
            features=data["features"],
            grades=data["grades"],
            labels=data["labels"],
            weights=data["weights"],
            consistency=data["consistency"],
            total=data["total"],
            config=data["config"],
            preprocessing=data["preprocessing"],
            traces=data["traces"],
        )


def resolve_weights(cfg: RunConfig):
    """Weight vector per the configured source.

    Returns (weights, source label, consistency dict or None). Raises
    ConsistencyFailure when a derived matrix fails the CR < 0.1 check and
    force is not set.
    """
    if cfg.weight_source == "table5-compat":
        return ahp.TABLE5_COMPAT_WEIGHTS.copy(), cfg.weight_source, None
    if cfg.weight_source == "explicit":
        return np.asarray(cfg.weights, dtype=float), cfg.weight_source, None
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
    return weights, cfg.weight_source, report.as_dict()


def assess_trial(
    sagittal_source: str | Path,
    frontal_source: str | Path,
    config: RunConfig | None = None,
    number: int = 1,
) -> AssessmentReport:
    """Run the full pipeline on one two-view trial."""
    cfg = config or RunConfig()
    cfg.validate()

    with _stage("ingest"):
        sagittal = pi.load_series(sagittal_source, pi.SAGITTAL,
                                  cfg.person_policy, fps=cfg.default_fps)
        frontal = pi.load_series(frontal_source, pi.FRONTAL,
                                 cfg.person_policy, fps=cfg.default_fps)

    with _stage("preprocess"):
        required_sag = pi.required_keypoints(pi.SAGITTAL, cfg.sagittal_side)
        sagittal, sag_stats = pi.preprocess_report(
            sagittal, cfg.confidence_threshold, cfg.max_gap, required_sag)
        frontal, fro_stats = pi.preprocess_report(
            frontal, cfg.confidence_threshold, cfg.max_gap,
            pi.required_keypoints(pi.FRONTAL))

    with _stage("window"):
        window_sag = kin.analysis_window(sagittal, cfg.window_mode, cfg.window_duration_s)
        window_fro = kin.analysis_window(frontal, cfg.window_mode, cfg.window_duration_s)

    with _stage("extract"):
        sag_features = kin.extract_sagittal(sagittal, window_sag, side=cfg.sagittal_side)
        fro_features = kin.extract_frontal(frontal, window_fro)

    with _stage("grade"):
        grades = grade_all(sag_features, fro_features, cfg.thresholds)

    with _stage("weights"):
        weights, source, consistency = resolve_weights(cfg)

    with _stage("aggregate"):
        total = ahp.aggregate(list(grades), weights)

    config_snapshot = cfg.as_dict()
    config_snapshot["inputs"] = {
        "sagittal": str(sagittal_source),
        "frontal": str(frontal_source),
    }
    return AssessmentReport(
        number=number,
        features={
            "p1": sag_features.p1,
            "p2": sag_features.p2,
            "s4_peak": fro_features.s4_peak,
            "d1_px": fro_features.d1,
            "d2_px": fro_features.d2,
        },
        grades={k: int(v) for k, v in zip(GRADE_KEYS, grades)},
        labels={k: grade_label(v) for k, v in zip(GRADE_KEYS, grades)},
        weights={"source": source, "values": [float(w) for w in weights]},
        consistency=consistency,
        total=float(total),
        config=config_snapshot,
        preprocessing={"sagittal": sag_stats.as_dict(), "frontal": fro_stats.as_dict()},
        trace_data=TraceBundle(
            sagittal_frames=sag_features.frame_indices,
            p1=sag_features.p1_trace,
            p2=sag_features.p2_trace,
            frontal_frames=fro_features.frame_indices,
            s1=fro_features.s1_trace,
            s2=fro_features.s2_trace,
            s3=fro_features.s3_trace,
            s4=fro_features.s4_trace,
        ),
    )


def assess_single_view(
    source: str | Path,
    view: str,
    config: RunConfig | None = None,
) -> dict:
    """Partial assessment of one view: its features and grades, no total."""
    cfg = config or RunConfig()
    cfg.validate()
    with _stage("ingest"):
        series = pi.load_series(source, view, cfg.person_policy, fps=cfg.default_fps)
    with _stage("preprocess"):
        series, stats = pi.preprocess_report(
            series, cfg.confidence_threshold, cfg.max_gap,
            pi.required_keypoints(view, cfg.sagittal_side))
    with _stage("window"):
        window = kin.analysis_window(series, cfg.window_mode, cfg.window_duration_s)
    with _stage("extract"):
        if view == pi.SAGITTAL:
            feats = kin.extract_sagittal(series, window, side=cfg.sagittal_side)
            features = {"p1": feats.p1, "p2": feats.p2}
            grades = {
                "x1": grade_cosine_sagittal(feats.p1, cfg.thresholds),
                "x2": grade_cosine_sagittal(feats.p2, cfg.thresholds),
            }
        else:
            feats = kin.extract_frontal(series, window)
            features = {"s4_peak": feats.s4_peak, "d1_px": feats.d1, "d2_px": feats.d2}
            grades = {
                "x3": grade_cosine_frontal(feats.s4_peak, cfg.thresholds),
                "x4": grade_distance(feats.d1, cfg.thresholds),
                "x5": grade_distance(feats.d2, cfg.thresholds),
            }
    return {
        "view": view,
        "features": features,
        "grades": grades,
        "labels": {k: grade_label(v) for k, v in grades.items()},
        "preprocessing": stats.as_dict(),
    }


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


def summary_csv_row(number: int, grades: GradeVector, total: float) -> str:
    return f"{number},{grades.x1},{grades.x2},{grades.x3},{grades.x4},{grades.x5},{total:.4f}"


SUMMARY_HEADER = "number,x1,x2,x3,x4,x5,total"


def summary_csv(rows: list[tuple[int, GradeVector, float]]) -> str:
    lines = [SUMMARY_HEADER]
    lines += [summary_csv_row(n, g, t) for n, g, t in rows]
    return "\n".join(lines) + "\n"


def emit_report(report: AssessmentReport, fmt: str = "json") -> bytes:
    """Serialize a report: full JSON, or a one-row CSV summary."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        row = summary_csv_row(report.number, report.grade_vector(), report.total)
        return (SUMMARY_HEADER + "\n" + row + "\n").encode()
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
        for name, (frames, values) in report.trace_data.named().items():
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


def assess_batch(trials: list[Trial], config: RunConfig | None = None) -> BatchResult:
    """Assess many trials; per-trial failures are collected, never fatal."""
    if not trials:
        raise EmptySource("batch contains no trials")
    reports: list[AssessmentReport] = []
    failures: list[dict] = []
    for trial in trials:
        try:
            reports.append(assess_trial(trial.sagittal, trial.frontal, config,
                                         number=trial.number))
        except AclRiskError as exc:
            failures.append({
                "number": trial.number,
                "stage": exc.stage or "unknown",
                "error": type(exc).__name__,
                "message": str(exc),
            })
    return BatchResult(reports=reports, failures=failures)
