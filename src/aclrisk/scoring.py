"""Discrete grading of the five extracted features.

Each feature maps to exactly one grade in {1, 5, 9} ("poor", "good",
"excellent") through piecewise threshold functions:

* sagittal cosines (knee, hip): 9 for p > -1/2, 5 for -sqrt(3)/2 < p <= -1/2,
  1 for p <= -sqrt(3)/2 — i.e. flexion beyond 60 degrees is excellent,
  30..60 good, under 30 poor;
* frontal alignment cosine: orientation reversed — staying close to -1
  (upright, lean <= 30 degrees) is excellent;
* pixel distances: under 30 excellent, 30..50 good, 50 and above poor.

Boundary membership follows the interval forms exactly: the sagittal
9-branch is a strict lower bound (p = -1/2 grades 5), the distance
5-branch includes 30 and excludes 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidGrade, OutOfRange
from .kinematics import FrontalFeatures, SagittalFeatures

GRADE_POOR = 1
GRADE_GOOD = 5
GRADE_EXCELLENT = 9
GRADES = (GRADE_POOR, GRADE_GOOD, GRADE_EXCELLENT)

_LABELS = {GRADE_EXCELLENT: "excellent", GRADE_GOOD: "good", GRADE_POOR: "poor"}

COSINE_HI = -0.5                 # 60-degree flexion boundary
COSINE_LO = -math.sqrt(3) / 2.0  # 30-degree flexion boundary


@dataclass
class ThresholdConfig:
    cosine_hi: float = COSINE_HI
    cosine_lo: float = COSINE_LO
    distance_lo: float = 30.0  # pixels unless normalize_by_shoulder is set
    distance_hi: float = 50.0
    normalize_by_shoulder: bool = False

    def __post_init__(self):
        if not -1.0 <= self.cosine_lo < self.cosine_hi <= 1.0:
            raise ValueError("need -1 <= cosine_lo < cosine_hi <= 1")
        if not 0 < self.distance_lo < self.distance_hi:
            raise ValueError("need 0 < distance_lo < distance_hi")


class GradeVector(NamedTuple):
    """Grades for (knee flexion, hip flexion, lateral alignment, knee-ankle
    width difference, shoulder-stance width difference)."""

    x1: int
    x2: int
    x3: int
    x4: int
    x5: int


def _check_cosine(value: float, name: str) -> float:
    v = float(value)
    if math.isnan(v) or v < -1.0 or v > 1.0:
        raise OutOfRange(f"{name} must lie in [-1, 1], got {value!r}")
    return v


def grade_cosine_sagittal(p: float, cfg: ThresholdConfig | None = None) -> int:
    """Grade a sagittal flexion cosine (knee or hip)."""
    cfg = cfg or ThresholdConfig()
    p = _check_cosine(p, "sagittal cosine")
    if p > cfg.cosine_hi:
        return GRADE_EXCELLENT
    if p > cfg.cosine_lo:
        return GRADE_GOOD
    return GRADE_POOR


def grade_cosine_frontal(s4: float, cfg: ThresholdConfig | None = None) -> int:
    """Grade the frontal trunk/thigh alignment cosine (reversed orientation)."""
    cfg = cfg or ThresholdConfig()
    s4 = _check_cosine(s4, "frontal cosine")
    if s4 <= cfg.cosine_lo:
        return GRADE_EXCELLENT
    if s4 <= cfg.cosine_hi:
        return GRADE_GOOD
    return GRADE_POOR


def grade_distance(dmax: float, cfg: ThresholdConfig | None = None) -> int:
    """Grade a peak width difference (pixels, or unitless when normalized)."""
    cfg = cfg or ThresholdConfig()
    d = float(dmax)
    if math.isnan(d) or d < 0.0:
        raise OutOfRange(f"distance must be nonnegative, got {dmax!r}")
    if d < cfg.distance_lo:
        return GRADE_EXCELLENT
    if d < cfg.distance_hi:
        return GRADE_GOOD
    return GRADE_POOR


def grade_all(
    sagittal: SagittalFeatures,
    frontal: FrontalFeatures,
    cfg: ThresholdConfig | None = None,
) -> GradeVector:
    """Componentwise grading of the five feature values.

    With ``normalize_by_shoulder`` the width differences are divided by the
    mean shoulder width before thresholding (config must then supply
    unitless distance thresholds).
    """
    cfg = cfg or ThresholdConfig()
    d1, d2 = frontal.d1, frontal.d2
    if cfg.normalize_by_shoulder:
        mean_shoulder = float(frontal.s3_trace.mean())
        if mean_shoulder <= 0.0:
            raise OutOfRange("cannot normalize: mean shoulder width is zero")
        d1, d2 = d1 / mean_shoulder, d2 / mean_shoulder
    return GradeVector(
        x1=grade_cosine_sagittal(sagittal.p1, cfg),
        x2=grade_cosine_sagittal(sagittal.p2, cfg),
        x3=grade_cosine_frontal(frontal.s4_peak, cfg),
        x4=grade_distance(d1, cfg),
        x5=grade_distance(d2, cfg),
    )


def grade_label(grade: int) -> str:
    """Map a grade to its level name: 9 excellent, 5 good, 1 poor."""
    try:
        return _LABELS[grade]
    except (KeyError, TypeError):
        raise InvalidGrade(f"grade must be one of {GRADES}, got {grade!r}") from None
