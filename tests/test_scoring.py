from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aclrisk import assessment, motion_synth
from aclrisk import kinematics as kin
from aclrisk import pose_ingest as pi
from aclrisk import scoring
from aclrisk.config import ConfigError, RunConfig, config_from_dict
from aclrisk.errors import InvalidGrade, OutOfRange

SQRT3_2 = math.sqrt(3) / 2


# -- branch boundaries ------------------------------------------------------


@pytest.mark.parametrize("p, expected", [
    (0.0, 9),
    (1.0, 9),
    (-0.499999, 9),
    (-0.5, 5),          # strict lower bound of the excellent branch
    (-SQRT3_2 + 1e-9, 5),
    (-SQRT3_2, 1),
    (-1.0, 1),
])
def test_grade_cosine_sagittal_boundaries(p, expected):
    assert scoring.grade_cosine_sagittal(p) == expected


@pytest.mark.parametrize("s4, expected", [
    (-1.0, 9),
    (-SQRT3_2, 9),      # inclusive upper bound of the excellent branch
    (-SQRT3_2 + 1e-9, 5),
    (-0.75, 5),
    (-0.5, 5),
    (-0.5 + 1e-9, 1),
    (0.0, 1),
    (1.0, 1),
])
def test_grade_cosine_frontal_boundaries(s4, expected):
    assert scoring.grade_cosine_frontal(s4) == expected


@pytest.mark.parametrize("d, expected", [
    (0.0, 9),
    (10.0, 9),
    (29.999, 9),
    (30.0, 5),
    (49.999, 5),
    (50.0, 1),
    (60.0, 1),
])
def test_grade_distance_boundaries(d, expected):
    assert scoring.grade_distance(d) == expected


@pytest.mark.parametrize("bad", [-1.0001, 1.0001, float("nan"), 2.0])
def test_cosine_graders_reject_out_of_range(bad):
    with pytest.raises(OutOfRange):
        scoring.grade_cosine_sagittal(bad)
    with pytest.raises(OutOfRange):
        scoring.grade_cosine_frontal(bad)


def test_grade_distance_rejects_negative():
    with pytest.raises(OutOfRange):
        scoring.grade_distance(-0.1)


# -- totality and monotonicity ----------------------------------------------


def test_cosine_graders_total_and_monotone_on_sweep():
    grid = np.linspace(-1.0, 1.0, 10_001)
    sag = [scoring.grade_cosine_sagittal(p) for p in grid]
    fro = [scoring.grade_cosine_frontal(p) for p in grid]
    assert set(sag) == {1, 5, 9} and set(fro) == {1, 5, 9}
    assert all(b >= a for a, b in zip(sag, sag[1:]))   # nondecreasing in p
    assert all(b <= a for a, b in zip(fro, fro[1:]))   # nonincreasing in s4


def test_distance_grader_total_and_monotone_on_sweep():
    grid = np.linspace(0.0, 100.0, 10_001)
    grades = [scoring.grade_distance(d) for d in grid]
    assert set(grades) == {1, 5, 9}
    assert all(b <= a for a, b in zip(grades, grades[1:]))


@given(st.floats(min_value=0.001, max_value=179.999))
def test_sagittal_grades_match_degree_criteria(theta):
    # boundary angles themselves are excluded: cos() rounding may move
    # exact 30/60-degree inputs across the interval edge
    if abs(theta - 30.0) < 1e-6 or abs(theta - 60.0) < 1e-6:
        return
    p = math.cos(math.radians(180.0 - theta))
    grade = scoring.grade_cosine_sagittal(p)
    if theta < 30.0:
        assert grade == 1
    elif theta < 60.0:
        assert grade == 5
    else:
        assert grade == 9


# -- grade_all and labels -----------------------------------------------------


def features_for(p1, p2, s4, d1, d2, shoulder=110.0):
    n = 3
    sag = kin.SagittalFeatures(
        p1=p1, p2=p2,
        p1_trace=np.full(n, p1), p2_trace=np.full(n, p2),
        frame_indices=np.arange(n))
    fro = kin.FrontalFeatures(
        d1=d1, d2=d2, s4_peak=s4,
        s1_trace=np.full(n, 100.0), s2_trace=np.full(n, 100.0),
        s3_trace=np.full(n, shoulder), s4_trace=np.full(n, s4),
        frame_indices=np.arange(n))
    return sag, fro


def test_grade_all_best_and_worst_cases():
    best = scoring.grade_all(*features_for(0.0, 0.0, -1.0, 0.0, 0.0))
    assert tuple(best) == (9, 9, 9, 9, 9)
    worst = scoring.grade_all(*features_for(-1.0, -1.0, 1.0, 60.0, 60.0))
    assert tuple(worst) == (1, 1, 1, 1, 1)


def test_grade_all_mixed_synthetic_trial():
    # 45 deg knee, 45 deg hip, 10 deg lean, d1=40, d2=20
    script = motion_synth.MotionScript(
        n_frames=60, touchdown_frame=15,
        peak_knee_flexion_deg=45.0, peak_hip_flexion_deg=45.0,
        peak_lateral_lean_deg=10.0,
        stance_ankle_width_px=130.0, knee_offset_px=40.0, shoulder_width_px=150.0)
    sagittal, frontal, _ = motion_synth.generate(script)
    grades = scoring.grade_all(kin.extract_sagittal(sagittal),
                               kin.extract_frontal(frontal))
    assert tuple(grades) == (5, 5, 9, 5, 9)


def test_grade_all_shoulder_normalization(tmp_path, csv_trials):
    sag, fro = features_for(0.0, 0.0, -1.0, d1=55.0, d2=11.0, shoulder=110.0)
    cfg = scoring.ThresholdConfig(distance_lo=0.25, distance_hi=0.75,
                                  normalize_by_shoulder=True)
    grades = scoring.grade_all(sag, fro, cfg)
    # d1/shoulder = 0.5 -> good, d2/shoulder = 0.1 -> excellent
    assert grades.x4 == 5 and grades.x5 == 9
    # shoulders on one point: a zero mean width cannot normalize, and the trial fails at grade
    sag, fro = csv_trials[300]
    frontal = pi.read_series_csv(fro)
    frontal.keypoints[:, pi.R_SHOULDER] = frontal.keypoints[:, pi.L_SHOULDER]
    pi.write_series_csv(frontal, tmp_path / "f.csv")
    with pytest.raises(OutOfRange, match="mean shoulder width is zero") as exc_info:
        assessment.assess_trial(sag, tmp_path / "f.csv", RunConfig(thresholds=cfg))
    assert exc_info.value.stage == "grade"


@pytest.mark.parametrize("grade, label", [(9, "excellent"), (5, "good"), (1, "poor")])
def test_grade_labels(grade, label):
    assert scoring.grade_label(grade) == label


@pytest.mark.parametrize("bad", [0, 2, 10, None, "9"])
def test_grade_label_rejects_other_values(bad):
    with pytest.raises(InvalidGrade):
        scoring.grade_label(bad)


def test_threshold_config_validation():
    for bad in ({"cosine_lo": -0.2, "cosine_hi": -0.5}, {"cosine_lo": -0.5, "cosine_hi": -0.5},
                {"distance_lo": 50.0, "distance_hi": 30.0},
                {"distance_lo": 30.0, "distance_hi": 30.0}, {"distance_lo": 0.0}):
        with pytest.raises(ConfigError, match="^bad thresholds section: need "):
            RunConfig(thresholds=scoring.ThresholdConfig(**bad)).validate()
    # both ends of [-1, 1] are allowed
    RunConfig(thresholds=scoring.ThresholdConfig(cosine_lo=-1.0, cosine_hi=1.0)).validate()
    # a value is checked as a number before the range rule compares it
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict({"thresholds": {"distance_lo": "10", "distance_hi": 20}})
    assert str(exc_info.value) == "thresholds.distance_lo must be a finite number, got '10'"
