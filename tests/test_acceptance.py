"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance here is pinned; no value is recalibrated at test time.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from aclrisk import ahp, assessment, cli, motion_synth, scoring
from aclrisk import kinematics as kin
from aclrisk import pose_ingest as pi
from aclrisk.config import RunConfig
from aclrisk.errors import GapTooLong

from conftest import CRITERION_MATRIX, series_equal, transform_series
from test_pose_ingest import SAGITTAL_REQUIRED, random_series, sagittal_gap_series

SQRT3_2 = math.sqrt(3) / 2

# Validation fixture: 30 trials with known grade vectors and the totals
# they must reproduce under the compat weight preset. Row 26 carries a
# transcription error in its total (grades identical to rows 16 and 23
# but a different printed value) and is the documented exception.
REFERENCE_SHEET = [
    (1, (9, 9, 9, 9, 1), 8.4398), (2, (9, 9, 9, 1, 5), 8.0202),
    (3, (9, 9, 5, 1, 5), 7.3794), (4, (9, 9, 9, 9, 5), 8.7082),
    (5, (9, 9, 5, 9, 5), 8.0674), (6, (9, 1, 5, 9, 5), 6.0081),
    (7, (9, 9, 5, 1, 9), 7.6478), (8, (5, 9, 5, 9, 9), 6.6290),
    (9, (5, 9, 9, 9, 9), 7.2698), (10, (9, 9, 9, 9, 9), 8.9766),
    (11, (9, 9, 1, 1, 1), 6.4702), (12, (5, 5, 1, 1, 1), 3.7338),
    (13, (9, 9, 9, 9, 5), 8.7082), (14, (5, 5, 5, 1, 5), 4.6430),
    (15, (5, 5, 9, 9, 1), 5.7034), (16, (1, 1, 1, 1, 5), 1.2658),
    (17, (5, 1, 9, 5, 9), 4.8666), (18, (1, 5, 9, 9, 5), 4.2650),
    (19, (5, 5, 9, 5, 5), 5.6278), (20, (9, 1, 9, 5, 5), 6.3050),
    (21, (1, 1, 5, 1, 5), 1.9066), (22, (1, 1, 5, 1, 5), 1.9066),
    (23, (1, 1, 1, 1, 5), 1.2658), (24, (1, 1, 5, 1, 1), 1.6382),
    (25, (1, 1, 5, 9, 1), 2.3262), (26, (1, 1, 1, 1, 5), 1.9066),
    (27, (5, 9, 1, 1, 1), 4.7634), (28, (1, 5, 1, 1, 9), 2.5638),
    (29, (1, 1, 1, 5, 9), 1.8782), (30, (1, 1, 9, 5, 5), 2.8914),
]


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number}: {title}: PASS")


def test_criterion_1_ahp_weights_and_consistency():
    with criterion(1, "five-index AHP weights and consistency"):
        start = time.perf_counter()
        weights = ahp.weights_sum_method(ahp.DEFAULT_INDEX_MATRIX)
        report = ahp.consistency(ahp.DEFAULT_INDEX_MATRIX, weights)
        elapsed = time.perf_counter() - start
        expected = (0.4267, 0.2574, 0.1602, 0.0886, 0.0671)
        for got, want in zip(weights, expected):
            assert abs(got - want) <= 5e-4
        assert abs(report.lambda_max - 5.126) <= 5e-3
        assert abs(report.ci - 0.031) <= 1e-3
        assert abs(report.cr - 0.028) <= 1e-3
        assert report.passed
        assert elapsed < 0.010


def test_criterion_2_ahp_two_by_two():
    with criterion(2, "2x2 AHP matrix"):
        weights = ahp.weights_sum_method(CRITERION_MATRIX)
        report = ahp.consistency(CRITERION_MATRIX, weights)
        assert abs(report.lambda_max - 2.0) <= 1e-9
        assert report.ci == 0.0
        assert report.cr == 0.0
        assert report.passed
        # multiset check; the computed ordering puts the dominant item first
        assert sorted(weights) == pytest.approx([0.25, 0.75], abs=1e-9)


def test_criterion_3_reference_sheet_reproduction():
    with criterion(3, "30-row reference score sheet (29/30, row 26 excepted)"):
        start = time.perf_counter()
        mismatches = []
        for number, grades, expected_total in REFERENCE_SHEET:
            total = ahp.aggregate(grades, ahp.TABLE5_COMPAT_WEIGHTS)
            if abs(total - expected_total) > 1e-3:
                mismatches.append(number)
        elapsed = time.perf_counter() - start
        assert mismatches == [26]
        assert elapsed < 0.010


def test_criterion_4_grading_boundaries_totality_monotonicity():
    with criterion(4, "grading boundary probes and sweeps"):
        assert scoring.grade_cosine_sagittal(-0.5) == 5
        assert scoring.grade_cosine_sagittal(-SQRT3_2) == 1
        assert scoring.grade_cosine_frontal(-SQRT3_2) == 9
        assert scoring.grade_cosine_frontal(-0.5) == 5
        assert scoring.grade_distance(30.0) == 5
        assert scoring.grade_distance(50.0) == 1

        cos_grid = np.linspace(-1.0, 1.0, 10_001)
        sag = [scoring.grade_cosine_sagittal(p) for p in cos_grid]
        fro = [scoring.grade_cosine_frontal(p) for p in cos_grid]
        dist_grid = np.linspace(0.0, 120.0, 10_001)
        dist = [scoring.grade_distance(d) for d in dist_grid]
        for grades in (sag, fro, dist):
            assert all(g in (1, 5, 9) for g in grades)  # totality
        assert all(b >= a for a, b in zip(sag, sag[1:]))
        assert all(b <= a for a, b in zip(fro, fro[1:]))
        assert all(b <= a for a, b in zip(dist, dist[1:]))


def _hand_grade_sagittal(p: float) -> int:
    return 9 if p > -0.5 else (5 if p > -SQRT3_2 else 1)


def _hand_grade_frontal(s4: float) -> int:
    return 9 if s4 <= -SQRT3_2 else (5 if s4 <= -0.5 else 1)


def _hand_grade_distance(d: float) -> int:
    return 9 if d < 30.0 else (5 if d < 50.0 else 1)


def test_criterion_5_kinematics_oracle_50_scripts():
    with criterion(5, "50 noise-free scripts match analytic truth and grades"):
        rng = np.random.default_rng(20240831)
        start = time.perf_counter()
        for _ in range(50):
            shoulder = 200.0
            script = motion_synth.MotionScript(
                n_frames=60,
                touchdown_frame=int(rng.integers(5, 25)),
                peak_knee_flexion_deg=float(rng.uniform(5.0, 160.0)),
                peak_hip_flexion_deg=float(rng.uniform(5.0, 160.0)),
                peak_lateral_lean_deg=float(rng.uniform(0.0, 80.0)),
                stance_ankle_width_px=shoulder - float(rng.uniform(0.0, 80.0)),
                knee_offset_px=float(rng.uniform(0.0, 80.0)),
                shoulder_width_px=shoulder,
            )
            sagittal, frontal, truth = motion_synth.generate(script)
            sf = kin.extract_sagittal(sagittal)
            ff = kin.extract_frontal(frontal)
            assert abs(sf.p1 - truth.p1) < 1e-6
            assert abs(sf.p2 - truth.p2) < 1e-6
            assert abs(ff.s4_peak - truth.s4_peak) < 1e-6
            assert abs(ff.d1 - truth.d1) < 1e-6
            assert abs(ff.d2 - truth.d2) < 1e-6
            grades = scoring.grade_all(sf, ff)
            expected = (
                _hand_grade_sagittal(truth.p1),
                _hand_grade_sagittal(truth.p2),
                _hand_grade_frontal(truth.s4_peak),
                _hand_grade_distance(truth.d1),
                _hand_grade_distance(truth.d2),
            )
            assert tuple(grades) == expected
        assert time.perf_counter() - start < 2.0


def test_criterion_6_geometric_invariances():
    with criterion(6, "translation/rotation/scale invariances"):
        script = motion_synth.MotionScript(
            n_frames=40, touchdown_frame=10,
            peak_knee_flexion_deg=72.0, peak_hip_flexion_deg=48.0,
            peak_lateral_lean_deg=28.0,
            stance_ankle_width_px=150.0, knee_offset_px=33.0,
            shoulder_width_px=120.0)
        sagittal, frontal, _ = motion_synth.generate(script)
        sf = kin.extract_sagittal(sagittal)
        ff = kin.extract_frontal(frontal)

        for offset in ((1e4, 1e4), (-1e4, 1e4), (1e4, -1e4), (-1e4, -1e4)):
            sf_t = kin.extract_sagittal(transform_series(sagittal, offset=offset))
            ff_t = kin.extract_frontal(transform_series(frontal, offset=offset))
            assert abs(sf_t.p1 - sf.p1) < 1e-9
            assert abs(sf_t.p2 - sf.p2) < 1e-9
            assert abs(ff_t.s4_peak - ff.s4_peak) < 1e-9

        for angle in np.linspace(0.0, 2 * math.pi, 9):
            sf_r = kin.extract_sagittal(transform_series(sagittal, angle_rad=angle))
            ff_r = kin.extract_frontal(transform_series(frontal, angle_rad=angle))
            assert abs(sf_r.p1 - sf.p1) < 1e-9
            assert abs(sf_r.p2 - sf.p2) < 1e-9
            assert abs(ff_r.s4_peak - ff.s4_peak) < 1e-9

        for scale in (0.1, 0.5, 2.0, 10.0):
            sf_s = kin.extract_sagittal(transform_series(sagittal, scale=scale))
            ff_s = kin.extract_frontal(transform_series(frontal, scale=scale))
            assert abs(sf_s.p1 - sf.p1) < 1e-9
            assert abs(ff_s.s4_peak - ff.s4_peak) < 1e-9
            assert abs(ff_s.d1 - scale * ff.d1) <= 1e-9 * scale * max(ff.d1, 1.0)
            assert abs(ff_s.d2 - scale * ff.d2) <= 1e-9 * scale * max(ff.d2, 1.0)


def test_criterion_7_qualitative_trace_shape():
    with criterion(7, "65-degree knee / 70-degree hip trial trace shape"):
        lean = math.degrees(math.acos(0.75))  # alignment peak lands at -0.75
        script = motion_synth.MotionScript(
            n_frames=90, touchdown_frame=30,
            peak_knee_flexion_deg=65.0, peak_hip_flexion_deg=70.0,
            peak_lateral_lean_deg=lean)
        sagittal, frontal, _ = motion_synth.generate(script)
        sf = kin.extract_sagittal(sagittal)
        ff = kin.extract_frontal(frontal)
        assert -0.5 < sf.p1 < 0.0
        assert -0.5 < sf.p2 < 0.0
        assert abs(ff.s4_peak - (-0.75)) < 1e-6
        assert scoring.grade_cosine_frontal(ff.s4_peak) == 5


def test_criterion_8_preprocessing_repair_and_idempotence():
    with criterion(8, "gap repair, gap limit, idempotence on 100 random series"):
        out = pi.preprocess_report(sagittal_gap_series([3]), SAGITTAL_REQUIRED)[0]
        knee = out.keypoints[3, pi.R_KNEE]
        assert knee[0] == 103.0 and knee[1] == 206.0  # exact linear midpoint

        with pytest.raises(GapTooLong):
            pi.preprocess_report(sagittal_gap_series([1, 2, 3], n=8), SAGITTAL_REQUIRED,
                                 max_gap=2)[0]

        rng = np.random.default_rng(777)
        done = 0
        while done < 100:
            series = random_series(rng)
            try:
                once = pi.preprocess_report(series, SAGITTAL_REQUIRED)[0]
            except GapTooLong:
                continue
            assert series_equal(pi.preprocess_report(once, SAGITTAL_REQUIRED)[0], once)
            done += 1


def test_criterion_9_end_to_end_determinism_and_runtime(tmp_path):
    with criterion(9, "byte-identical reports; 300-frame trial under 1 s"):
        script = motion_synth.MotionScript(
            n_frames=300, touchdown_frame=60,
            peak_knee_flexion_deg=66.0, peak_hip_flexion_deg=58.0,
            peak_lateral_lean_deg=18.0)
        sagittal, frontal, _ = motion_synth.generate(script)
        sag_dir = tmp_path / "sagittal"
        fro_csv = tmp_path / "frontal.csv"
        pi.write_series_openpose(sagittal, sag_dir)
        pi.write_series_csv(frontal, fro_csv)

        start = time.perf_counter()
        report = assessment.assess_trial(sag_dir, fro_csv, RunConfig())
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["assess", "--sagittal", str(sag_dir), "--frontal", str(fro_csv)]
        assert cli.main(args + ["--report", str(a)]) == 0
        assert cli.main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["total"] == pytest.approx(report.total)
