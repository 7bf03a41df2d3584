from __future__ import annotations

import math

import numpy as np
import pytest

from aclrisk import kinematics as kin
from aclrisk import motion_synth
from aclrisk import pose_ingest as pi
from aclrisk.errors import DegenerateVector, WindowEmpty

from conftest import (
    make_series,
    transform_series,
    upright_frontal_points,
    upright_sagittal_points,
)


# -- cosine between two vectors (_cos_series) ------------------------------


def cosine_between(u, v) -> float:
    """_cos_series on a one-frame stack."""
    return float(kin._cos_series(np.array([u], dtype=float), np.array([v], dtype=float),
                                 np.array([0]), "u/v")[0])


@pytest.mark.parametrize("u, v, expected", [
    ((1, 0), (0, 1), 0.0),
    ((3, 4), (6, 8), 1.0),
    ((1, 0), (-1, 0), -1.0),
    ((1e-9, 0), (1, 0), 1.0),  # a vector exactly DEGENERACY_EPSILON long is kept
    ((1, 0), (1e-9, 0), 1.0),
])
def test_cosine_between_basic(u, v, expected):
    assert cosine_between(u, v) == pytest.approx(expected, abs=1e-12)


def test_cosine_between_degenerate_vector():
    with pytest.raises(DegenerateVector):
        cosine_between((0, 0), (1, 1))
    with pytest.raises(DegenerateVector):
        cosine_between((1, 1), (1e-12, 0))


def test_cosine_between_stays_clamped():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.uniform(-1e6, 1e6, 2)
        v = rng.uniform(-1e6, 1e6, 2)
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            continue
        assert -1.0 <= cosine_between(u, v) <= 1.0


# -- sagittal extraction ----------------------------------------------------


def test_straight_leg_gives_minus_one():
    series = make_series([upright_sagittal_points()] * 4)
    feats = kin.extract_sagittal(series)
    assert feats.p1 == pytest.approx(-1.0, abs=1e-12)
    assert feats.p2 == pytest.approx(-1.0, abs=1e-12)


def test_sixty_degree_knee_flexion_peak():
    script = motion_synth.MotionScript(n_frames=60, touchdown_frame=10,
                                       peak_knee_flexion_deg=60.0,
                                       peak_hip_flexion_deg=30.0,
                                       noise_sigma_px=0.0)
    sagittal, _, _ = motion_synth.generate(script)
    feats = kin.extract_sagittal(sagittal)
    assert feats.p1 == pytest.approx(math.cos(math.radians(120.0)), abs=1e-9)
    assert feats.p1 == pytest.approx(-0.5, abs=1e-9)


def test_sagittal_trace_matches_scripted_angles_within_1e6():
    script = motion_synth.MotionScript(n_frames=80, touchdown_frame=25,
                                       peak_knee_flexion_deg=95.0,
                                       peak_hip_flexion_deg=40.0)
    sagittal, _, truth = motion_synth.generate(script)
    feats = kin.extract_sagittal(sagittal)
    expected = np.cos(np.radians(180.0 - truth.knee_deg))
    assert np.abs(feats.p1_trace - expected).max() < 1e-6


def test_degenerate_vector_reports_frame_index():
    points = upright_sagittal_points()
    series = make_series([points, points], frame_index=[0, 5])
    series.keypoints[1, pi.R_HIP, :2] = series.keypoints[1, pi.R_KNEE, :2]
    with pytest.raises(DegenerateVector) as exc_info:
        kin.extract_sagittal(series)
    assert "frame 5" in str(exc_info.value)


def test_mirrored_left_side_extraction():
    points = {
        pi.NECK: (300.0, 120.0),
        pi.MID_HIP: (300.0, 300.0),
        pi.L_HIP: (300.0, 300.0),
        pi.L_KNEE: (300.0, 450.0),
        pi.L_ANKLE: (300.0, 600.0),
    }
    series = make_series([points])
    feats = kin.extract_sagittal(series, side="left")
    assert feats.p1 == pytest.approx(-1.0)


def test_an_unknown_side_is_refused():
    series = make_series([upright_sagittal_points()])
    with pytest.raises(KeyError):
        kin.extract_sagittal(series, side="up")


# -- frontal extraction -----------------------------------------------------


def test_frontal_width_differences_on_constant_frame():
    points = upright_frontal_points(ankle_width=110.0, knee_width=100.0,
                                    shoulder_width=110.0)
    series = make_series([points] * 3)
    feats = kin.extract_frontal(series)
    assert feats.d1 == pytest.approx(10.0, abs=1e-9)
    assert feats.d2 == pytest.approx(0.0, abs=1e-9)


def test_upright_standing_alignment_is_minus_one():
    feats = kin.extract_frontal(make_series([upright_frontal_points()] * 5))
    assert np.allclose(feats.s4_trace, -1.0, atol=1e-12)
    assert feats.s4_peak == pytest.approx(-1.0)


def test_traces_stay_in_unit_interval_and_peaks_equal_trace_max():
    script = motion_synth.MotionScript(n_frames=50, touchdown_frame=10,
                                       peak_knee_flexion_deg=150.0,
                                       peak_hip_flexion_deg=150.0,
                                       peak_lateral_lean_deg=80.0)
    sagittal, frontal, _ = motion_synth.generate(script)
    sf = kin.extract_sagittal(sagittal)
    ff = kin.extract_frontal(frontal)
    for trace in (sf.p1_trace, sf.p2_trace, ff.s4_trace):
        assert np.all(trace >= -1.0) and np.all(trace <= 1.0)
    assert sf.p1 == sf.p1_trace.max()
    assert sf.p2 == sf.p2_trace.max()
    assert ff.s4_peak == ff.s4_trace.max()
    assert ff.d1 == np.abs(ff.s1_trace - ff.s2_trace).max()
    assert ff.d2 == np.abs(ff.s1_trace - ff.s3_trace).max()


# -- geometric invariances --------------------------------------------------


def features_kept_under(**transform):
    """Both views' features before and after ``transform_series(**transform)``; the
    cosine features are the same."""
    script = motion_synth.MotionScript(n_frames=40, touchdown_frame=12,
                                       peak_knee_flexion_deg=70.0,
                                       peak_hip_flexion_deg=55.0,
                                       peak_lateral_lean_deg=25.0,
                                       knee_offset_px=20.0,
                                       stance_ankle_width_px=130.0)
    sagittal, frontal, _ = motion_synth.generate(script)
    sf, ff = kin.extract_sagittal(sagittal), kin.extract_frontal(frontal)
    sf_t = kin.extract_sagittal(transform_series(sagittal, **transform))
    ff_t = kin.extract_frontal(transform_series(frontal, **transform))
    assert abs(sf_t.p1 - sf.p1) < 1e-9
    assert abs(sf_t.p2 - sf.p2) < 1e-9
    assert np.abs(ff_t.s4_trace - ff.s4_trace).max() < 1e-9
    return ff, ff_t


@pytest.mark.parametrize("offset", [(1e4, -1e4), (-3333.5, 777.25)])
def test_translation_invariance(offset):
    ff, ff_t = features_kept_under(offset=offset)
    assert abs(ff_t.d1 - ff.d1) < 1e-9
    assert abs(ff_t.d2 - ff.d2) < 1e-9


@pytest.mark.parametrize("angle", [0.3, math.pi / 2, 4.0])
def test_rotation_invariance_of_cosines(angle):
    features_kept_under(angle_rad=angle)


@pytest.mark.parametrize("scale", [0.1, 2.5, 10.0])
def test_uniform_scaling_behaviour(scale):
    ff, ff_s = features_kept_under(scale=scale)
    assert ff_s.d1 == pytest.approx(scale * ff.d1, rel=1e-9)
    assert ff_s.d2 == pytest.approx(scale * ff.d2, rel=1e-9)
    assert np.allclose(ff_s.s1_trace, scale * ff.s1_trace, rtol=1e-9)


# -- analysis window --------------------------------------------------------


def test_full_window_covers_series():
    series = make_series([upright_sagittal_points()] * 100)
    assert kin.analysis_window(series, kin.WINDOW_FULL) == (0, 99)


def test_landing_window_starts_at_scripted_touchdown():
    script = motion_synth.MotionScript(n_frames=100, touchdown_frame=40, fps=30.0)
    sagittal, frontal, _ = motion_synth.generate(script)
    for series in (sagittal, frontal):
        start, end = kin.analysis_window(series, kin.WINDOW_LANDING)
        assert abs(start - 40) <= 2
        assert end == min(99, start + 30)


def test_landing_window_duration_cap():
    script = motion_synth.MotionScript(n_frames=200, touchdown_frame=20, fps=30.0)
    sagittal, _, _ = motion_synth.generate(script)
    start, end = kin.analysis_window(sagittal, kin.WINDOW_LANDING, duration_s=2.0)
    assert end - start == 60


def reference_touchdown(series: pi.KeypointSeries):
    """Frame-by-frame ankle height and touchdown scan: the reference for analysis_window."""
    ys = []
    for t in range(len(series)):
        vals = [series.keypoints[t, k, 1] for k in (pi.R_ANKLE, pi.L_ANKLE)
                if not np.all(series.keypoints[t, k] == 0.0)]
        ys.append(float(np.mean(vals)) if vals else np.nan)
    v = np.diff(np.array(ys))
    best_t, best_speed = None, 0.0
    for t in range(1, len(v)):
        if v[t - 1] > 0.0 and v[t] <= 0.0 and v[t - 1] > best_speed:
            best_t, best_speed = t, float(v[t - 1])
    return np.array(ys), best_t


def test_touchdown_matches_frame_by_frame_reference():
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # coarse steps make ties and zero velocities common
        y = np.cumsum(rng.integers(-2, 3, size=n)).astype(float) * 0.5
        series = make_series([upright_sagittal_points()] * n)
        series.keypoints[:, pi.R_ANKLE, 1] = y
        series.keypoints[:, pi.L_ANKLE] = (310.0, 0.0, 1.0)
        series.keypoints[:, pi.L_ANKLE, 1] = y + rng.integers(0, 2, size=n)
        ankles = series.keypoints[:, [pi.R_ANKLE, pi.L_ANKLE]]
        ankles[rng.random((n, 2)) < 0.2] = 0.0  # undetected
        series.keypoints[:, [pi.R_ANKLE, pi.L_ANKLE]] = ankles
        heights, start = reference_touchdown(series)
        assert np.array_equal(kin._ankle_height(series), heights, equal_nan=True)
        if start is None:
            with pytest.raises(WindowEmpty):
                kin.analysis_window(series, kin.WINDOW_LANDING)
        else:
            found += 1
            assert kin.analysis_window(series, kin.WINDOW_LANDING)[0] == start
    assert found > 100


def test_ascending_trajectory_has_no_touchdown():
    frames = []
    for i in range(30):
        points = upright_sagittal_points()
        points = {k: (x, y - 3.0 * i) for k, (x, y) in points.items()}  # moving up
        frames.append(points)
    series = make_series(frames)
    with pytest.raises(WindowEmpty):
        kin.analysis_window(series, kin.WINDOW_LANDING)


def test_empty_window_slice_raises():
    series = make_series([upright_sagittal_points()])
    with pytest.raises(WindowEmpty):
        kin.extract_sagittal(series, window=(3, 2))
