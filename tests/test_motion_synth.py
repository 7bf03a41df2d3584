from __future__ import annotations

import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from aclrisk import kinematics as kin
from aclrisk import motion_synth
from aclrisk import pose_ingest as pi
from aclrisk import scoring
from aclrisk.errors import InvalidScript

from conftest import series_equal


def test_noise_free_roundtrip_matches_ground_truth():
    script = motion_synth.MotionScript(
        n_frames=90, touchdown_frame=35,
        peak_knee_flexion_deg=60.0, peak_hip_flexion_deg=75.0,
        peak_lateral_lean_deg=33.0,
        stance_ankle_width_px=140.0, knee_offset_px=25.0, shoulder_width_px=120.0)
    sagittal, frontal, truth = motion_synth.generate(script)
    sf = kin.extract_sagittal(sagittal)
    ff = kin.extract_frontal(frontal)
    assert sf.p1 == pytest.approx(truth.p1, abs=1e-6)
    assert sf.p2 == pytest.approx(truth.p2, abs=1e-6)
    assert ff.s4_peak == pytest.approx(truth.s4_peak, abs=1e-6)
    assert ff.d1 == pytest.approx(truth.d1, abs=1e-6)
    assert ff.d2 == pytest.approx(truth.d2, abs=1e-6)
    assert np.abs(sf.p1_trace - truth.p1_trace).max() < 1e-6
    assert np.abs(sf.p2_trace - truth.p2_trace).max() < 1e-6
    assert np.abs(ff.s4_trace - truth.s4_trace).max() < 1e-6


def test_sixty_degree_knee_gives_exact_ground_truth():
    script = motion_synth.MotionScript(n_frames=50, touchdown_frame=10,
                                       peak_knee_flexion_deg=60.0)
    sagittal, _, truth = motion_synth.generate(script)
    assert truth.p1 == pytest.approx(-0.5, abs=1e-12)
    assert kin.extract_sagittal(sagittal).p1 == pytest.approx(-0.5, abs=1e-6)


def test_static_upright_pose():
    script = motion_synth.MotionScript(
        n_frames=40, touchdown_frame=0, drop_height_px=0.0,
        peak_knee_flexion_deg=0.0, peak_hip_flexion_deg=0.0,
        peak_lateral_lean_deg=0.0,
        stance_ankle_width_px=110.0, knee_offset_px=0.0, shoulder_width_px=110.0)
    sagittal, frontal, truth = motion_synth.generate(script)
    assert truth.p1 == truth.p2 == truth.s4_peak == -1.0
    assert truth.d1 == truth.d2 == 0.0
    sf = kin.extract_sagittal(sagittal)
    ff = kin.extract_frontal(frontal)
    assert sf.p1 == pytest.approx(-1.0, abs=1e-9)
    assert ff.s4_peak == pytest.approx(-1.0, abs=1e-9)
    assert ff.d1 == pytest.approx(0.0, abs=1e-9)


def test_valgus_offset_grades_poor():
    # ankles 110 px apart, knees 50 px apart -> d1 = 60 -> grade 1
    script = motion_synth.MotionScript(
        n_frames=40, touchdown_frame=10,
        stance_ankle_width_px=110.0, knee_offset_px=60.0, shoulder_width_px=110.0)
    _, frontal, truth = motion_synth.generate(script)
    ff = kin.extract_frontal(frontal)
    assert truth.d1 == 60.0
    assert ff.d1 == pytest.approx(60.0, abs=1e-9)
    assert scoring.grade_distance(ff.d1) == 1


def test_confidences_are_one_for_generated_keypoints():
    sagittal, frontal, _ = motion_synth.generate(motion_synth.MotionScript())
    for series in (sagittal, frontal):
        present = ~pi.undetected(series.keypoints)
        assert np.all(series.keypoints[present, 2] == 1.0)


def test_generate_is_deterministic():
    script = motion_synth.MotionScript(noise_sigma_px=1.5, seed=99)
    a_sag, a_fro, _ = motion_synth.generate(script)
    b_sag, b_fro, _ = motion_synth.generate(script)
    assert series_equal(a_sag, b_sag)
    assert series_equal(a_fro, b_fro)


# -- perturbation -------------------------------------------------------------


def test_perturb_sigma_zero_is_identity():
    sagittal, _, _ = motion_synth.generate(motion_synth.MotionScript())
    assert series_equal(motion_synth.perturb(sagittal, 0.0, seed=1), sagittal)


def test_perturb_same_seed_twice():
    sagittal, _, _ = motion_synth.generate(motion_synth.MotionScript())
    a = motion_synth.perturb(sagittal, 2.0, seed=5)
    b = motion_synth.perturb(sagittal, 2.0, seed=5)
    assert series_equal(a, b)
    assert not series_equal(a, sagittal)


def test_perturb_leaves_missing_keypoints_missing():
    sagittal, _, _ = motion_synth.generate(motion_synth.MotionScript())
    noisy = motion_synth.perturb(sagittal, 3.0, seed=2)
    hidden = pi.undetected(sagittal.keypoints)
    assert np.all(noisy.keypoints[hidden] == 0.0)
    assert not pi.undetected(noisy.keypoints[~hidden]).any()


def test_noisy_sixty_degree_knee_stays_near_half():
    # tolerance frozen from one noise-free-vs-noisy comparison at sigma = 2 px
    # (measured deviation 0.025 for this seed and skeleton size)
    script = motion_synth.MotionScript(n_frames=80, touchdown_frame=20,
                                       peak_knee_flexion_deg=60.0,
                                       thigh_length_px=300.0, shank_length_px=300.0,
                                       trunk_length_px=360.0,
                                       noise_sigma_px=2.0, seed=42)
    sagittal, _, _ = motion_synth.generate(script)
    p1 = kin.extract_sagittal(sagittal).p1
    assert abs(p1 - (-0.5)) < 0.05


# -- validation ----------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"touchdown_frame": 50, "n_frames": 50},
    {"touchdown_frame": -1},
    {"peak_knee_flexion_deg": 171.0},
    {"peak_lateral_lean_deg": -5.0},
    {"thigh_length_px": 0.0},
    {"stance_ankle_width_px": -10.0},
    {"knee_offset_px": 200.0},
    {"n_frames": 1},
    {"fps": 0.0},
    {"noise_sigma_px": -1.0},
    # bounds that keep a generated series readable by pose_ingest
    {"n_frames": motion_synth.MAX_FRAMES + 1},
    {"n_frames": 10**400},
    {"thigh_length_px": 1e308, "shank_length_px": 1e308},
    {"drop_height_px": 1e300},
    {"noise_sigma_px": motion_synth.MAX_PX * 1.01},
    {"knee_offset_px": -motion_synth.MAX_PX * 1.01},
])
def test_invalid_scripts_rejected(kwargs):
    with pytest.raises(InvalidScript):
        motion_synth.MotionScript(**kwargs).validate()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(InvalidScript):
        motion_synth.MotionScript.from_dict({"n_frames": 10, "bogus": 1})


BAD_VALUES = [
    {"n_frames": "x"},
    {"n_frames": 10.5},
    {"seed": True},
    {"fps": None},
    {"fps": float("nan")},
    {"thigh_length_px": float("inf")},
    {"noise_sigma_px": "a"},
    {"ramp_frames": 2.5},
    {"seed": -1, "noise_sigma_px": 1.0},
    {"fps": 10**400},
]


@pytest.mark.parametrize("data", BAD_VALUES)
def test_from_dict_rejects_values_of_the_wrong_type(data):
    with pytest.raises(InvalidScript):
        motion_synth.MotionScript.from_dict(data)


@pytest.mark.parametrize("data", BAD_VALUES)
def test_a_bad_value_is_refused_alike_from_a_file_and_from_code(data):
    with pytest.raises(InvalidScript) as from_file:
        motion_synth.MotionScript.from_dict(data)
    with pytest.raises(InvalidScript) as from_code:
        motion_synth.MotionScript(**data).validate()
    assert str(from_file.value) == str(from_code.value)


@pytest.mark.parametrize("fields", [
    {"fps": "30"},
    {"fps": float("nan")},
    {"noise_sigma_px": float("nan")},
    {"drop_height_px": float("inf")},
    {"seed": True},
    {"ramp_frames": 2.5},
])
def test_a_script_built_in_code_has_the_types_of_a_script_file(fields):
    [name] = fields
    kind = "a whole number" if name in ("seed", "ramp_frames") else "a finite "
    with pytest.raises(InvalidScript, match=f"^{name} must be {kind}"):
        motion_synth.generate(motion_synth.MotionScript(**fields))


def test_from_dict_takes_integers_for_floats_and_null_ramp():
    script = motion_synth.MotionScript.from_dict({"fps": 25, "ramp_frames": None})
    assert script == motion_synth.MotionScript(fps=25.0)
    assert motion_synth.MotionScript.from_dict({"n_frames": 100.0}).n_frames == 100


def test_from_dict_roundtrip():
    script = motion_synth.MotionScript(peak_knee_flexion_deg=42.0, seed=7)
    assert motion_synth.MotionScript.from_dict(asdict(script)) == script


# -- emission through the ingest formats ----------------------------------------


def test_emitted_series_reingest_identically(tmp_path):
    script = motion_synth.MotionScript(n_frames=20, touchdown_frame=5)
    sagittal, frontal, _ = motion_synth.generate(script)

    pi.write_series_openpose(sagittal, tmp_path / "sag")
    back = pi.load_series(tmp_path / "sag")
    assert series_equal(sagittal, back)

    pi.write_series_csv(frontal, tmp_path / "fro.csv")
    back = pi.read_series_csv(tmp_path / "fro.csv")
    assert series_equal(frontal, back)


def test_a_script_at_its_pixel_bound_gives_a_readable_trial(tmp_path):
    # the knee offset at -MAX_PX sets the knees furthest apart
    pixels = {name: motion_synth.MAX_PX for name in asdict(motion_synth.MotionScript())
              if name.endswith("_px")}
    script = motion_synth.MotionScript(n_frames=12, touchdown_frame=4, seed=3,
                                       **{**pixels, "knee_offset_px": -motion_synth.MAX_PX})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, series in enumerate(motion_synth.generate(script)[:2]):
            pi.write_series_csv(series, tmp_path / f"{i}.csv")
            assert series_equal(series, pi.read_series_csv(tmp_path / f"{i}.csv"))


def test_ground_truth_file_holds_every_field(tmp_path):
    script = motion_synth.MotionScript(n_frames=40, touchdown_frame=10, knee_offset_px=12.0)
    _, _, truth = motion_synth.generate(script)
    motion_synth.write_ground_truth(truth, tmp_path / "truth.json")
    expected = {
        "touchdown_frame": truth.touchdown_frame,
        "knee_deg": truth.knee_deg.tolist(),
        "hip_deg": truth.hip_deg.tolist(),
        "lean_deg": truth.lean_deg.tolist(),
        "p1_trace": truth.p1_trace.tolist(),
        "p2_trace": truth.p2_trace.tolist(),
        "s4_trace": truth.s4_trace.tolist(),
        "p1": truth.p1,
        "p2": truth.p2,
        "s4_peak": truth.s4_peak,
        "d1": truth.d1,
        "d2": truth.d2,
    }
    text = (tmp_path / "truth.json").read_text()
    assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
