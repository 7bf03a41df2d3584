from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from aclrisk import ahp, assessment, motion_synth
from aclrisk import pose_ingest as pi
from aclrisk.config import ConfigError, RunConfig, config_from_dict, load_config
from aclrisk.errors import (
    AclRiskError,
    AllFramesInvalid,
    ConsistencyFailure,
    EmptySource,
    GapTooLong,
    InvalidMatrix,
    IoFailure,
    MalformedDocument,
    OrderMismatch,
    SeriesParseError,
)
from aclrisk.scoring import GradeVector, ThresholdConfig

from conftest import CRITERION_MATRIX, child_env, counting_calls

# matrix with a strong preference cycle; fails the CR < 0.1 check
INCONSISTENT_MATRIX = [
    [1, 5, "1/5", 1, 1],
    ["1/5", 1, 5, 1, 1],
    [5, "1/5", 1, 1, 1],
    [1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1],
]
INCONSISTENT = {"judgment_matrix": ahp.parse_matrix(INCONSISTENT_MATRIX)}


def write_trial(tmp_path, script: motion_synth.MotionScript, name: str = "trial"):
    sagittal, frontal, truth = motion_synth.generate(script)
    sag_dir = tmp_path / name / "sagittal"
    fro_csv = tmp_path / name / "frontal.csv"
    fro_csv.parent.mkdir(parents=True, exist_ok=True)
    pi.write_series_openpose(sagittal, sag_dir)
    pi.write_series_csv(frontal, fro_csv)
    return str(sag_dir), str(fro_csv), truth


def repeat_frame(csv_path, line: int) -> None:
    """Give data line ``line`` (1-based, header is line 1) the frame of the line before."""
    lines = Path(csv_path).read_text().splitlines()
    previous = lines[line - 2].split(",", 1)[0]
    lines[line - 1] = previous + "," + lines[line - 1].split(",", 1)[1]
    Path(csv_path).write_text("\n".join(lines) + "\n")


def excellent_script() -> motion_synth.MotionScript:
    return motion_synth.MotionScript(
        n_frames=90, touchdown_frame=30,
        peak_knee_flexion_deg=70.0, peak_hip_flexion_deg=70.0,
        peak_lateral_lean_deg=5.0,
        stance_ankle_width_px=110.0, knee_offset_px=0.0, shoulder_width_px=110.0)


def poor_script() -> motion_synth.MotionScript:
    return motion_synth.MotionScript(
        n_frames=90, touchdown_frame=30,
        peak_knee_flexion_deg=20.0, peak_hip_flexion_deg=20.0,
        peak_lateral_lean_deg=70.0,
        stance_ankle_width_px=110.0, knee_offset_px=60.0, shoulder_width_px=170.0)


def compat_config() -> RunConfig:
    return RunConfig(weight_source="table5-compat")


def excellent_batch(tmp_path, numbers=(1, 2, 3)) -> list[assessment.Trial]:
    """Trials numbered ``numbers``, each of them the excellent trial."""
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    return [assessment.Trial(n, sag, fro) for n in numbers]


def compat_report(tmp_path, script=None) -> assessment.AssessmentReport:
    """The report of a trial (the excellent one by default) under the table-5 weights."""
    sag, fro, _ = write_trial(tmp_path, script or excellent_script())
    return assessment.assess_trial(sag, fro, compat_config())


def test_excellent_trial_end_to_end(tmp_path):
    report = compat_report(tmp_path)
    assert report.grade_vector() == GradeVector(9, 9, 9, 9, 9)
    assert report.total == pytest.approx(8.9766, abs=1e-3)
    assert set(report.labels.values()) == {"excellent"}


def test_poor_trial_end_to_end(tmp_path):
    report = compat_report(tmp_path, poor_script())
    assert report.grade_vector() == GradeVector(1, 1, 1, 1, 1)
    assert report.total == pytest.approx(0.9974, abs=1e-3)


def test_missing_frontal_source_is_stage_labeled(tmp_path):
    sag, _, _ = write_trial(tmp_path, excellent_script())
    with pytest.raises(AclRiskError) as exc_info:
        assessment.assess_trial(sag, tmp_path / "nowhere", compat_config())
    assert exc_info.value.stage == "ingest"


def test_report_json_roundtrip(tmp_path):
    report = compat_report(tmp_path)
    payload = assessment.emit_report(report, "json")
    parsed = assessment.AssessmentReport(**json.loads(payload))
    assert parsed == report


def test_report_json_refuses_non_finite_numbers(tmp_path):
    report = compat_report(tmp_path)
    report.total = math.nan
    with pytest.raises(IoFailure) as exc_info:
        assessment.report_to_json(report)
    assert exc_info.value.stage == "emit"


@pytest.mark.parametrize("fields", [
    {"window_duration_s": 10**400},
    {"default_fps": 10**400},
    {"window_duration_s": 10**200, "default_fps": 10**200},  # each fits a float, not the product
    {"weights": [10**400, 1, 1, 1, 1]},
], ids=["window_duration_s", "default_fps", "product", "weights"])
def test_an_int_too_large_for_a_float_is_a_config_error(fields):
    with pytest.raises(ConfigError, match="finite") as exc_info:
        RunConfig(**fields).validate()
    assert len(str(exc_info.value)) < 120  # the refused value is cut, not echoed in full


@pytest.mark.parametrize("fields", [
    {"weights": ["a", 1, 1, 1, 1]},
    {"confidence_threshold": "x"},
    {"max_gap": "3"},
    {"window_duration_s": None},
    {"default_fps": "30"},
], ids=["weights", "confidence_threshold", "max_gap", "window_duration_s", "default_fps"])
def test_a_value_that_is_not_a_number_is_a_config_error(fields):
    [name] = fields
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        RunConfig(**fields).validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_explicit_weights_must_be_finite(bad):
    cfg = RunConfig(weight_source="explicit", weights=[0.2, 0.2, 0.2, 0.2, bad])
    with pytest.raises(ConfigError, match="finite"):
        cfg.validate()


HIERARCHY = {"hierarchical": True, "criterion_matrix": [[1, 2], ["1/2", 1]],
             "criterion_groups": [[0, 1], [2, 3, 4]]}


@pytest.mark.parametrize("data", [
    {"weight_source": "explicit", "weights": ["a", 1, 1, 1, 1]},
    {"criterion_groups": [["x"]]},
    {"max_gap": math.inf},
    {"window_duration_s": math.nan, "window_mode": "landing"},
    {"window_duration_s": 0},
    {"default_fps": "-1"},
    {**HIERARCHY, "weight_source": "table5-compat"},
    {**HIERARCHY, "weight_source": "explicit", "weights": [0.2] * 5},
    {"thresholds": {"distance_hi": math.inf}},
    {"thresholds": {"cosine_lo": math.nan}},
    {"thresholds": {"distance_lo": 10**400}},
    {"thresholds": {"distance_lo": None}},
    {"thresholds": {"distance_lo": 60.0}},  # not below distance_hi
    {"thresholds": {"normalize_by_shoulder": "maybe"}},
    {"thresholds": {"normalize_by_shoulder": 1}},
    {"thresholds": {"unknown": 1}},
    {"thresholds": []},
    {"thresholds": "x"},
    {"thresholds": None},
    {"thresholds": {"cosine_lo": -5, "cosine_hi": 3}},  # cosines lie in [-1, 1]
    {"criterion_matrix": [[1, math.inf], [1, 1]]},  # not hierarchical, still checked
    {"weights": [math.nan, 1, 1, 1, 1]},  # weight_source is not explicit, still checked
    {"weight_source": "explicit", "weights": "12345"},  # a list value must be a JSON list
    {"criterion_groups": "01"},
    {"criterion_groups": ["01", "23"]},
    {"max_gap": 2.5},  # integers must be whole numbers
    {"max_gap": True},  # booleans are not numbers
    {"confidence_threshold": True},
    {"weight_source": "explicit", "weights": [True, 0, 0, 0, 0]},
    {"thresholds": {"distance_lo": True}},
    # the landing window's frame count is window_duration_s * default_fps
    {"window_mode": "landing", "window_duration_s": 1e308, "default_fps": 30},
    # a value is the JSON type of its field: no string spells a boolean or a number
    {"thresholds": {"normalize_by_shoulder": "false"}},
    {"thresholds": {"normalize_by_shoulder": "on"}},
    {"max_gap": "5"},
    {"hierarchical": "off"},
    {"weight_source": "explicit", "weights": [0.25] * 4},  # one weight per index
    {"weight_source": "explicit", "weights": [0.5, 0.5, 0.5, -0.5, 0.0]},
])
def test_bad_config_values_are_config_errors(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


@pytest.mark.parametrize("fields", [
    {"thresholds": {"distance_lo": 10.0}},
    {"max_gap": math.nan},
    {"max_gap": 2.5},
    {"thresholds": ThresholdConfig(distance_hi=math.inf)},
    {"hierarchical": True, "criterion_matrix": CRITERION_MATRIX,
     "criterion_groups": [[0.0, 1.0], [2.0, 3.0, 4.0]]},
    {"judgment_matrix": "abc"},
    {"criterion_matrix": "x"},
], ids=["thresholds-dict", "nan-max-gap", "fractional-max-gap", "infinite-threshold",
        "float-groups", "string-judgment-matrix", "string-criterion-matrix"])
def test_a_bad_config_built_in_code_fails_at_config_before_any_input_is_read(tmp_path, fields):
    sag, _, _ = write_trial(tmp_path, excellent_script())
    with pytest.raises(AclRiskError) as exc_info:
        assessment.assess_trial(sag, tmp_path / "missing-frontal", RunConfig(**fields))
    assert exc_info.value.stage == "config"


def test_thresholds_changed_after_they_were_made_are_checked_again():
    cfg = RunConfig()
    cfg.thresholds.distance_lo = 60.0  # not below distance_hi
    with pytest.raises(ConfigError, match="^bad thresholds section: need 0 < distance_lo"):
        cfg.validate()


def test_json_numbers_take_the_type_of_their_field():
    # the largest int a float holds exactly becomes that float
    cfg = config_from_dict({"confidence_threshold": 0, "max_gap": 0.0,
                            "weights": [int(sys.float_info.max), 1, 1, 1, 1], **HIERARCHY,
                            "criterion_groups": [[0.0, 1], [2, 3, 4.0]]})
    assert type(cfg.confidence_threshold) is float and type(cfg.max_gap) is int
    assert all(type(w) is float for w in cfg.weights)
    assert cfg.criterion_groups == [[0, 1], [2, 3, 4]]
    assert all(type(i) is int for group in cfg.criterion_groups for i in group)


@pytest.mark.parametrize("data", [
    {"confidence_threshold": 1},
    {"weight_source": "explicit", "weights": [0, 1, 1, 1, 1]},
])
def test_values_at_their_bounds_are_accepted(data):
    config_from_dict(data)


@pytest.mark.parametrize("make, match", [
    (lambda path: None, "^config file not found: "),
    (lambda path: path.write_text("[1, 2]"), "^config must be an object$"),
    (Path.mkdir, "^config file cannot be read: .*config.json: "),
    (lambda path: path.write_bytes(b"\xff\xfe\x00{"), "^config file is not valid JSON: "),
], ids=["missing", "not-an-object", "directory", "bad-encoding"])
def test_a_config_file_that_is_missing_or_not_an_object_is_a_config_error(tmp_path, make,
                                                                          match):
    path = tmp_path / "config.json"
    make(path)
    with pytest.raises(ConfigError, match=match):
        load_config(path)


def test_a_config_file_with_a_byte_order_mark_is_read(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"max_gap": 3}).encode())
    assert load_config(path).max_gap == 3


@pytest.mark.parametrize("data", [
    {"judgment_matrix": [[1, 1], [1, 1]]},  # five indices need a 5x5 matrix
    {**HIERARCHY, "criterion_groups": [[0, 1], [1, 2]]},  # not a partition of 0..4
    {**HIERARCHY, "criterion_groups": [[0, 1], [2, 3]]},
    {**HIERARCHY, "criterion_groups": [[0, 1, 2, 3, 4], []]},  # weights would sum to 3/4
])
def test_weighting_of_the_wrong_shape_fails_at_load(data):
    with pytest.raises(OrderMismatch):
        config_from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"hierarchical": "maybe"}, "bad value for hierarchical: expected a boolean, got 'maybe'"),
    ({"thresholds": {"normalize_by_shoulder": 2}},
     "bad value for thresholds.normalize_by_shoulder: expected a boolean, got 2"),
], ids=["hierarchical", "normalize_by_shoulder"])
def test_a_bad_boolean_names_its_key(data, message):
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    assert str(exc_info.value) == message


def test_a_boolean_matrix_cell_fails_at_load():
    matrix = ahp.DEFAULT_INDEX_MATRIX.tolist()
    matrix[2][2] = True
    with pytest.raises(InvalidMatrix):
        config_from_dict({"judgment_matrix": matrix})


def test_hierarchy_combines_with_derived_weight_sources():
    for source in ("sum-method", "geometric"):
        assert config_from_dict({**HIERARCHY, "weight_source": source}).hierarchical


@pytest.mark.parametrize("section, expected", [
    ({"normalize_by_shoulder": False}, {"normalize_by_shoulder": False}),
    ({"normalize_by_shoulder": True}, {"normalize_by_shoulder": True}),
    ({"distance_lo": 10, "distance_hi": 20}, {"distance_lo": 10.0, "distance_hi": 20.0}),
])
def test_thresholds_values_are_converted_by_field_type(section, expected):
    cfg = config_from_dict({"thresholds": section})
    snapshot = cfg.as_dict()["thresholds"]
    for name, value in expected.items():
        assert getattr(cfg.thresholds, name) == value
        assert type(getattr(cfg.thresholds, name)) is type(value)
        assert type(snapshot[name]) is type(value)


def test_report_total_recomputes_from_own_fields(tmp_path):
    sag, fro, _ = write_trial(tmp_path, poor_script())
    report = assessment.assess_trial(sag, fro, RunConfig())
    recomputed = ahp.aggregate(list(report.grade_vector()),
                               report.weights["values"])
    assert abs(report.total - recomputed) < 1e-9


def test_config_snapshot_reproduces_run(tmp_path):
    sag, fro, _ = write_trial(tmp_path, poor_script())
    cfg = RunConfig(weight_source="geometric", window_mode="landing",
                    confidence_threshold=0.35)
    first = assessment.assess_trial(sag, fro, cfg)
    snapshot = dict(first.config)
    inputs = snapshot.pop("inputs")
    rebuilt = config_from_dict(snapshot)
    second = assessment.assess_trial(inputs["sagittal"], inputs["frontal"], rebuilt)
    assert assessment.emit_report(first, "json") == assessment.emit_report(second, "json")


def test_consistency_report_included_for_matrix_sources(tmp_path):
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    report = assessment.assess_trial(sag, fro, RunConfig(weight_source="sum-method"))
    assert report.consistency is not None
    assert report.consistency["passed"] is True
    assert report.consistency["cr"] == pytest.approx(0.028, abs=1e-3)
    assert report.total == pytest.approx(9.0, abs=1e-9)


def test_inconsistent_matrix_raises_without_force(tmp_path):
    trial = assert_refused_once(tmp_path, INCONSISTENT, ConsistencyFailure, "weights")[0]
    report = assessment.assess_trial(trial.sagittal, trial.frontal,
                                     RunConfig(**INCONSISTENT, force=True))
    assert report.consistency["passed"] is False


def test_landing_window_mode(tmp_path):
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    cfg = compat_config()
    cfg.window_mode = "landing"
    report = assessment.assess_trial(sag, fro, cfg)
    assert report.grade_vector() == GradeVector(9, 9, 9, 9, 9)
    n_sag_frames = len(report.trace_data["p1"][0])
    assert n_sag_frames < 90  # landing window is a strict subrange


def test_hierarchical_weights_through_config(tmp_path):
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    cfg = RunConfig(
        hierarchical=True,
        criterion_matrix=CRITERION_MATRIX.copy(),
        criterion_groups=[[0, 1], [2, 3, 4]],
    )
    report = assessment.assess_trial(sag, fro, cfg)
    assert sum(report.weights["values"]) == pytest.approx(1.0, abs=1e-9)
    assert report.total == pytest.approx(9.0, abs=1e-9)


# -- emission ---------------------------------------------------------------


def test_csv_summary_row(tmp_path):
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    report = assessment.assess_trial(sag, fro, compat_config(), number=10)
    payload = assessment.emit_report(report, "csv").decode()
    assert payload.splitlines()[0] == "number,x1,x2,x3,x4,x5,total"
    assert payload.splitlines()[1] == "10,9,9,9,9,9,8.9766"


def test_csv_summary_works_without_trace_data(tmp_path):
    report = compat_report(tmp_path)
    parsed = assessment.AssessmentReport(**json.loads(assessment.emit_report(report, "json")))
    assert parsed.trace_data is None
    assert assessment.emit_report(parsed, "csv")  # still emits a row
    with pytest.raises(IoFailure):
        assessment.emit_traces(parsed, tmp_path / "t")


def test_emit_traces_files(tmp_path):
    report = compat_report(tmp_path)
    refs = assessment.emit_traces(report, tmp_path / "traces")
    assert sorted(refs) == ["p1", "p2", "s1", "s2", "s3", "s4"]
    assert report.traces == refs
    for name, ref in refs.items():
        lines = Path(ref).read_text().splitlines()
        assert lines[0] == "frame,value"
        assert len(lines) == 1 + excellent_script().n_frames


def test_trace_values_for_constant_upright_pose(tmp_path):
    script = motion_synth.MotionScript(
        n_frames=30, touchdown_frame=0, drop_height_px=0.0,
        peak_knee_flexion_deg=0.0, peak_hip_flexion_deg=0.0,
        peak_lateral_lean_deg=0.0, knee_offset_px=0.0,
        stance_ankle_width_px=110.0, shoulder_width_px=110.0)
    report = compat_report(tmp_path, script)
    refs = assessment.emit_traces(report, tmp_path / "traces")
    rows = Path(refs["s4"]).read_text().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert values == [-1.0] * 30


def test_trace_peak_for_65_degree_knee(tmp_path):
    script = motion_synth.MotionScript(
        n_frames=80, touchdown_frame=20, peak_knee_flexion_deg=65.0)
    report = compat_report(tmp_path, script)
    peak = max(report.trace_data["p1"][1])
    assert -0.5 < peak < 0.0


def test_the_sagittal_side_chooses_the_required_keypoints(tmp_path):
    script = motion_synth.MotionScript(n_frames=120, touchdown_frame=40, noise_sigma_px=0.5)
    sag, fro, _ = write_trial(tmp_path, script)
    left = RunConfig(sagittal_side="left")
    expected = assessment.assess_trial(sag, fro, left)
    sagittal, _, _ = motion_synth.generate(script)
    sagittal.keypoints[:, [pi.R_HIP, pi.R_KNEE, pi.R_ANKLE]] = 0.0
    right_lost = tmp_path / "right_lost.csv"
    pi.write_series_csv(sagittal, right_lost)
    report = assessment.assess_trial(right_lost, fro, left)
    assert (report.grades, report.total) == (expected.grades, expected.total)
    with pytest.raises(AllFramesInvalid) as exc_info:
        assessment.assess_trial(right_lost, fro)
    assert exc_info.value.stage == "preprocess"


# -- frames in which nobody was detected ---------------------------------------


def trial_with_empty_frames(tmp_path, frames) -> tuple[str, str]:
    """A 60-frame trial (touchdown 20) whose listed sagittal frames list no people."""
    script = motion_synth.MotionScript(n_frames=60, touchdown_frame=20)
    sag, fro, _ = write_trial(tmp_path, script)
    names = sorted(os.listdir(sag))
    for t in frames:
        Path(sag, names[t]).write_text('{"people": []}')
    return sag, fro


def test_leading_empty_frames_are_dropped(tmp_path):
    clean = assessment.assess_trial(*trial_with_empty_frames(tmp_path / "clean", []))
    report = assessment.assess_trial(*trial_with_empty_frames(tmp_path / "empty", range(3)))
    assert (report.grades, report.total) == (clean.grades, clean.total)
    assert report.preprocessing["sagittal"]["frames_dropped_leading"] == 3


def test_short_run_of_empty_frames_is_interpolated(tmp_path):
    report = assessment.assess_trial(*trial_with_empty_frames(tmp_path, range(30, 33)))
    # 3 frames of each of the 5 required sagittal keypoints
    assert report.preprocessing["sagittal"]["values_interpolated"] == 15


def test_long_run_of_empty_frames_is_gap_too_long(tmp_path):
    with pytest.raises(GapTooLong) as exc_info:
        assessment.assess_trial(*trial_with_empty_frames(tmp_path, range(30, 37)))
    assert exc_info.value.stage == "preprocess"
    assert exc_info.value.message.startswith(
        "keypoint 1 missing for 7 consecutive frames (frames 30..36)")


def test_a_view_of_empty_frames_is_all_frames_invalid(tmp_path):
    with pytest.raises(AllFramesInvalid) as exc_info:
        assessment.assess_trial(*trial_with_empty_frames(tmp_path, range(60)))
    assert exc_info.value.stage == "preprocess"


@pytest.mark.parametrize("content, message", [
    ("", "frontal.csv: empty CSV"),
    (",".join(pi._CSV_HEADER) + "\n", "frontal.csv: no data rows"),
], ids=["empty", "header-only"])
def test_a_csv_view_without_data_rows_is_empty_source_at_ingest(tmp_path, content, message):
    sag, fro, _ = write_trial(tmp_path, excellent_script())
    Path(fro).write_text(content)
    with pytest.raises(EmptySource) as exc_info:
        assessment.assess_trial(sag, fro, RunConfig())
    assert exc_info.value.stage == "ingest"
    assert exc_info.value.message == message


# -- batch ---------------------------------------------------------------------


def test_batch_isolates_failures(tmp_path):
    sag1, fro1, _ = write_trial(tmp_path, excellent_script(), "t1")
    sag2, fro2, _ = write_trial(tmp_path, poor_script(), "t2")
    trials = [
        assessment.Trial(1, sag1, fro1),
        assessment.Trial(2, str(tmp_path / "missing"), fro2),
        assessment.Trial(3, sag2, fro2),
    ]
    result = assessment.assess_batch(trials, compat_config())
    assert [r.number for r in result.reports] == [1, 3]
    assert len(result.failures) == 1
    assert result.failures[0]["number"] == 2
    assert result.failures[0]["stage"] == "ingest"
    lines = result.summary().splitlines()
    assert lines[0] == "number,x1,x2,x3,x4,x5,total"
    assert len(lines) == 3


def test_batch_collects_duplicate_frames_as_ingest_failure(tmp_path):
    sag1, fro1, _ = write_trial(tmp_path, excellent_script(), "t1")
    sag2, fro2, _ = write_trial(tmp_path, excellent_script(), "t2")
    repeat_frame(fro2, line=10)
    trials = [assessment.Trial(1, sag1, fro1), assessment.Trial(2, sag2, fro2)]
    result = assessment.assess_batch(trials, compat_config())
    assert [r.number for r in result.reports] == [1]
    assert [(f["number"], f["stage"], f["error"]) for f in result.failures] == [
        (2, "ingest", "MalformedDocument")]


@pytest.mark.parametrize("fmt", ["csv", "openpose"])
def test_an_out_of_bound_ankle_fails_the_trial_at_ingest(tmp_path, fmt):
    # frame 30's frontal left-ankle x is finite but absurd: let through, it would
    # overflow d1_px and d2_px to inf, and the report would fail to serialize at emit
    sagittal, frontal, _ = motion_synth.generate(
        motion_synth.MotionScript(n_frames=60, touchdown_frame=20))
    frontal.keypoints[30, pi.L_ANKLE, 0] = 1e300
    trial = tmp_path / "bad"
    trial.mkdir()
    sag = trial / "sagittal.csv"
    pi.write_series_csv(sagittal, sag)
    if fmt == "csv":
        fro, failing = trial / "frontal.csv", "frontal.csv:32"
        pi.write_series_csv(frontal, fro)
    else:
        fro, failing = trial / "frontal", "frame_000000000030_keypoints.json"
        pi.write_series_openpose(frontal, fro)
    good_sag, good_fro, _ = write_trial(tmp_path, excellent_script(), "good")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesParseError) as exc_info:
            assessment.assess_trial(sag, fro)
        result = assessment.assess_batch([assessment.Trial(1, str(sag), str(fro)),
                                          assessment.Trial(2, good_sag, good_fro)])
    assert exc_info.value.stage == "ingest"
    assert [(fid, str(err)) for fid, err in exc_info.value.failures] == [
        (failing, "keypoint coordinates must lie within ±1e6 px")]
    assert [r.number for r in result.reports] == [2]
    assert [(f["number"], f["stage"], f["error"]) for f in result.failures] == [
        (1, "ingest", "SeriesParseError")]


def occluded_sagittal_csv(tmp_path) -> str:
    """A sagittal CSV whose right knee is lost for 10 interior frames (max_gap is 5)."""
    sagittal, _, _ = motion_synth.generate(excellent_script())
    sagittal.keypoints[40:50, pi.R_KNEE] = 0.0
    path = tmp_path / "sagittal.csv"
    pi.write_series_csv(sagittal, path)
    return str(path)


def test_two_bad_views_report_the_sagittal_view_first(tmp_path):
    # the frontal file is missing (ingest), the sagittal view has a long gap
    # (preprocess): the sagittal view runs in the caller, and its error wins
    sag, missing_fro = occluded_sagittal_csv(tmp_path), str(tmp_path / "gone.csv")
    with pytest.raises(GapTooLong) as exc_info:
        assessment.assess_trial(sag, missing_fro, compat_config())
    assert exc_info.value.stage == "preprocess"
    result = assessment.assess_batch([assessment.Trial(4, sag, missing_fro)], compat_config())
    assert result.reports == []
    assert [(f["number"], f["stage"], f["error"]) for f in result.failures] == [
        (4, "preprocess", "GapTooLong")]


def assert_refused_once(tmp_path, fields, error, stage, match=None) -> list[assessment.Trial]:
    """RunConfig(**fields) fails a trial, and a batch of three once, with ``error`` at ``stage``."""
    trials = excellent_batch(tmp_path)
    for run in (lambda cfg: assessment.assess_trial(trials[0].sagittal, trials[0].frontal, cfg),
                lambda cfg: assessment.assess_batch(trials, cfg)):  # not one failure per trial
        with pytest.raises(error, match=match) as exc_info:
            run(RunConfig(**fields))
        assert exc_info.value.stage == stage
    return trials


def test_bad_config_fails_at_stage_config(tmp_path):
    assert_refused_once(tmp_path, {"max_gap": -1}, ConfigError, "config")


def test_batch_with_a_value_that_is_not_a_number_fails_once_at_config(tmp_path):
    assert_refused_once(tmp_path, {"confidence_threshold": "x"}, ConfigError, "config")


@pytest.mark.parametrize("fields", [
    {"judgment_matrix": np.ones((2, 2))},
    {"hierarchical": True, "criterion_matrix": CRITERION_MATRIX.copy(),
     "criterion_groups": [[0, 1], [1, 2]]},
], ids=["order", "groups"])
def test_batch_with_weighting_of_the_wrong_shape_fails_once_at_config(tmp_path, fields):
    assert_refused_once(tmp_path, fields, OrderMismatch, "config")


def test_a_batch_derives_its_weighting_once(tmp_path, monkeypatch):
    calls = counting_calls(monkeypatch, ahp, "consistency")
    result = assessment.assess_batch(excellent_batch(tmp_path, [1]), RunConfig())
    assert [r.number for r in result.reports] == [1]
    assert len(calls) == 1


def test_a_batch_validates_its_config_once(tmp_path, monkeypatch):
    monkeypatch.setattr(assessment, "_usable_cpus", lambda: 1)
    calls = counting_calls(monkeypatch, RunConfig, "validate")
    result = assessment.assess_batch(excellent_batch(tmp_path), RunConfig())
    assert [r.number for r in result.reports] == [1, 2, 3]
    assert len(calls) == 1


def test_an_inconsistent_matrix_fails_a_trial_before_it_reads_or_forks(tmp_path, monkeypatch):
    sag, _, _ = write_trial(tmp_path, excellent_script())
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    cfg = RunConfig(**INCONSISTENT)
    with pytest.raises(ConsistencyFailure) as exc_info:
        assessment.assess_trial(sag, str(tmp_path / "missing.csv"), cfg)
    assert exc_info.value.stage == "weights"
    assert forked() == []


# a criterion matrix with a preference cycle (CR 6.13) over three criterion groups;
# the default judgment matrix beneath it passes (CR 0.028)
INCONSISTENT_HIERARCHY = {
    "hierarchical": True,
    "criterion_matrix": ahp.parse_matrix([[1, 9, "1/9"], ["1/9", 1, 9], [9, "1/9", 1]]),
    "criterion_groups": [[0, 1], [2], [3, 4]],
}


def test_a_batch_fails_once_on_an_inconsistent_criterion_matrix(tmp_path):
    assert_refused_once(tmp_path, INCONSISTENT_HIERARCHY, ConsistencyFailure, "weights",
                        match=r"criterion matrix CR = 6\.1303")


def test_force_keeps_the_weights_of_an_inconsistent_criterion_matrix():
    weights, consistency = assessment.resolve_weights(
        RunConfig(**INCONSISTENT_HIERARCHY, force=True))
    # the sum-method criterion weights spread over the sum-method index weights
    assert weights.tolist() == [0.20791061607745803, 0.12542271725587525, 0.3333333333333333,
                                0.18967846534844085, 0.14365486798489246]
    assert consistency["cr"] == pytest.approx(0.028031488555362423, abs=1e-12)


def mixed_batch(tmp_path) -> list[assessment.Trial]:
    """Good trials between a long gap, a broken frame and a missing source."""
    good = [write_trial(tmp_path, script, name)[:2] for script, name in
            ((excellent_script(), "good1"), (poor_script(), "good2"),
             (excellent_script(), "good3"))]
    sag_broken, fro_broken, _ = write_trial(tmp_path, poor_script(), "broken")
    (Path(sag_broken) / sorted(os.listdir(sag_broken))[5]).write_text("broken{")
    return [
        assessment.Trial(1, *good[0]),
        assessment.Trial(2, occluded_sagittal_csv(tmp_path), good[1][1]),
        assessment.Trial(3, *good[1]),
        assessment.Trial(4, sag_broken, fro_broken),
        assessment.Trial(5, good[2][0], str(tmp_path / "missing.csv")),
        assessment.Trial(6, *good[2]),
    ]


def serial_outcome(trials, cfg) -> tuple[list[bytes], list[dict]]:
    """Reports and failure records of assess_trial called on one trial at a time."""
    reports, failures = [], []
    for t in trials:
        try:
            report = assessment.assess_trial(t.sagittal, t.frontal, cfg, number=t.number)
        except AclRiskError as exc:
            failures.append({"number": t.number, "stage": exc.stage,
                             "error": type(exc).__name__, "message": exc.message})
        else:
            reports.append(assessment.report_to_json(report))
    return reports, failures


def batch_outcome(trials, cfg) -> tuple[list[bytes], list[dict]]:
    result = assessment.assess_batch(trials, cfg)
    return [assessment.report_to_json(r) for r in result.reports], result.failures


def test_a_mixed_batch_matches_one_trial_at_a_time(tmp_path):
    trials = mixed_batch(tmp_path)
    reports, failures = batch_outcome(trials, RunConfig())
    assert (reports, failures) == serial_outcome(trials, RunConfig())
    assert [json.loads(r)["number"] for r in reports] == [1, 3, 6]
    assert [(f["number"], f["stage"], f["error"]) for f in failures] == [
        (2, "preprocess", "GapTooLong"),
        (4, "ingest", "SeriesParseError"),
        (5, "ingest", "EmptySource"),
    ]
    assert sorted(os.listdir(trials[3].sagittal))[5] in failures[1]["message"]


def recording_pids(monkeypatch, directory: Path) -> None:
    """Make every assess_trial call leave a file named by its process id in ``directory``."""
    directory.mkdir()
    assess_trial = assessment.assess_trial

    def recorded(*args, **kwargs):
        (directory / str(os.getpid())).touch()
        time.sleep(0.05)  # let every worker take a trial
        return assess_trial(*args, **kwargs)

    monkeypatch.setattr(assessment, "assess_trial", recorded)


# a map forks: of two items, one goes to a child. The marker reads the platform, never the
# code under test, so a fault that stops every fork fails these tests instead of skipping them.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
forks = pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin" or CPUS < 2,
                           reason="needs fork and 2 usable CPUs")


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@forks
def test_a_batch_runs_in_more_than_one_process(tmp_path, monkeypatch):
    recording_pids(monkeypatch, tmp_path / "pids")
    result = assessment.assess_batch(excellent_batch(tmp_path, range(1, 7)), RunConfig())
    assert [r.number for r in result.reports] == [1, 2, 3, 4, 5, 6]
    pids = {int(p.name) for p in (tmp_path / "pids").iterdir()}
    # the caller assesses a share of its own
    assert os.getpid() in pids and len(pids) == min(6, assessment._usable_cpus())


def assert_a_child_ends_the_batch(tmp_path, monkeypatch, act, match: str) -> None:
    """A forked child calls ``act()`` in place of trial 2; the batch ends in RuntimeError."""
    caller, assess_trial = os.getpid(), assessment.assess_trial

    def acting(sagittal, frontal, config, number, **kwargs):
        if number == 2 and os.getpid() != caller:
            act()
        return assess_trial(sagittal, frontal, config, number, **kwargs)

    monkeypatch.setattr(assessment, "assess_trial", acting)
    with time_limit(60), pytest.raises(RuntimeError, match=match):
        assessment.assess_batch(excellent_batch(tmp_path), RunConfig())


@forks
def test_a_child_that_ends_without_a_result_ends_the_batch(tmp_path, monkeypatch):
    assert_a_child_ends_the_batch(tmp_path, monkeypatch, lambda: os._exit(3),
                                  f"wait status {3 << 8}")


class HoldsALock(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@forks
def test_an_error_that_cannot_be_pickled_reaches_the_caller_with_its_type(tmp_path,
                                                                          monkeypatch):
    def unpicklable():
        raise HoldsALock("not a pipeline error")

    assert_a_child_ends_the_batch(tmp_path, monkeypatch, unpicklable,
                                  "HoldsALock: not a pipeline error")


@forks
def test_when_the_callers_share_fails_every_child_is_reaped(tmp_path, monkeypatch):
    trials = excellent_batch(tmp_path, (1, 2, 3, 4))
    caller, assess_trial = os.getpid(), assessment.assess_trial

    def failing(sagittal, frontal, config, number, **kwargs):
        if os.getpid() == caller:
            raise KeyError("not a pipeline error")
        time.sleep(60)  # still running when the caller fails
        return assess_trial(sagittal, frontal, config, number, **kwargs)

    monkeypatch.setattr(assessment, "assess_trial", failing)
    with time_limit(30), pytest.raises(KeyError):
        assessment.assess_batch(trials, RunConfig())
    assert_no_child_left()


@forks
def test_a_long_trial_in_a_batch_matches_assess_trial(tmp_path):
    # trial 2 is assessed in a child, and its pickled report outgrows a 64 KiB pipe buffer
    long = motion_synth.MotionScript(n_frames=3000, touchdown_frame=1000,
                                     peak_knee_flexion_deg=70.0, peak_hip_flexion_deg=70.0)
    sagittal, frontal, _ = motion_synth.generate(long)
    trial = [str(tmp_path / "sagittal.csv"), str(tmp_path / "frontal.csv")]
    pi.write_series_csv(sagittal, trial[0])
    pi.write_series_csv(frontal, trial[1])
    short = write_trial(tmp_path, excellent_script())[:2]
    with time_limit(60):
        result = assessment.assess_batch(
            [assessment.Trial(1, *short), assessment.Trial(2, *trial)], RunConfig())
    report = assessment.assess_trial(*trial, RunConfig(), number=2)
    assert len(pickle.dumps(report)) > 1 << 16
    assert assessment.report_to_json(result.reports[1]) == assessment.report_to_json(report)


def counting_forks(monkeypatch, log: Path):
    """Make every os.fork, here or in a forked child, append the forking pid to ``log``.

    Returns a function that lists those pids.
    """
    fork = os.fork

    def logged():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


@forks
def test_a_batch_forks_once_per_child_and_never_for_views(tmp_path, monkeypatch):
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    trials = excellent_batch(tmp_path, (1, 2, 3, 4))
    workers = assessment._worker_count(len(trials))
    with time_limit(60):
        result = assessment.assess_batch(trials, RunConfig())
    assert [r.number for r in result.reports] == [1, 2, 3, 4]
    assert forked() == [os.getpid()] * (workers - 1)


def one_format_trial(tmp_path, fmt: str) -> tuple[str, str]:
    """A noisy trial with both views as CSV files or as OpenPose directories."""
    script = motion_synth.MotionScript(n_frames=120, touchdown_frame=40,
                                       noise_sigma_px=0.5, seed=7)
    sagittal, frontal, _ = motion_synth.generate(script)
    write = pi.write_series_csv if fmt == "csv" else pi.write_series_openpose
    suffix = ".csv" if fmt == "csv" else ""
    paths = []
    for view, series in ((pi.SAGITTAL, sagittal), (pi.FRONTAL, frontal)):
        paths.append(str(tmp_path / (view + suffix)))
        write(series, paths[-1])
    return paths[0], paths[1]


@forks
@pytest.mark.parametrize("mode", ["full", "landing"])
@pytest.mark.parametrize("fmt", ["csv", "openpose"])
def test_forked_views_give_the_bytes_of_in_process_views(tmp_path, monkeypatch, fmt, mode):
    sag, fro = one_format_trial(tmp_path, fmt)
    cfg = RunConfig(window_mode=mode)
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    with time_limit(60):
        report = assessment.assess_trial(sag, fro, cfg)
    assert forked() == [os.getpid()]
    monkeypatch.setattr(assessment, "_usable_cpus", lambda: 1)
    in_process = assessment.assess_trial(sag, fro, cfg)
    assert forked() == [os.getpid()]
    assert assessment.report_to_json(report) == assessment.report_to_json(in_process)
    assert report.trace_data.keys() == in_process.trace_data.keys()
    for name, (frames, values) in report.trace_data.items():
        for got, want in zip((frames, values), in_process.trace_data[name]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def break_frame(directory: str, position: int) -> str:
    """Overwrite the frame file at ``position`` in name order with invalid JSON; its name."""
    name = sorted(os.listdir(directory))[position]
    (Path(directory) / name).write_text("broken{")
    return name


def assert_only_frame_named(sag: str, fro: str, frame: str) -> str:
    """The trial fails at ingest naming ``frame`` alone, once, and leaves no child; the
    error's text."""
    with time_limit(60), pytest.raises(SeriesParseError) as exc_info:
        assessment.assess_trial(sag, fro, RunConfig())
    error = exc_info.value
    assert error.stage == "ingest"
    assert [fid for fid, _ in error.failures] == [frame]
    assert isinstance(error.failures[0][1], MalformedDocument)
    assert str(error).count(frame) == 1
    assert_no_child_left()
    return str(error)


@forks
def test_two_broken_views_report_the_sagittal_frame_and_leave_no_child(tmp_path):
    sag, fro = one_format_trial(tmp_path, "openpose")
    sag_frame, fro_frame = break_frame(sag, 5), break_frame(fro, 10)
    assert fro_frame not in assert_only_frame_named(sag, fro, sag_frame)


@forks
def test_a_broken_frontal_view_reaches_the_caller_whole(tmp_path):
    sag, fro = one_format_trial(tmp_path, "openpose")
    assert_only_frame_named(sag, fro, break_frame(fro, 10))


@forks
def test_a_frontal_child_that_ends_without_a_result_names_its_wait_status(tmp_path,
                                                                          monkeypatch):
    sag, fro = one_format_trial(tmp_path, "csv")
    caller, load_series = os.getpid(), pi.load_series

    def exiting(source, policy):
        if source == fro and os.getpid() != caller:
            os._exit(3)
        return load_series(source, policy)

    # a map sends _assess_view by reference, and the worker's copy reads through this
    monkeypatch.setattr(pi, "load_series", exiting)
    with time_limit(60), pytest.raises(RuntimeError, match=f"wait status {3 << 8}"):
        assessment.assess_trial(sag, fro, RunConfig())
    assert_no_child_left()


@forks
@pytest.mark.parametrize("n_frames, mode", [(3000, "full"), (300, "full"), (3000, "landing")])
def test_traces_are_written_from_forked_children_with_in_process_bytes(
        tmp_path, monkeypatch, csv_trials, n_frames, mode):
    # every trace file is renamed into place by the process that wrote it
    writers, replace = tmp_path / "writers", os.replace

    def recorded(source, target):
        with open(writers, "a") as f:
            f.write(f"{Path(target).stem} {os.getpid()}\n")
        replace(source, target)

    monkeypatch.setattr(os, "replace", recorded)
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    report = assessment.assess_trial(*csv_trials[n_frames], RunConfig(window_mode=mode))
    assert forked() == [os.getpid()] * (assessment._worker_count(2) - 1)
    with time_limit(60):
        refs = assessment.emit_traces(report, tmp_path / "forked")
    # the worker that took the frontal view takes its share of the traces: on 2 CPUs
    # nothing more is forked, and the worker writes p2, s2 and s4
    workers = assessment._worker_count(6)
    assert forked() == [os.getpid()] * (workers - 1)
    processes = [os.getpid()] + [worker.pid for worker in assessment._pool]
    assert dict(line.split() for line in writers.read_text().splitlines()) == {
        name: str(processes[i % workers]) for i, name in enumerate(report.trace_data)}
    monkeypatch.setattr(assessment, "_usable_cpus", lambda: 1)
    in_process = assessment.emit_traces(report, tmp_path / "in_process")
    assert forked() == [os.getpid()] * (workers - 1)
    assert refs.keys() == in_process.keys() == {"p1", "p2", "s1", "s2", "s3", "s4"}
    for name, ref in refs.items():
        assert Path(ref).read_bytes() == Path(in_process[name]).read_bytes()
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == [
        f"{name}.csv" for name in sorted(refs)]


@forks
def test_trials_with_traces_in_a_row_fork_their_workers_once(tmp_path, monkeypatch,
                                                             csv_trials):
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    with time_limit(60):
        for run in ("first", "second"):
            report = assessment.assess_trial(*csv_trials[300], RunConfig())
            assessment.emit_traces(report, tmp_path / run)
    # one worker for the views, which on 2 CPUs also takes the traces' second share
    assert forked() == [os.getpid()] * (assessment._worker_count(6) - 1)


@forks
def test_a_umask_set_between_maps_gives_the_modes_of_an_in_process_run(tmp_path, monkeypatch,
                                                                       csv_trials):
    report = assessment.assess_trial(*csv_trials[300], RunConfig())
    previous = os.umask(0o077)
    try:
        with time_limit(60):
            refs = assessment.emit_traces(report, tmp_path / "kept")
        monkeypatch.setattr(assessment, "_usable_cpus", lambda: 1)
        in_process = assessment.emit_traces(report, tmp_path / "in_process")
    finally:
        os.umask(previous)
    modes = {name: stat.S_IMODE(os.stat(ref).st_mode) for name, ref in refs.items()}
    assert modes == {name: stat.S_IMODE(os.stat(ref).st_mode)
                     for name, ref in in_process.items()}
    assert set(modes.values()) == {0o600}


@forks
@pytest.mark.skipif(shutil.which("cat") is None, reason="needs cat")
def test_a_pipe_the_caller_closes_after_a_map_reaches_its_end(csv_trials):
    # the worker forked by the map inherits the pipe to cat's stdin
    cat = subprocess.Popen(["cat"], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)
    try:
        assessment.assess_trial(*csv_trials[300], RunConfig())
        cat.stdin.close()
        assert cat.wait(timeout=30) == 0
    finally:
        cat.kill()
        cat.wait()
    assert assessment._pool
    for worker in assessment._pool:
        assert os.waitpid(worker.pid, os.WNOHANG) == (0, 0)


@forks
def test_a_killed_worker_is_replaced(monkeypatch, csv_trials):
    cfg = RunConfig()
    assessment.assess_trial(*csv_trials[300], cfg)
    killed = assessment._pool[0].pid
    os.kill(killed, signal.SIGKILL)
    os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)  # dead, and not yet reaped
    with time_limit(60):
        report = assessment.assess_trial(*csv_trials[300], cfg)
    assert assessment._pool and killed not in [worker.pid for worker in assessment._pool]
    with pytest.raises(ChildProcessError):
        os.waitpid(killed, os.WNOHANG)
    monkeypatch.setattr(assessment, "_usable_cpus", lambda: 1)
    in_process = assessment.assess_trial(*csv_trials[300], cfg)
    assert assessment.report_to_json(report) == assessment.report_to_json(in_process)


@forks
def test_a_forked_child_of_the_caller_neither_uses_nor_blocks_its_workers(tmp_path, monkeypatch,
                                                                          csv_trials):
    fork = os.fork  # this test's own fork is not counted
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    cfg = RunConfig()
    expected = assessment.report_to_json(assessment.assess_trial(*csv_trials[300], cfg))
    workers = [worker.pid for worker in assessment._pool]
    go_read, go_write = os.pipe()
    done_read, done_write = os.pipe()
    pid = fork()
    if pid == 0:
        code = 1
        try:
            os.close(go_write)
            os.close(done_read)
            # holds what it inherited until the parent has ended its workers
            if os.read(go_read, 1) == b"1":
                report = assessment.assess_trial(*csv_trials[300], cfg)
                own = [worker.pid for worker in assessment._pool]
                same = (assessment.report_to_json(report) == expected
                        and not set(own) & set(workers))
                assessment._close_pool()
                os.write(done_write, b"1" if same else b"0")
                code = 0
        finally:
            os._exit(code)
    os.close(go_read)
    os.close(done_write)
    try:
        with time_limit(30):
            report = assessment.assess_trial(*csv_trials[300], cfg)
            assert [worker.pid for worker in assessment._pool] == workers
            assessment._close_pool()  # the workers end while the child runs
        os.write(go_write, b"1")
        with time_limit(60):
            assert os.read(done_read, 1) == b"1"
    finally:
        os.close(go_write)
        os.close(done_read)
        os.waitpid(pid, 0)
    assert assessment.report_to_json(report) == expected
    assert forked() == [os.getpid()] * len(workers) + [pid] * len(workers)


@forks
def test_a_chdir_between_maps_reads_relative_paths_from_the_new_directory(
        tmp_path, monkeypatch, csv_trials):
    cfg = RunConfig()
    expected = assessment.assess_trial(*csv_trials[300], cfg)
    directory = Path(csv_trials[300][0]).parent
    monkeypatch.chdir(directory)
    with time_limit(60):
        report = assessment.assess_trial("sagittal.csv", "frontal.csv", cfg)
    assert report.features == expected.features


@forks
def test_a_working_directory_that_cannot_be_examined_forks_workers_afresh(
        tmp_path, monkeypatch, csv_trials):
    forked = counting_forks(monkeypatch, tmp_path / "forks")
    monkeypatch.setattr(assessment, "_caller_state", lambda: None)
    cfg = RunConfig()
    with time_limit(60):
        reports = [assessment.assess_trial(*csv_trials[300], cfg) for _ in range(2)]
    assert forked() == [os.getpid()] * 2 * (assessment._worker_count(2) - 1)
    assert assessment.report_to_json(reports[0]) == assessment.report_to_json(reports[1])


@forks
def test_a_process_that_ran_maps_exits_and_leaves_no_worker(csv_trials):
    code = ("import sys\n"
            "from aclrisk import assessment\n"
            "from aclrisk.config import RunConfig\n"
            "for _ in range(2):\n"
            "    assessment.assess_trial(sys.argv[1], sys.argv[2], RunConfig())\n"
            "print(*[worker.pid for worker in assessment._pool])\n")
    proc = subprocess.run([sys.executable, "-c", code, *csv_trials[300]], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    workers = [int(pid) for pid in proc.stdout.split()]
    assert len(workers) == assessment._worker_count(2) - 1
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("name", ["p2", "p1"])
def test_a_trace_that_cannot_be_written_fails_at_emit_and_leaves_no_child(
        tmp_path, csv_trials, name):
    # on 2 CPUs a forked child writes p2 and the caller writes p1
    report = assessment.assess_trial(*csv_trials[3000], RunConfig())
    earlier = assessment.emit_traces(report, tmp_path / "earlier")
    (tmp_path / "traces" / f"{name}.csv").mkdir(parents=True)
    with time_limit(60), pytest.raises(IoFailure) as exc_info:
        assessment.emit_traces(report, tmp_path / "traces")
    assert exc_info.value.stage == "emit"
    assert str(tmp_path / "traces" / f"{name}.csv") in exc_info.value.message
    assert report.traces == earlier
    assert_no_child_left()
    # whatever else was written before the failure is whole, and no part file is left
    for path in (tmp_path / "traces").iterdir():
        assert path.suffix == ".csv" and path.stem in earlier
        if path.stem != name:
            assert path.read_bytes() == Path(earlier[path.stem]).read_bytes()


def test_a_batch_beside_another_thread_runs_in_process(tmp_path, monkeypatch):
    trials = excellent_batch(tmp_path)
    recording_pids(monkeypatch, tmp_path / "pids")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        result = assessment.assess_batch(trials, RunConfig())
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert [r.number for r in result.reports] == [1, 2, 3]
    assert result.reports[0].consistency is not result.reports[1].consistency
    assert [p.name for p in (tmp_path / "pids").iterdir()] == [str(os.getpid())]


def test_an_error_outside_the_pipeline_ends_the_batch_with_its_type(tmp_path, monkeypatch):
    trials = excellent_batch(tmp_path)
    assess_trial = assessment.assess_trial

    def failing(sagittal, frontal, config, number, **kwargs):
        if number == 2:
            raise KeyError("not a pipeline error")
        return assess_trial(sagittal, frontal, config, number, **kwargs)

    monkeypatch.setattr(assessment, "assess_trial", failing)
    with pytest.raises(KeyError, match="not a pipeline error"):
        assessment.assess_batch(trials, RunConfig())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_batch_inside_a_pool_worker_runs_in_process(tmp_path):
    trials = mixed_batch(tmp_path)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        outcome = pool.apply_async(batch_outcome, (trials, RunConfig())).get(timeout=120)
    assert outcome == serial_outcome(trials, RunConfig())


def test_a_batch_failure_names_its_stage_once(tmp_path):
    _, fro, _ = write_trial(tmp_path, excellent_script())
    missing = tmp_path / "missing"
    result = assessment.assess_batch([assessment.Trial(1, str(missing), fro)], RunConfig())
    assert result.failures == [{"number": 1, "stage": "ingest", "error": "EmptySource",
                                "message": f"source not found: {missing}"}]


def test_batch_empty_list_raises():
    with pytest.raises(EmptySource) as exc:
        assessment.assess_batch([], RunConfig())
    assert exc.value.stage == "ingest"


def test_summary_csv_matches_reference_layout():
    rows = [(10, GradeVector(9, 9, 9, 9, 9), 8.9766)]
    out = assessment.summary_csv(rows)
    assert out == "number,x1,x2,x3,x4,x5,total\n10,9,9,9,9,9,8.9766\n"
