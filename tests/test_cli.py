from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from aclrisk import ahp, cli, motion_synth, scoring
from aclrisk import pose_ingest as pi

from conftest import child_env
from test_assessment import (INCONSISTENT_MATRIX, excellent_script, poor_script, repeat_frame,
                             write_trial)
from test_openpose_dir import ACCEPTED, mutated_documents


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def trials_file(tmp_path, entries) -> str:
    """A trials file of (number, (sagittal, frontal)) entries."""
    return write_json(tmp_path / "trials.json", [
        {"number": n, "sagittal": sag, "frontal": fro} for n, (sag, fro) in entries])


@pytest.fixture
def trial(tmp_path):
    sag, fro, truth = write_trial(tmp_path, excellent_script())
    return sag, fro


def assess(trial, *args: str) -> list[str]:
    return ["assess", "--sagittal", trial[0], "--frontal", trial[1], *args]


def assert_fails(args, capsys, start: str = "error: MalformedDocument:") -> str:
    """The CLI exits 1 with one error line that starts with ``start``, no traceback and no
    output; the line."""
    rc = cli.main(args)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith(start)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


# -- assess ------------------------------------------------------------------


def test_assess_writes_report_file(tmp_path, trial):
    report_path = tmp_path / "report.json"
    assert cli.main(assess(trial, "--report", str(report_path))) == 0
    data = json.loads(report_path.read_text())
    assert data["grades"] == {"x1": 9, "x2": 9, "x3": 9, "x4": 9, "x5": 9}


def test_assess_requires_frontal(trial, capsys):
    sag, _ = trial
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["assess", "--sagittal", sag])
    assert exc_info.value.code == 2
    assert "frontal" in capsys.readouterr().err


def test_assess_inconsistent_matrix_fails_without_force(tmp_path, trial, capsys):
    # confirm by the definitional formula that this matrix really fails
    matrix = ahp.parse_matrix(INCONSISTENT_MATRIX)
    w = ahp.weights_sum_method(matrix)
    n = matrix.shape[0]
    lam = float(((matrix @ w) / (n * w)).sum())
    cr = ((lam - n) / (n - 1)) / 1.12
    assert cr >= 0.1

    config = write_json(tmp_path / "cfg.json", {"judgment_matrix": INCONSISTENT_MATRIX})
    args = assess(trial, "--config", config, "--report", str(tmp_path / "r.json"))
    assert_fails(args, capsys, "error: ConsistencyFailure:")
    assert cli.main([*args, "--force"]) == 0


def test_assess_csv_format_to_stdout(trial, capsys):
    assert cli.main(assess(trial, "--format", "csv")) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "number,x1,x2,x3,x4,x5,total"
    assert out.splitlines()[1].startswith("1,9,9,9,9,9,")


def test_assess_missing_source_exits_one(tmp_path, trial, capsys):
    assert_fails(assess((trial[0], str(tmp_path / "none"))), capsys, "error: EmptySource: [ingest]")


def test_assess_duplicate_frames_exit_one_without_traceback(tmp_path, trial, capsys):
    repeat_frame(trial[1], line=5)
    assert_fails(assess(trial, "--report", str(tmp_path / "r.json")), capsys,
                 "error: MalformedDocument: [ingest]")


REJECTED_DOCUMENTS = [(label, content) for label, content in
                      mutated_documents(np.random.default_rng(3)) if label not in ACCEPTED]


@pytest.mark.parametrize("content", [content for _, content in REJECTED_DOCUMENTS],
                         ids=[label for label, _ in REJECTED_DOCUMENTS])
def test_assess_corrupt_openpose_frame_exits_one_without_traceback(tmp_path, trial, capsys,
                                                                   content):
    frame = sorted(Path(trial[0]).iterdir())[5]
    frame.write_bytes(content)
    err = assert_fails(assess(trial, "--report", str(tmp_path / "r.json")), capsys,
                       "error: SeriesParseError: [ingest]")
    assert frame.name in err


def test_assess_an_empty_first_openpose_frame_exits_zero(tmp_path, trial, capsys):
    sorted(Path(trial[0]).iterdir())[0].write_text('{"people": []}')
    report = tmp_path / "r.json"
    assert cli.main(assess(trial, "--report", str(report))) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["preprocessing"]["sagittal"][
        "frames_dropped_leading"] == 1


def second_person(frame: Path) -> None:
    doc = json.loads(frame.read_text())
    doc["people"].append(doc["people"][0])
    frame.write_text(json.dumps(doc))


@pytest.mark.parametrize("corrupt, error", [
    (lambda frames: frames[5].rename(frames[5].with_name("frame_99999999999999999999.json")),
     "SeriesParseError"),
    (lambda frames: (frames[0].parent / "sub.json").mkdir(), "SeriesParseError"),
    (lambda frames: frames[5].rename(frames[5].with_name("take.json")), "MalformedDocument"),
    (lambda frames: frames[5].rename(frames[5].with_name("take2_frame_3.JSON")),
     "MalformedDocument"),
    (lambda frames: second_person(frames[5]), "SeriesParseError"),
], ids=["frame-beyond-int64", "unreadable-file", "no-digits", "duplicate-frame",
        "two-people-strict"])
def test_assess_corrupt_openpose_directory_exits_one_without_traceback(tmp_path, trial, capsys,
                                                                       corrupt, error):
    corrupt(sorted(Path(trial[0]).iterdir()))
    config = write_json(tmp_path / "cfg.json", {"person_policy": "strict"})
    assert_fails(assess(trial, "--config", config, "--report", str(tmp_path / "r.json")), capsys,
                 f"error: {error}: [ingest]")


@pytest.mark.parametrize("config", [
    json.dumps({"window_duration_s": math.nan, "window_mode": "landing"}).encode(),
    json.dumps({"weight_source": "explicit", "weights": ["a", 1, 1, 1, 1]}).encode(),
    b"\xff\xfe\x00{",
    json.dumps({"thresholds": {"distance_hi": math.inf}}).encode(),
    json.dumps({"thresholds": {"cosine_lo": -5, "cosine_hi": 3}}).encode(),
    json.dumps({"criterion_matrix": [[1, math.inf], [1, 1]]}).encode(),
    json.dumps({"weights": [math.nan, 1, 1, 1, 1]}).encode(),
    json.dumps({"window_mode": "landing", "window_duration_s": 1e308, "default_fps": 30}).encode(),
    json.dumps({"weight_source": "explicit", "weights": "12345"}).encode(),
    json.dumps({"max_gap": "5"}).encode(),
], ids=["nan-window", "non-numeric-weights", "bad-encoding", "infinite-threshold",
        "cosine-out-of-range", "infinite-criterion-matrix", "nan-weights",
        "overflowing-window", "string-weights", "string-max-gap"])
def test_assess_bad_config_exits_one_without_traceback(tmp_path, trial, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_bytes(config)
    assert_fails(assess(trial, "--config", str(path), "--report", str(tmp_path / "r.json")),
                 capsys, "error: ConfigError:")


REFUSED_CONFIGS = {
    "wrong-order": ({"judgment_matrix": [[1, 1], [1, 1]]}, "OrderMismatch"),
    "inconsistent": ({"judgment_matrix": INCONSISTENT_MATRIX}, "ConsistencyFailure"),
    "inconsistent-criterion": ({"hierarchical": True,  # criterion matrix CR 6.13
                                "criterion_matrix": [[1, 9, "1/9"], ["1/9", 1, 9], [9, "1/9", 1]],
                                "criterion_groups": [[0, 1], [2], [3, 4]]},
                               "ConsistencyFailure"),
    "overflowing-window": ({"window_mode": "landing", "window_duration_s": 1e308,
                            "default_fps": 30}, "ConfigError"),
}


@pytest.mark.parametrize("command", ["assess", "batch"])
@pytest.mark.parametrize("name", REFUSED_CONFIGS)
def test_a_refused_config_fails_assess_and_batch_once_before_any_input_is_read(
        tmp_path, capsys, command, name):
    config, error = REFUSED_CONFIGS[name]
    missing = str(tmp_path / "missing")  # an ingest failure if a view were read
    args = ["--config", write_json(tmp_path / "cfg.json", config)]
    if command == "assess":
        args += ["--sagittal", missing, "--frontal", missing]
    else:
        args += ["--trials", trials_file(tmp_path, [(n, (missing, missing)) for n in (1, 2)])]
    err = assert_fails([command, *args], capsys, f"error: {error}: ")
    assert "ingest" not in err


def test_assess_emits_traces(tmp_path, trial):
    assert cli.main(assess(trial, "--report", str(tmp_path / "r.json"),
                           "--traces", str(tmp_path / "traces"))) == 0
    for name in ("p1", "p2", "s1", "s2", "s3", "s4"):
        assert (tmp_path / "traces" / f"{name}.csv").exists()


def test_assess_config_file_settings_flow_into_report(tmp_path, trial):
    config = write_json(tmp_path / "cfg.json", {
        "weight_source": "table5-compat",
        "confidence_threshold": 0.35,
        "thresholds": {"distance_lo": 20.0, "distance_hi": 40.0},
    })
    report_path = tmp_path / "report.json"
    assert cli.main(assess(trial, "--config", config, "--report", str(report_path))) == 0
    data = json.loads(report_path.read_text())
    assert data["config"]["confidence_threshold"] == 0.35
    assert data["config"]["thresholds"]["distance_lo"] == 20.0
    assert data["total"] == pytest.approx(8.9766, abs=1e-3)


def test_assess_window_flag_writes_the_bytes_of_its_config_key(tmp_path, trial):
    config = write_json(tmp_path / "cfg.json", {"window_mode": "landing"})
    for name, args in (("flag", ["--window", "landing"]), ("config", ["--config", config])):
        assert cli.main(assess(trial, *args, "--report", str(tmp_path / f"{name}.json"))) == 0
    flag = (tmp_path / "flag.json").read_bytes()
    assert flag == (tmp_path / "config.json").read_bytes()
    assert json.loads(flag)["config"]["window_mode"] == "landing"


# -- ahp ----------------------------------------------------------------------


def ahp_output(tmp_path, capsys, matrix, *args: str) -> str:
    """The output of ``aclrisk ahp`` on ``matrix``, which exits 0."""
    assert cli.main(["ahp", "--matrix", write_json(tmp_path / "m.json", matrix), *args]) == 0
    return capsys.readouterr().out


def test_ahp_five_index_matrix(tmp_path, capsys):
    out = ahp_output(tmp_path, capsys, [[1, 2, 3, 5, 5],
                                        ["1/2", 1, 2, 3, 4],
                                        ["1/3", "1/2", 1, 3, 2],
                                        ["1/5", "1/3", "1/3", 1, 2],
                                        ["1/5", "1/4", "1/2", "1/2", 1]])
    weights = [float(v) for v in out.splitlines()[0].split(":")[1].split()]
    assert weights == pytest.approx([0.4267, 0.2574, 0.1602, 0.0886, 0.0671], abs=5e-4)
    assert "consistency: PASS" in out
    cr = float(next(line for line in out.splitlines() if line.startswith("CR:")).split()[1])
    assert cr == pytest.approx(0.028, abs=1e-3)


def test_ahp_two_level_matrix(tmp_path, capsys):
    out = ahp_output(tmp_path, capsys, [[1, 3], ["1/3", 1]])
    assert "lambda_max: 2.000000" in out
    assert "CR: 0.000000" in out
    assert "consistency: PASS" in out


def test_ahp_rejects_non_reciprocal(tmp_path, capsys):
    matrix = write_json(tmp_path / "m.json", [[1, 2], [1, 2]])  # two violations, one line
    assert_fails(["ahp", "--matrix", matrix], capsys, "error: InvalidMatrix: diagonal entry "
                 "(1,1) must be 1, got 2; reciprocity violated at (0,1): 2 * 1 != 1\n")


def test_ahp_rejects_boolean_cells(tmp_path, capsys):
    matrix = write_json(tmp_path / "m.json", [[True, 1], [1, True]])
    assert_fails(["ahp", "--matrix", matrix], capsys, "error: InvalidMatrix:")


def test_ahp_geometric_method(tmp_path, capsys):
    out = ahp_output(tmp_path, capsys, [[1, 1, 1]] * 3, "--method", "geometric")
    weights = [float(v) for v in out.splitlines()[0].split(":")[1].split()]
    assert weights == pytest.approx([1 / 3] * 3, abs=1e-6)


# -- synth ----------------------------------------------------------------------


def synth(tmp_path, *args: str, **script) -> Path:
    """The directory that ``aclrisk synth`` of MotionScript(**script) writes, exiting 0."""
    out = tmp_path / "trial"
    path = write_json(tmp_path / "script.json", asdict(motion_synth.MotionScript(**script)))
    assert cli.main(["synth", "--script", path, "--out", str(out), *args]) == 0
    return out


def test_synth_writes_series_and_ground_truth(tmp_path):
    out = synth(tmp_path, n_frames=30, touchdown_frame=8)
    assert (out / "ground_truth.json").exists()
    assert len(list((out / "sagittal").glob("*.json"))) == 30
    assert len(list((out / "frontal").glob("*.json"))) == 30


def test_synth_csv_format(tmp_path):
    out = synth(tmp_path, "--format", "csv", n_frames=12, touchdown_frame=3)
    assert len(pi.read_series_csv(out / "sagittal.csv")) == 12


def test_synth_invalid_script_exits_one(tmp_path, capsys):
    script = write_json(tmp_path / "script.json",
                        {"n_frames": 10, "touchdown_frame": 10})
    assert_fails(["synth", "--script", script, "--out", str(tmp_path / "t")], capsys,
                 "error: InvalidScript:")


def test_synth_output_assesses_to_ground_truth_grades(tmp_path, capsys):
    out = synth(tmp_path, n_frames=60, touchdown_frame=15,
                peak_knee_flexion_deg=45.0, peak_hip_flexion_deg=65.0,
                peak_lateral_lean_deg=40.0,
                stance_ankle_width_px=150.0, knee_offset_px=35.0, shoulder_width_px=110.0)
    truth = json.loads((out / "ground_truth.json").read_text())
    expected = (
        scoring.grade_cosine_sagittal(truth["p1"]),
        scoring.grade_cosine_sagittal(truth["p2"]),
        scoring.grade_cosine_frontal(truth["s4_peak"]),
        scoring.grade_distance(truth["d1"]),
        scoring.grade_distance(truth["d2"]),
    )
    report_path = tmp_path / "report.json"
    assert cli.main(assess((str(out / "sagittal"), str(out / "frontal")),
                           "--report", str(report_path))) == 0
    grades = json.loads(report_path.read_text())["grades"]
    assert (grades["x1"], grades["x2"], grades["x3"], grades["x4"], grades["x5"]) == expected


# -- batch ------------------------------------------------------------------------


def test_batch_summary_and_reports(tmp_path, trial):
    trials = trials_file(tmp_path, [(1, trial), (2, trial)])
    out = tmp_path / "reports"
    summary = tmp_path / "summary.csv"
    rc = cli.main(["batch", "--trials", trials, "--out", str(out),
                   "--summary", str(summary)])
    assert rc == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "number,x1,x2,x3,x4,x5,total"
    assert len(lines) == 3
    assert (out / "report_1.json").exists()
    assert (out / "report_2.json").exists()


def test_batch_fails_once_on_an_inconsistent_matrix(tmp_path, trial, capsys):
    trials = trials_file(tmp_path, [(n, trial) for n in (1, 2, 3)])
    config = write_json(tmp_path / "cfg.json", {"judgment_matrix": INCONSISTENT_MATRIX})
    assert_fails(["batch", "--trials", trials, "--config", config], capsys,
                 "error: ConsistencyFailure:")


def test_batch_refuses_a_repeated_trial_number(tmp_path, trial, capsys):
    trials = trials_file(tmp_path, [(n, trial) for n in (1, 2, 1)])
    out = tmp_path / "reports"
    err = assert_fails(["batch", "--trials", trials, "--out", str(out)], capsys)
    assert err == "error: MalformedDocument: trials entries 0 and 2 both have number 1\n"
    assert not out.exists()


def test_batch_isolates_bad_trial(tmp_path, trial, capsys):
    trials = trials_file(tmp_path, [(1, trial), (2, (str(tmp_path / "gone"), trial[1]))])
    rc = cli.main(["batch", "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 1
    assert len(captured.out.splitlines()) == 2  # header + one surviving trial
    assert "trial 2 failed at ingest" in captured.err


def with_cell(csv_path, target, value: str, column: int = 1, lines=(31,)) -> str:
    """A copy at ``target`` of a CSV view whose cell ``column`` holds ``value`` in each of
    ``lines`` (0-based: 31 is frame 30, in file line 32)."""
    text = Path(csv_path).read_text().splitlines(True)
    for i in lines:
        cells = text[i].split(",")
        cells[column] = value
        text[i] = ",".join(cells)
    Path(target).write_text("".join(text))
    return str(target)


def out_of_bound(csv_path, target) -> str:
    """A copy of a CSV view whose frame-30 left-ankle x (line 32) is past the ±1e6 px bound."""
    return with_cell(csv_path, target, "1e300", column=1 + 3 * pi.L_ANKLE)


def test_batch_writes_the_reports_of_assess_and_a_line_per_failed_trial(tmp_path, trial,
                                                                       capsys):
    good = {1: trial, 3: write_trial(tmp_path, poor_script(), "t3")[:2]}
    trials = trials_file(tmp_path, sorted(
        {**good, 2: (trial[0], out_of_bound(trial[1], tmp_path / "bound.csv"))}.items()))
    out, summary = tmp_path / "reports", tmp_path / "summary.csv"
    rc = cli.main(["batch", "--trials", trials, "--out", str(out), "--summary", str(summary)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "trial 2 failed at ingest: SeriesParseError: 1 frame(s) failed to parse: "
        "bound.csv:32: keypoint coordinates must lie within ±1e6 px\n")
    assert [line.split(",")[0] for line in summary.read_text().splitlines()] == [
        "number", "1", "3"]
    assert sorted(os.listdir(out)) == ["report_1.json", "report_3.json"]
    for n, views in good.items():
        report = tmp_path / f"assess_{n}.json"
        assert cli.main(assess(views, "--number", str(n), "--report", str(report))) == 0
        assert (out / f"report_{n}.json").read_bytes() == report.read_bytes()


# -- corrupt input files of ahp, synth and batch ---------------------------------

BAD_FILES = {
    "utf16-bom": b"\xff\xfe\x00{",
    "not-utf8": b"[[1, \x80]]",
    "deep": b"[" * 100000,
    "invalid-json": b"[[1, 3], ",
}

COMMANDS = {"ahp": ["--matrix"], "synth": ["--script"], "batch": ["--trials"]}


@pytest.mark.parametrize("content", BAD_FILES.values(), ids=BAD_FILES.keys())
@pytest.mark.parametrize("command", COMMANDS)
def test_undecodable_input_file_exits_one_without_traceback(tmp_path, capsys, command,
                                                            content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    args = [command, *COMMANDS[command], str(path)]
    if command == "synth":
        args += ["--out", str(tmp_path / "out")]
    assert_fails(args, capsys)


BAD_TRIALS = {
    "not-a-list": {"number": 1, "sagittal": "s", "frontal": "f"},
    "entry-not-object": [3],
    "entry-missing-key": [{"number": 2, "sagittal": "s"}],
    "number-text": [{"number": "x", "sagittal": "s", "frontal": "f"}],
    "number-fraction": [{"number": 2.5, "sagittal": "s", "frontal": "f"}],
    "number-bool": [{"number": True, "sagittal": "s", "frontal": "f"}],
    "number-long-text": [{"number": "x" * 3000, "sagittal": "s", "frontal": "f"}],
    "path-not-text": [{"number": 2, "sagittal": ["s"], "frontal": "f"}],
}


@pytest.mark.parametrize("entries", BAD_TRIALS.values(), ids=BAD_TRIALS.keys())
def test_bad_trials_entry_exits_one_without_traceback(tmp_path, trial, capsys, entries):
    if isinstance(entries, list):  # a good trial first: the whole file is refused
        entries = [{"number": 1, "sagittal": trial[0], "frontal": trial[1]}, *entries]
    trials = write_json(tmp_path / "trials.json", entries)
    err = assert_fails(["batch", "--trials", trials], capsys)
    assert len(err) < 300


@pytest.mark.parametrize("script", [
    {"n_frames": "x"}, {"fps": None}, {"fps": math.nan}, {"seed": -1, "noise_sigma_px": 1.0},
    {"n_frames": 10**400},
], ids=["text-frames", "null-fps", "nan-fps", "negative-seed", "401-digit-frames"])
def test_synth_bad_script_value_exits_one_without_traceback(tmp_path, capsys, script):
    path = write_json(tmp_path / "script.json", script)
    assert_fails(["synth", "--script", path, "--out", str(tmp_path / "out")], capsys,
                 "error: InvalidScript:")


LONG = "x" * 5000


def long_keypoint_entry(tmp, sag, fro):
    frame = sorted(Path(sag).iterdir())[5]
    doc = json.loads(frame.read_text())
    doc["people"][0]["pose_keypoints_2d"][0] = LONG
    frame.write_text(json.dumps(doc))
    return ["assess", "--sagittal", sag, "--frontal", fro]


LONG_INPUTS = {  # the arguments of a command whose input holds one 5000-character value
    "config-key": lambda tmp, sag, fro: [
        "assess", "--sagittal", sag, "--frontal", fro,
        "--config", write_json(tmp / "cfg.json", {LONG: 1})],
    "script-key": lambda tmp, sag, fro: [
        "synth", "--script", write_json(tmp / "s.json", {LONG: 1}), "--out", str(tmp / "o")],
    "script-value": lambda tmp, sag, fro: [
        "synth", "--script", write_json(tmp / "s.json", {"fps": LONG}), "--out", str(tmp / "o")],
    "matrix-cell": lambda tmp, sag, fro: [
        "ahp", "--matrix", write_json(tmp / "m.json", [["1/" + LONG[2:]]])],
    "openpose-entry": long_keypoint_entry,
    "csv-cell": lambda tmp, sag, fro: ["assess", "--sagittal", sag,
                                       "--frontal", with_cell(fro, fro, LONG)],
}


@pytest.mark.parametrize("make_args", LONG_INPUTS.values(), ids=LONG_INPUTS.keys())
def test_an_error_line_cuts_a_long_input_value(tmp_path, trial, capsys, make_args):
    err = assert_fails(make_args(tmp_path, *trial), capsys, "error: ")
    assert len(err) < 300


def test_an_error_line_names_five_failing_lines_and_counts_the_rest(tmp_path, capsys):
    sagittal, frontal, _ = motion_synth.generate(
        motion_synth.MotionScript(n_frames=90, touchdown_frame=30))
    sag, fro = tmp_path / "sagittal.csv", tmp_path / "frontal.csv"
    pi.write_series_csv(sagittal, sag)
    pi.write_series_csv(frontal, fro)
    with_cell(sag, sag, "x" * 100, lines=range(1, 91))  # a bad cell in every data line
    err = assert_fails(assess((str(sag), str(fro))), capsys,
                       "error: SeriesParseError: [ingest] 90 frame(s) failed to parse: ")
    assert len(err) < 1000
    assert [line for line in range(2, 92) if f"sagittal.csv:{line}:" in err] == [2, 3, 4, 5, 6]
    assert err.endswith("; and 85 more\n")


# -- aclrisk as a process ----------------------------------------------------------


def run_cli(*args: str, env: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    """``aclrisk ARGS`` run from this tree as a child process, its output piped; at most 60 s."""
    return subprocess.run([sys.executable, "-m", "aclrisk.cli", *args], env=child_env(**env or {}),
                          capture_output=True, timeout=60, **kwargs)


def test_a_process_that_fails_exits_one_with_one_error_line(tmp_path, csv_trials):
    # on 2 CPUs a kept worker reads the frontal view, and writes to the same stderr
    sag, fro = csv_trials[300]
    proc = run_cli("assess", "--sagittal", sag,
                   "--frontal", out_of_bound(fro, tmp_path / "frontal.csv"))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (
        "error: SeriesParseError: [ingest] 1 frame(s) failed to parse: frontal.csv:32: "
        "keypoint coordinates must lie within ±1e6 px\n")


def test_an_aclrisk_variable_in_the_environment_changes_no_byte(tmp_path, trial):
    # settings come from the config file and the flags alone, at import as at run time
    report = tmp_path / "report.json"
    assert cli.main(assess(trial, "--report", str(report))) == 0
    proc = run_cli(*assess(trial), env={"ACLRISK_WEIGHT_SOURCE": "table5-compat"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == report.read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity to pin a process to one CPU")
def test_a_long_piped_trial_gives_the_bytes_of_a_run_on_one_cpu(tmp_path, csv_trials):
    # the report goes to a pipe, which reaches its end only once no kept worker holds
    # it; both runs write to one --traces directory, since the report holds its paths
    sag, fro = csv_trials[3000]
    traces = tmp_path / "traces"
    cpu = min(os.sched_getaffinity(0))
    runs = []
    for pin in (None, lambda: os.sched_setaffinity(0, {cpu})):
        proc = run_cli("assess", "--sagittal", sag, "--frontal", fro, "--traces", str(traces),
                       preexec_fn=pin)
        assert (proc.returncode, proc.stderr) == (0, b"")
        runs.append((proc.stdout, {p.name: p.read_bytes() for p in traces.iterdir()}))
        shutil.rmtree(traces)
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == [f"{name}.csv" for name in ("p1", "p2", "s1", "s2", "s3", "s4")]


def test_no_text_file_depends_on_the_locale(tmp_path):
    # an EncodingWarning is a text file opened without an encoding, which the locale picks
    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "aclrisk.cli", *args],
                              env=child_env(), capture_output=True, timeout=60)

    script, trial = tmp_path / "script.json", tmp_path / "trial"
    script.write_text(json.dumps({"n_frames": 60, "touchdown_frame": 20}), encoding="utf-8")
    sag, fro = str(trial / "sagittal.csv"), str(trial / "frontal.csv")
    trials = tmp_path / "trials.json"
    trials.write_text(json.dumps([{"number": 1, "sagittal": sag, "frontal": fro}]),
                      encoding="utf-8")
    for args in (["synth", "--script", str(script), "--out", str(trial), "--format", "csv"],
                 ["assess", "--sagittal", sag, "--frontal", fro,
                  "--traces", str(tmp_path / "traces")],
                 ["batch", "--trials", str(trials), "--summary", str(tmp_path / "summary.csv"),
                  "--out", str(tmp_path / "reports")]):
        proc = run(*args)
        assert (args[0], proc.returncode, proc.stderr) == (args[0], 0, b"")
