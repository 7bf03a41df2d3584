"""A whole-pipeline property: every trial ends in a finite report or one typed error.

Hypothesis draws a synthetic trial (30-200 frames, jitter from 0 to 4 px),
applies one mutation that real OpenPose output or a damaged file can
carry, writes it as CSV and as an OpenPose directory, and assesses it in
full and in landing mode. Each run must return a report whose numbers
are all finite and which serializes as canonical JSON, or raise one
``AclRiskError`` whose stage is a documented stage; nothing else may
escape, a numpy warning included. A forked run and an in-process run
give the same bytes, and the two formats of one series give the same
report (apart from the input paths), for every mutation both can carry.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from aclrisk import assessment, motion_synth
from aclrisk import pose_ingest as pi
from aclrisk.config import RunConfig
from aclrisk.errors import AclRiskError

STAGES = ("config", "weights", "ingest", "preprocess", "window", "extract", "grade",
          "aggregate", "emit")
MODES = ("full", "landing")
FORMATS = ("csv", "openpose")

MUTATIONS = (
    "none",
    "empty frames",             # frames in which nobody was detected
    "missing frames",           # frame files or CSV lines that are not there
    "bystander",                # a second person in one frame (OpenPose only)
    "spike",                    # one keypoint jumps for one frame
    "out-of-bound coordinate",  # past the ingest bound
    "huge coordinate",          # within the ingest bound, far off any camera frame
    "zero-length limb",         # knee on hip for one frame
    "repeated frame",           # one frame number given twice
    "swapped legs",             # the left and right leg trade places for one frame
)


@dataclass
class View:
    """One view as written: rows of 75 values and their frame numbers.

    A row of zeros is a frame with nobody in it; ``bystanders`` maps a row
    to a second person's 75 values, listed first or last in that frame.
    """

    keypoints: np.ndarray
    frames: list[int]
    bystanders: dict[int, tuple[list[float], bool]] = field(default_factory=dict)

    def write(self, path: Path) -> None:
        """Write the view as a CSV file if ``path`` ends in .csv, else as an OpenPose directory."""
        rows = self.keypoints.reshape(len(self.frames), -1).tolist()
        if path.suffix == ".csv":
            lines = [",".join(pi._CSV_HEADER)]
            lines += [",".join([str(f), *map(repr, row)]) for f, row in zip(self.frames, rows)]
            path.write_text("\n".join(lines) + "\n")
            return
        path.mkdir()
        for i, (frame, row) in enumerate(zip(self.frames, rows)):
            people = [{"pose_keypoints_2d": row}] if any(row) else []
            if i in self.bystanders:
                other, first = self.bystanders[i]
                people.insert(0 if first else len(people), {"pose_keypoints_2d": other})
            name = f"frame_{frame:012d}_keypoints.json"
            if (path / name).exists():  # a repeated frame number: same digits, new name
                name = f"frame_{frame:012d}_keypoints_again.json"
            (path / name).write_text(json.dumps({"people": people}))


@dataclass
class Trial:
    sagittal: View
    frontal: View
    mutation: str


@st.composite
def trials(draw) -> Trial:
    n = draw(st.integers(30, 200))
    script = motion_synth.MotionScript(
        n_frames=n,
        touchdown_frame=draw(st.integers(1, n - 2)),
        peak_knee_flexion_deg=draw(st.floats(0.0, 120.0)),
        peak_hip_flexion_deg=draw(st.floats(0.0, 120.0)),
        peak_lateral_lean_deg=draw(st.floats(0.0, 40.0)),
        knee_offset_px=draw(st.floats(0.0, 60.0)),
        noise_sigma_px=draw(st.just(0.0) | st.floats(0.0, 4.0)),
        seed=draw(st.integers(0, 2**16)))
    views = {name: View(series.keypoints.copy(), series.frame_index.tolist())
             for name, series in zip(pi.VIEWS, motion_synth.generate(script)[:2])}
    mutation = draw(st.sampled_from(MUTATIONS))
    view = views[draw(st.sampled_from(pi.VIEWS))]
    kp = view.keypoints
    row = draw(st.integers(0, n - 1))
    required = sorted(pi.required_keypoints(pi.FRONTAL))  # every leg, trunk and shoulder point
    if mutation == "empty frames":
        kp[row:row + draw(st.integers(1, 8))] = 0.0
    elif mutation == "missing frames":
        gone = range(row, min(n, row + draw(st.integers(1, 8))))
        view.keypoints = np.delete(kp, gone, axis=0)
        view.frames = [f for i, f in enumerate(view.frames) if i not in gone]
    elif mutation == "bystander":
        other = kp[row].copy()
        other[:, :2] += draw(st.floats(-300.0, 300.0))
        other[:, 2] = np.minimum(1.0, other[:, 2] * draw(st.floats(0.1, 1.5)))
        view.bystanders[row] = (other.reshape(-1).tolist(), draw(st.booleans()))
    elif mutation == "spike":
        kp[row, draw(st.sampled_from(required)), draw(st.integers(0, 1))] += draw(
            st.floats(-300.0, 300.0))
    elif mutation == "out-of-bound coordinate":
        kp[row, draw(st.integers(0, pi.N_KEYPOINTS - 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([1e6 + 1.0, -2e6, 1e300, -1e300]))
    elif mutation == "huge coordinate":
        kp[row, draw(st.sampled_from(required)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([1.0, -1.0])) * draw(st.floats(1e5, 1e6))
    elif mutation == "zero-length limb":
        kp[row, pi.R_KNEE] = kp[row, pi.R_HIP]
    elif mutation == "repeated frame":
        view.frames[max(row, 1)] = view.frames[max(row, 1) - 1]
    elif mutation == "swapped legs":
        right, left = list(pi.LEGS["right"]), list(pi.LEGS["left"])
        kp[row, right + left] = kp[row, left + right]
    return Trial(views[pi.SAGITTAL], views[pi.FRONTAL], mutation)


def finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(map(finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def outcome(sagittal: str, frontal: str, mode: str):
    """A run's report bytes, or the (type, stage, message) of the one error it raised."""
    try:
        report = assessment.assess_trial(sagittal, frontal, RunConfig(window_mode=mode))
    except AclRiskError as exc:
        assert exc.stage in STAGES, exc
        return type(exc).__name__, exc.stage, exc.message
    data = assessment.report_to_json(report)
    assert finite_numbers(json.loads(data))
    return data


def without_inputs(result):
    """A report with its input paths removed, or an error's type and stage."""
    if isinstance(result, tuple):
        return result[:2]
    report = json.loads(result)
    del report["config"]["inputs"]
    return report


@settings(max_examples=60, deadline=None)
@given(trials())
def test_a_trial_ends_in_a_finite_report_or_one_typed_error(trial):
    results = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in FORMATS:
            if fmt == "csv" and trial.mutation == "bystander":
                continue
            (Path(tmp) / fmt).mkdir()
            paths = [str(Path(tmp) / fmt / (name + (".csv" if fmt == "csv" else "")))
                     for name in pi.VIEWS]
            trial.sagittal.write(Path(paths[0]))
            trial.frontal.write(Path(paths[1]))
            for mode in MODES:
                forked = outcome(*paths, mode)
                with mock.patch.object(assessment, "_usable_cpus", lambda: 1):
                    assert outcome(*paths, mode) == forked
                results[fmt, mode] = without_inputs(forked)
    if trial.mutation != "bystander":
        for mode in MODES:
            assert results["csv", mode] == results["openpose", mode]
