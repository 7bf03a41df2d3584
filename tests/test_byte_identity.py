"""Byte-identity gates: report and trace bytes pinned on fixed trials.

The pinned values are the first 16 hex digits of the sha256 of the
canonical JSON report and of each of the six trace files, as the
per-frame ``SkeletonFrame`` implementation wrote them before the
series became one ``(n, 25, 3)`` array. Any change to ingest,
preprocessing, windowing, extraction or emission that moves a single
bit of these outputs fails here.

Trials run from inside their directory with relative paths, because
the report records its input and trace paths.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from aclrisk import assessment, motion_synth
from aclrisk import pose_ingest as pi
from aclrisk.config import RunConfig

TRIALS = {
    # criterion 9 of the acceptance suite
    "criterion9": motion_synth.MotionScript(
        n_frames=300, touchdown_frame=60,
        peak_knee_flexion_deg=66.0, peak_hip_flexion_deg=58.0,
        peak_lateral_lean_deg=18.0),
    # long noisy trial, the size of the long_csv benchmark workload
    "noisy3000": motion_synth.MotionScript(
        n_frames=3000, touchdown_frame=45,
        peak_knee_flexion_deg=72.0, peak_hip_flexion_deg=48.0,
        peak_lateral_lean_deg=12.0, knee_offset_px=18.0,
        stance_ankle_width_px=120.0, shoulder_width_px=150.0,
        noise_sigma_px=0.5, seed=2024),
}

FORMATS = ("csv", "json")
MODES = ("full", "landing")

PINNED = {
    ("criterion9", "csv", "full"): {
        "report": "c5b34a4435252870",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "csv", "landing"): {
        "report": "efb9d20ad1f6482e",
        "p1": "8c59f29a9b1489e8", "p2": "eef964a4d61a6e1e",
        "s1": "6794b69670dd7add", "s2": "6794b69670dd7add",
        "s3": "5c53b9c8f27eff23", "s4": "5bd5270f16fa8fd1",
    },
    ("criterion9", "json", "full"): {
        "report": "b99379b697a70931",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "json", "landing"): {
        "report": "6b04a23c1d67af46",
        "p1": "8c59f29a9b1489e8", "p2": "eef964a4d61a6e1e",
        "s1": "6794b69670dd7add", "s2": "6794b69670dd7add",
        "s3": "5c53b9c8f27eff23", "s4": "5bd5270f16fa8fd1",
    },
    ("noisy3000", "csv", "full"): {
        "report": "53dad71566b9cef0",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "csv", "landing"): {
        "report": "43d88305540c87a9",
        "p1": "eb61b4032ad09c05", "p2": "6aba943f4e7eae59",
        "s1": "3e72fe1c0b4bf1b0", "s2": "17b1d8889154533e",
        "s3": "acdf772339fc1abd", "s4": "ac4bbe0aec6162db",
    },
    ("noisy3000", "json", "full"): {
        "report": "147477be2287ad2e",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "json", "landing"): {
        "report": "68444716260cbd71",
        "p1": "eb61b4032ad09c05", "p2": "6aba943f4e7eae59",
        "s1": "3e72fe1c0b4bf1b0", "s2": "17b1d8889154533e",
        "s3": "acdf772339fc1abd", "s4": "ac4bbe0aec6162db",
    },
}


def write_inputs(directory: Path, script: motion_synth.MotionScript) -> None:
    """Both views as CSV files and as OpenPose directories.

    Coordinates are rounded to 1/1024 px, so the files do not depend on
    the last bits of the platform's trigonometric functions.
    """
    sagittal, frontal, _ = motion_synth.generate(script)
    for view, series in ((pi.SAGITTAL, sagittal), (pi.FRONTAL, frontal)):
        series.keypoints[:, :, :2] = np.round(series.keypoints[:, :, :2] * 1024.0) / 1024.0
        pi.write_series_csv(series, directory / f"{view}.csv")
        pi.write_series_openpose(series, directory / view)


def output_digests(fmt: str, mode: str) -> dict[str, str]:
    """Assess the trial in the working directory; digest its outputs."""
    suffix = ".csv" if fmt == "csv" else ""
    report = assessment.assess_trial(f"{pi.SAGITTAL}{suffix}", f"{pi.FRONTAL}{suffix}",
                                     RunConfig(window_mode=mode))
    refs = assessment.emit_traces(report, f"traces_{fmt}_{mode}")
    blobs = {"report": assessment.report_to_json(report)}
    blobs.update((name, Path(ref).read_bytes()) for name, ref in refs.items())
    return {name: hashlib.sha256(blob).hexdigest()[:16] for name, blob in blobs.items()}


@pytest.fixture(scope="module")
def trial_dirs(tmp_path_factory):
    dirs = {}
    for name, script in TRIALS.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        write_inputs(dirs[name], script)
    return dirs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_outputs_match_pinned_bytes(trial, fmt, mode, trial_dirs, monkeypatch):
    monkeypatch.chdir(trial_dirs[trial])
    assert output_digests(fmt, mode) == PINNED[(trial, fmt, mode)]
