"""Byte-identity gates: report and trace bytes pinned on fixed trials.

The pinned values are the first 16 hex digits of the sha256 of the
canonical JSON report and of each of the six trace files, as the
per-frame ``SkeletonFrame`` implementation wrote them before the
series became one ``(n, 25, 3)`` array. Any change to ingest,
preprocessing, windowing, extraction or emission that moves a single
bit of these outputs fails here. The pins for non-default configs
were computed with the hand-written serializers, before the report and
config snapshot were derived from the dataclass fields.

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
from aclrisk.config import RunConfig, config_from_dict

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


def output_digests(fmt: str, cfg: RunConfig, traces: str) -> dict[str, str]:
    """Assess the trial in the working directory; digest its outputs."""
    suffix = ".csv" if fmt == "csv" else ""
    report = assessment.assess_trial(f"{pi.SAGITTAL}{suffix}", f"{pi.FRONTAL}{suffix}", cfg)
    refs = assessment.emit_traces(report, traces)
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
    digests = output_digests(fmt, RunConfig(window_mode=mode), f"traces_{fmt}_{mode}")
    assert digests == PINNED[(trial, fmt, mode)]


# Non-default configs, written as config files would hold them. The
# report carries the config snapshot, so these pins also hold the
# snapshot's bytes for every kind of field: matrices, lists of lists,
# nested thresholds and explicit weights.
CONFIGS = {
    "geometric-hierarchical": {
        "weight_source": "geometric", "hierarchical": True,
        "criterion_matrix": [[1, 3], ["1/3", 1]],
        "criterion_groups": [[0, 1], [2, 3, 4]],
    },
    "explicit": {
        "weight_source": "explicit", "weights": [0.3, 0.25, 0.2, 0.15, 0.1],
    },
    "normalized": {
        "thresholds": {"distance_lo": 0.1, "distance_hi": 0.15,
                       "normalize_by_shoulder": True},
    },
    "left": {"sagittal_side": "left"},
    "confidence": {"confidence_threshold": 0.35},
}

PINNED_CONFIGS = {
    ("criterion9", "confidence"): {
        "report": "e24600cb06261f79",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "explicit"): {
        "report": "5223ec29db398426",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "geometric-hierarchical"): {
        "report": "4833529b39ebafef",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "left"): {
        "report": "216def1895e8a0ab",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("criterion9", "normalized"): {
        "report": "22551426e4a5ec36",
        "p1": "e429f1b06abb1024", "p2": "a492779a16fad5ce",
        "s1": "113e5e2026886d5f", "s2": "113e5e2026886d5f",
        "s3": "846de8bbdb651ec5", "s4": "2ed99dee3b531f3e",
    },
    ("noisy3000", "confidence"): {
        "report": "b8c07a0eb2ae5a23",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "explicit"): {
        "report": "65932d34a8d7492e",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "geometric-hierarchical"): {
        "report": "932ac3cc837bd992",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "left"): {
        "report": "aa38dffd21e86b81",
        "p1": "9cf5e428d76f5a4d", "p2": "6ffd6916aadde793",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
    ("noisy3000", "normalized"): {
        "report": "9a96d5018e11dee5",
        "p1": "c7762271bcdc2cf0", "p2": "397784507ef66015",
        "s1": "5f39dd00d88a7780", "s2": "b1ca73011948077b",
        "s3": "b4030a432a9bbfc5", "s4": "47c44c5ff7feaf99",
    },
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_non_default_configs_match_pinned_bytes(trial, config, trial_dirs, monkeypatch):
    monkeypatch.chdir(trial_dirs[trial])
    digests = output_digests("csv", config_from_dict(CONFIGS[config]), f"traces_{config}")
    assert digests == PINNED_CONFIGS[(trial, config)]
