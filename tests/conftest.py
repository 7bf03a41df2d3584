from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

from aclrisk import assessment, motion_synth
from aclrisk import pose_ingest as pi

# pairwise comparison of the two criterion groups (sagittal vs frontal)
CRITERION_MATRIX = np.array([[1, 3], [1 / 3, 1]], dtype=float)


def make_series(frames: list[dict[int, tuple[float, float]]],
                frame_index=None) -> pi.KeypointSeries:
    """Series whose frame t holds the keypoints listed in ``frames[t]``.

    Listed keypoints get confidence 1; everything else is (0, 0, 0). Frame
    indices default to 0..n-1.
    """
    kp = np.zeros((len(frames), pi.N_KEYPOINTS, 3))
    for t, points in enumerate(frames):
        for i, (x, y) in points.items():
            kp[t, i] = (x, y, 1.0)
    index = np.arange(len(frames)) if frame_index is None else np.asarray(frame_index)
    return pi.KeypointSeries(keypoints=kp, frame_index=index)


def upright_sagittal_points(x: float = 300.0) -> dict[int, tuple[float, float]]:
    """Straight standing pose seen from the side: one vertical chain."""
    return {
        pi.NECK: (x, 120.0),
        pi.MID_HIP: (x, 300.0),
        pi.R_HIP: (x, 300.0),
        pi.R_KNEE: (x, 450.0),
        pi.R_ANKLE: (x, 600.0),
    }


def upright_frontal_points(
    ankle_width: float = 110.0,
    knee_width: float = 110.0,
    shoulder_width: float = 110.0,
    cx: float = 300.0,
) -> dict[int, tuple[float, float]]:
    """Standing pose seen from the front; widths in pixels."""
    return {
        pi.NECK: (cx, 120.0),
        pi.R_SHOULDER: (cx - shoulder_width / 2, 140.0),
        pi.L_SHOULDER: (cx + shoulder_width / 2, 140.0),
        pi.MID_HIP: (cx, 300.0),
        pi.R_HIP: (cx - knee_width / 2, 300.0),
        pi.L_HIP: (cx + knee_width / 2, 300.0),
        pi.R_KNEE: (cx - knee_width / 2, 450.0),
        pi.L_KNEE: (cx + knee_width / 2, 450.0),
        pi.R_ANKLE: (cx - ankle_width / 2, 600.0),
        pi.L_ANKLE: (cx + ankle_width / 2, 600.0),
    }


def transform_series(series: pi.KeypointSeries, scale: float = 1.0,
                     angle_rad: float = 0.0,
                     offset: tuple[float, float] = (0.0, 0.0)) -> pi.KeypointSeries:
    """Scale, rotate about the origin, then translate every detected keypoint."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    rot = np.array([[c, -s], [s, c]])
    kp = series.keypoints.copy()
    present = ~pi.undetected(kp)
    kp[present, :2] = (scale * kp[present, :2]) @ rot.T + np.asarray(offset)
    return pi.KeypointSeries(keypoints=kp, frame_index=series.frame_index.copy())


def child_env(**variables: str) -> dict[str, str]:
    """This process's environment plus ``variables``, with the tree under test first on
    PYTHONPATH: a child Python process imports the aclrisk these tests import."""
    src = str(Path(assessment.__file__).resolve().parents[1])
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def series_equal(a: pi.KeypointSeries, b: pi.KeypointSeries) -> bool:
    return (np.array_equal(a.frame_index, b.frame_index)
            and np.array_equal(a.keypoints, b.keypoints))


@pytest.fixture(scope="session")
def csv_trials(tmp_path_factory) -> dict[int, tuple[str, str]]:
    """Noisy CSV trials of 300 and 3000 frames, by frame count."""
    trials = {}
    for n_frames in (300, 3000):
        directory = tmp_path_factory.mktemp(f"frames_{n_frames}")
        script = motion_synth.MotionScript(n_frames=n_frames, touchdown_frame=40,
                                           noise_sigma_px=0.5, seed=7)
        sagittal, frontal, _ = motion_synth.generate(script)
        trials[n_frames] = (str(directory / "sagittal.csv"), str(directory / "frontal.csv"))
        pi.write_series_csv(sagittal, trials[n_frames][0])
        pi.write_series_csv(frontal, trials[n_frames][1])
    return trials


@pytest.fixture(autouse=True)
def fresh_workers():
    """Close the kept workers before and after each test.

    A worker forked inside a test sees the test's monkeypatches, and none
    outlives the test that forked it.
    """
    assessment._close_pool()
    yield
    assessment._close_pool()


def counting_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Make every call of ``owner.name`` append its arguments to the returned list."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls
