"""Kinematic feature extraction from preprocessed keypoint series.

Sagittal view (default right side, ``side="left"`` mirrors the indices):

* thigh vector  = hip - knee
* shank vector  = ankle - knee
* trunk vector  = mid-hip - neck (points down the torso)

``p1`` is the peak cosine between thigh and shank (the complement of the
knee flexion angle: full extension gives -1, deeper flexion moves toward
+1) and ``p2`` the peak cosine between thigh and trunk vector.

Frontal view:

* ``s1`` ankle-to-ankle distance, ``s2`` knee-to-knee, ``s3`` shoulder width
* ``s4`` mean cosine between the trunk-down vector and the two thigh-up
  vectors; an upright stance gives -1, lateral lean moves toward +1
* ``d1 = max |s1 - s2|``, ``d2 = max |s1 - s3|`` (pixels)

All maxima are taken over an analysis window: the whole series by
default, or a landing window anchored at the detected touchdown frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pose_ingest as pi
from .errors import DegenerateVector, WindowEmpty

DEGENERACY_EPSILON = 1e-9  # pixels; vectors shorter than this are a data fault

WINDOW_FULL = "full"
WINDOW_LANDING = "landing"
DEFAULT_LANDING_DURATION_S = 1.0
DEFAULT_FPS = 30.0


@dataclass
class SagittalFeatures:
    p1: float
    p2: float
    p1_trace: np.ndarray
    p2_trace: np.ndarray
    frame_indices: np.ndarray


@dataclass
class FrontalFeatures:
    d1: float
    d2: float
    s4_peak: float
    s1_trace: np.ndarray
    s2_trace: np.ndarray
    s3_trace: np.ndarray
    s4_trace: np.ndarray
    frame_indices: np.ndarray


def _window_slice(series: pi.KeypointSeries,
                  window: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """(n, 25, 2) keypoint coordinates and (n,) frame indices in the window."""
    start, end = (0, len(series) - 1) if window is None else window
    xy = series.keypoints[start:end + 1, :, :2]
    if not len(xy):
        raise WindowEmpty("analysis window contains no frames")
    return xy, series.frame_index[start:end + 1]


def _cos_series(a: np.ndarray, b: np.ndarray, frame_index: np.ndarray,
                what: str) -> np.ndarray:
    """Rowwise clamped cosine between (n,2) vector stacks a and b."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    bad = (na < DEGENERACY_EPSILON) | (nb < DEGENERACY_EPSILON)
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateVector(
            f"{what}: zero-length vector at frame {frame_index[i]}")
    return np.clip((a * b).sum(axis=1) / (na * nb), -1.0, 1.0)


def extract_sagittal(
    series: pi.KeypointSeries,
    window: tuple[int, int] | None = None,
    side: str = "right",
) -> SagittalFeatures:
    """Per-frame knee/hip flexion cosines and their window maxima."""
    kp, frame_index = _window_slice(series, window)
    hip, knee, ankle = pi.LEGS[side]
    thigh = kp[:, hip] - kp[:, knee]
    shank = kp[:, ankle] - kp[:, knee]
    trunk = kp[:, pi.MID_HIP] - kp[:, pi.NECK]
    p1_trace = _cos_series(thigh, shank, frame_index, "thigh/shank")
    p2_trace = _cos_series(thigh, trunk, frame_index, "thigh/trunk")
    return SagittalFeatures(
        p1=float(p1_trace.max()),
        p2=float(p2_trace.max()),
        p1_trace=p1_trace,
        p2_trace=p2_trace,
        frame_indices=frame_index,
    )


def extract_frontal(
    series: pi.KeypointSeries,
    window: tuple[int, int] | None = None,
) -> FrontalFeatures:
    """Stance-width distances and trunk/thigh alignment cosine per frame."""
    kp, frame_index = _window_slice(series, window)
    s1 = np.linalg.norm(kp[:, pi.L_ANKLE] - kp[:, pi.R_ANKLE], axis=1)
    s2 = np.linalg.norm(kp[:, pi.L_KNEE] - kp[:, pi.R_KNEE], axis=1)
    s3 = np.linalg.norm(kp[:, pi.L_SHOULDER] - kp[:, pi.R_SHOULDER], axis=1)
    trunk = kp[:, pi.MID_HIP] - kp[:, pi.NECK]
    thigh_r = kp[:, pi.R_HIP] - kp[:, pi.R_KNEE]
    thigh_l = kp[:, pi.L_HIP] - kp[:, pi.L_KNEE]
    s4 = 0.5 * (_cos_series(trunk, thigh_r, frame_index, "trunk/right thigh")
                + _cos_series(trunk, thigh_l, frame_index, "trunk/left thigh"))
    return FrontalFeatures(
        d1=float(np.abs(s1 - s2).max()),
        d2=float(np.abs(s1 - s3).max()),
        s4_peak=float(s4.max()),
        s1_trace=s1,
        s2_trace=s2,
        s3_trace=s3,
        s4_trace=s4,
        frame_indices=frame_index,
    )


def _ankle_height(series: pi.KeypointSeries) -> np.ndarray:
    """Mean y of whichever ankle keypoints are present, per frame (NaN if none)."""
    ankles = [pi.R_ANKLE, pi.L_ANKLE]
    present = ~pi.undetected(series.keypoints[:, ankles])
    total = np.where(present, series.keypoints[:, ankles, 1], 0.0).sum(axis=1)
    with np.errstate(invalid="ignore"):
        return total / present.sum(axis=1)


def analysis_window(
    series: pi.KeypointSeries,
    mode: str = WINDOW_FULL,
    duration_s: float = DEFAULT_LANDING_DURATION_S,
    fps: float = DEFAULT_FPS,
) -> tuple[int, int]:
    """Frame-position range (inclusive) to analyse.

    ``full`` covers the whole series. ``landing`` starts at the touchdown
    proxy: the downward-to-stationary sign change of ankle vertical
    velocity with the largest preceding downward speed (image y grows
    downward), and extends ``duration_s`` seconds (at ``fps``) or to the
    series end.
    """
    n = len(series)
    if n == 0:
        raise WindowEmpty("series is empty")
    if mode == WINDOW_FULL:
        return (0, n - 1)
    if mode != WINDOW_LANDING:
        raise ValueError(f"unknown window mode: {mode!r}")

    y = _ankle_height(series)
    v = np.diff(y)  # positive = moving down
    # candidate t: velocity v[t-1] into frame t is downward, v[t] is not;
    # the fastest candidate wins, the first one on ties (NaN never qualifies)
    touchdown = (v[:-1] > 0.0) & (v[1:] <= 0.0)
    if not touchdown.any():
        raise WindowEmpty("no touchdown found in ankle trajectory")
    # diff index t is the velocity into frame t+1; frame t is impact
    start = int(np.argmax(np.where(touchdown, v[:-1], -np.inf))) + 1
    end = min(n - 1, start + int(round(duration_s * fps)))
    return (start, end)
