"""Synthetic drop-landing generator with analytic ground truth.

Builds noise-free BODY_25 keypoint series for both camera views from a
scripted motion: a rigid vertical drop until ``touchdown_frame``, then
half-cosine ramps of knee flexion, hip flexion and lateral trunk lean
from zero to their scripted peaks over ``ramp_frames`` (about half a
second by default), held at peak afterwards. The skeleton is posed so
that the extracted feature traces have closed forms:

    knee cosine  = -cos(knee_flexion)
    hip cosine   = -cos(hip_flexion)
    alignment    = -cos(lateral_lean)
    d1 = |knee_offset|,  d2 = |ankle_width - shoulder_width|

which the returned ground-truth record reports per frame. Optional
seeded Gaussian jitter turns the exact series into noisy test input;
the ground truth always stays the noise-free analytic values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pose_ingest as pi
from .config import _check_types, _from_dict
from .errors import InvalidScript

BASE_X = 320.0
GROUND_Y = 620.0
MAX_ANGLE_DEG = 170.0
MAX_FRAMES = 100_000
MAX_PX = 10_000.0  # a skeleton at this bound lies within ±5e4 px: 95 noise sigmas inside ±1e6


@dataclass
class MotionScript:
    n_frames: int = 100
    fps: float = 30.0
    peak_knee_flexion_deg: float = 60.0
    peak_hip_flexion_deg: float = 60.0
    peak_lateral_lean_deg: float = 10.0
    stance_ankle_width_px: float = 110.0
    knee_offset_px: float = 0.0      # how much narrower the knees are than the ankles
    shoulder_width_px: float = 110.0
    thigh_length_px: float = 150.0
    shank_length_px: float = 150.0
    trunk_length_px: float = 180.0
    touchdown_frame: int = 30
    ramp_frames: int | None = None   # frames to reach peak flexion; default ~0.5 s
    drop_height_px: float = 80.0
    noise_sigma_px: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        """Refuse the first bad value: one of the wrong type, a non-finite float or one out
        of its range (whose bounds keep every coordinate within the ±1e6 px ``pose_ingest``
        reads) is an InvalidScript, for a script from a file as for one built in code."""
        _check_types(self, "", InvalidScript)
        angles = (self.peak_knee_flexion_deg, self.peak_hip_flexion_deg,
                  self.peak_lateral_lean_deg)
        if any(not 0.0 <= a <= MAX_ANGLE_DEG for a in angles):
            raise InvalidScript(f"peak angles must lie in [0, {MAX_ANGLE_DEG}] degrees")
        pixels = [getattr(self, f.name) for f in fields(self) if f.name.endswith("_px")]
        if any(abs(v) > MAX_PX for v in pixels):
            raise InvalidScript(f"pixel values must lie within ±{MAX_PX:g} px")
        lengths = (self.thigh_length_px, self.shank_length_px, self.trunk_length_px)
        if any(v <= 0.0 for v in lengths):
            raise InvalidScript("limb lengths must be positive")
        if self.stance_ankle_width_px <= 0.0 or self.shoulder_width_px <= 0.0:
            raise InvalidScript("stance and shoulder widths must be positive")
        if self.knee_offset_px > self.stance_ankle_width_px:
            raise InvalidScript("knee offset cannot exceed the stance width")
        if not 2 <= self.n_frames <= MAX_FRAMES:
            raise InvalidScript(f"n_frames must lie in [2, {MAX_FRAMES}]")
        if not 0 <= self.touchdown_frame < self.n_frames:
            raise InvalidScript("touchdown_frame must lie inside the series")
        if self.ramp_frames is not None and self.ramp_frames < 1:
            raise InvalidScript("ramp_frames must be at least 1")
        if self.fps <= 0.0:
            raise InvalidScript("fps must be positive")
        if self.noise_sigma_px < 0.0:
            raise InvalidScript("noise sigma must be nonnegative")
        if self.drop_height_px < 0.0:
            raise InvalidScript("drop height must be nonnegative")
        if self.seed < 0:
            raise InvalidScript("seed must be nonnegative")

    @classmethod
    def from_dict(cls, data) -> "MotionScript":
        """The script in a JSON object, read and typed as a config is."""
        script = _from_dict(cls, data, "script", InvalidScript)
        script.validate()
        return script


@dataclass
class GroundTruth:
    touchdown_frame: int
    knee_deg: np.ndarray
    hip_deg: np.ndarray
    lean_deg: np.ndarray
    p1_trace: np.ndarray
    p2_trace: np.ndarray
    s4_trace: np.ndarray
    p1: float = field(init=False)
    p2: float = field(init=False)
    s4_peak: float = field(init=False)
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        self.p1 = float(self.p1_trace.max())
        self.p2 = float(self.p2_trace.max())
        self.s4_peak = float(self.s4_trace.max())


def _rot(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


def _ramp(script: MotionScript, peak_deg: float) -> np.ndarray:
    """Half-cosine ramp from 0 at touchdown to peak_deg, then held at peak."""
    t = np.arange(script.n_frames, dtype=float)
    available = script.n_frames - 1 - script.touchdown_frame
    if available <= 0:
        return np.zeros(script.n_frames)
    ramp_len = script.ramp_frames
    if ramp_len is None:
        ramp_len = max(1, round(0.5 * script.fps))
    ramp_len = min(ramp_len, available)
    s = np.clip((t - script.touchdown_frame) / ramp_len, 0.0, 1.0)
    return peak_deg * (1.0 - np.cos(math.pi * s)) / 2.0


def _drop_offsets(script: MotionScript) -> np.ndarray:
    """Height above ground per frame: quadratic fall, zero from touchdown on."""
    h = np.zeros(script.n_frames)
    td = script.touchdown_frame
    if td > 0:
        t = np.arange(td, dtype=float)
        h[:td] = script.drop_height_px * (1.0 - (t / td) ** 2)
    return h


def _put(frame: np.ndarray, index: int, point: np.ndarray) -> None:
    """Place one detected keypoint (confidence 1) into a (25, 3) frame."""
    frame[index] = (point[0], point[1], 1.0)


def generate(script: MotionScript) -> tuple[pi.KeypointSeries, pi.KeypointSeries, GroundTruth]:
    """Generate (sagittal series, frontal series, ground truth) for a script."""
    script.validate()
    knee = _ramp(script, script.peak_knee_flexion_deg)
    hip = _ramp(script, script.peak_hip_flexion_deg)
    lean = _ramp(script, script.peak_lateral_lean_deg)
    drop = _drop_offsets(script)
    up = np.array([0.0, -1.0])

    n = script.n_frames
    sag_kp = np.zeros((n, pi.N_KEYPOINTS, 3))
    fro_kp = np.zeros((n, pi.N_KEYPOINTS, 3))
    for t in range(n):
        knee_rad = math.radians(knee[t])
        hip_rad = math.radians(hip[t])
        lean_rad = math.radians(lean[t])

        # sagittal chain: ankle fixed, shank splits the knee angle
        frame = sag_kp[t]
        ankle = np.array([BASE_X, GROUND_Y - drop[t]])
        shank_dir = _rot(knee_rad / 2.0) @ up
        knee_pt = ankle + script.shank_length_px * shank_dir
        thigh_dir = _rot(-knee_rad) @ shank_dir
        hip_pt = knee_pt + script.thigh_length_px * thigh_dir
        trunk_dir = _rot(hip_rad) @ thigh_dir
        neck = hip_pt + script.trunk_length_px * trunk_dir
        nose = neck + 0.25 * script.trunk_length_px * trunk_dir
        _put(frame, 0, nose)
        _put(frame, pi.NECK, neck)
        _put(frame, pi.MID_HIP, hip_pt)
        for leg in pi.LEGS.values():
            for i, point in zip(leg, (hip_pt, knee_pt, ankle)):
                _put(frame, i, point)

        # frontal chain: vertical legs, trunk tilted by the lean angle
        frame = fro_kp[t]
        gy = GROUND_Y - drop[t]
        half_ankle = script.stance_ankle_width_px / 2.0
        half_knee = (script.stance_ankle_width_px - script.knee_offset_px) / 2.0
        ankle_r = np.array([BASE_X - half_ankle, gy])
        ankle_l = np.array([BASE_X + half_ankle, gy])
        knee_r = np.array([BASE_X - half_knee, gy - script.shank_length_px])
        knee_l = np.array([BASE_X + half_knee, gy - script.shank_length_px])
        hip_r = knee_r + script.thigh_length_px * up
        hip_l = knee_l + script.thigh_length_px * up
        mid_hip = (hip_r + hip_l) / 2.0
        trunk_dir = _rot(lean_rad) @ up
        neck = mid_hip + script.trunk_length_px * trunk_dir
        perp = _rot(lean_rad) @ np.array([1.0, 0.0])
        shoulder_r = neck - (script.shoulder_width_px / 2.0) * perp
        shoulder_l = neck + (script.shoulder_width_px / 2.0) * perp
        nose = neck + 0.25 * script.trunk_length_px * trunk_dir
        _put(frame, 0, nose)
        _put(frame, pi.NECK, neck)
        _put(frame, pi.R_SHOULDER, shoulder_r)
        _put(frame, pi.L_SHOULDER, shoulder_l)
        _put(frame, pi.MID_HIP, mid_hip)
        for side, points in (("right", (hip_r, knee_r, ankle_r)),
                             ("left", (hip_l, knee_l, ankle_l))):
            for i, point in zip(pi.LEGS[side], points):
                _put(frame, i, point)

    # every keypoint not placed above stays (0, 0, 0): undetected
    sagittal = pi.KeypointSeries(sag_kp, np.arange(n))
    frontal = pi.KeypointSeries(fro_kp, np.arange(n))

    knee_rad = np.radians(knee)
    hip_rad = np.radians(hip)
    lean_rad = np.radians(lean)
    truth = GroundTruth(
        touchdown_frame=script.touchdown_frame,
        knee_deg=knee, hip_deg=hip, lean_deg=lean,
        p1_trace=-np.cos(knee_rad),
        p2_trace=-np.cos(hip_rad),
        s4_trace=-np.cos(lean_rad),
        d1=abs(script.knee_offset_px),
        d2=abs(script.stance_ankle_width_px - script.shoulder_width_px),
    )

    if script.noise_sigma_px > 0.0:
        sagittal = perturb(sagittal, script.noise_sigma_px, script.seed)
        frontal = perturb(frontal, script.noise_sigma_px, script.seed + 1)
    return sagittal, frontal, truth


def perturb(series: pi.KeypointSeries, sigma_px: float, seed: int) -> pi.KeypointSeries:
    """Seeded Gaussian jitter on the coordinates of detected keypoints.

    Draws run frame by frame, keypoint by keypoint, x before y.
    """
    if sigma_px < 0.0:
        raise InvalidScript("noise sigma must be nonnegative")
    keypoints = series.keypoints.copy()
    if sigma_px > 0.0:
        present = ~pi.undetected(keypoints)
        rng = np.random.default_rng(seed)
        keypoints[present, :2] += rng.normal(0.0, sigma_px, size=(int(present.sum()), 2))
    return pi.KeypointSeries(keypoints, series.frame_index.copy())


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    text = json.dumps(asdict(truth), default=np.ndarray.tolist, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")
