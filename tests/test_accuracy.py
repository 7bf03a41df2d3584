"""The accuracy scoreboard: how often the pipeline's grades match the oracle's.

A cell runs 100 seeded 300-frame ``MotionScript``s (30 fps, touchdown at
frame 60, a 15-frame ramp). Each of the five peaks lies inside a grade band
shrunk by a margin m (degrees or px) from both of its boundaries, and every
keypoint gets Gaussian jitter σ. Each view is preprocessed, windowed and
extracted as ``assess_trial`` does with the default config, and the five
features are graded. The oracle grades each ``GroundTruth`` by the paper's
boundaries, written out here and not taken from ``scoring``, so that a bug
in a grader cannot hide itself.

Each cell pins, as floors at their values when the table was made, the
trials whose five grades are all right and the trials right per feature, so
that a gain in x1 cannot hide a loss in x4. A change that raises a cell
raises its floor; one that lowers a cell is a declared regression.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from aclrisk import kinematics as kin
from aclrisk import motion_synth
from aclrisk import pose_ingest as pi
from aclrisk import scoring

N_SCRIPTS = 100

# Grade bands of the drawn peaks, from the paper's boundaries: flexion at 30
# and 60 degrees, lateral lean at 30 and 60 degrees, widths at 30 and 50 px
FLEXION_DEG = ((0.0, 30.0), (30.0, 60.0), (60.0, 90.0))
LEAN_DEG = ((0.0, 30.0), (30.0, 60.0), (60.0, 80.0))
WIDTH_PX = ((0.0, 30.0), (30.0, 50.0), (50.0, 80.0))

# (m, window, σ px, fault): [all five right, x1 right, ..., x5 right] of 100
# scripts. The "dropouts" fault gives each view three 1-3-frame runs of one
# required keypoint under the confidence gate, which gap repair mends.
FLOORS = {
    (6, "full", 0.0, None): [100, 100, 100, 100, 100, 100],
    (6, "full", 0.5, None): [100, 100, 100, 100, 100, 100],
    (6, "full", 1.0, None): [98, 100, 100, 100, 99, 99],
    (6, "full", 2.0, None): [50, 99, 100, 100, 68, 75],
    (6, "landing", 0.0, None): [100, 100, 100, 100, 100, 100],
    (6, "landing", 0.5, None): [81, 92, 92, 91, 100, 100],
    (6, "landing", 1.0, None): [47, 71, 72, 76, 100, 100],
    (6, "landing", 2.0, None): [48, 82, 86, 79, 86, 94],
    (3, "full", 0.0, None): [100, 100, 100, 100, 100, 100],
    (3, "full", 0.5, None): [98, 100, 100, 100, 99, 99],
    (3, "full", 1.0, None): [84, 100, 100, 100, 93, 90],
    (3, "full", 2.0, None): [42, 94, 97, 98, 65, 75],
    (3, "landing", 0.0, None): [100, 100, 100, 100, 100, 100],
    (3, "landing", 0.5, None): [79, 93, 93, 89, 100, 100],
    (3, "landing", 1.0, None): [51, 76, 72, 78, 97, 99],
    (3, "landing", 2.0, None): [44, 83, 83, 80, 80, 83],
    (6, "full", 0.5, "dropouts"): [100, 100, 100, 100, 100, 100],
}


def oracle(truth: motion_synth.GroundTruth) -> list[int]:
    """Grades x1..x5 of the noise-free features, by the paper's boundaries."""
    knee, hip, lean = np.degrees(np.arccos(-np.array([truth.p1, truth.p2, truth.s4_peak])))
    return [9 if knee > 60.0 else 5 if knee > 30.0 else 1,
            9 if hip > 60.0 else 5 if hip > 30.0 else 1,
            9 if lean <= 30.0 else 5 if lean <= 60.0 else 1,
            9 if truth.d1 < 30.0 else 5 if truth.d1 < 50.0 else 1,
            9 if truth.d2 < 30.0 else 5 if truth.d2 < 50.0 else 1]


def script(m: int, sigma: float, i: int) -> motion_synth.MotionScript:
    """Script i of margin m: the same peaks at every σ."""
    rng = np.random.default_rng([m, i])

    def draw(bands) -> float:
        lo, hi = bands[rng.integers(len(bands))]
        return float(rng.uniform(lo + m, hi - m))

    stance = float(rng.uniform(100.0, 130.0))
    return motion_synth.MotionScript(
        n_frames=300, touchdown_frame=60, ramp_frames=15,
        peak_knee_flexion_deg=draw(FLEXION_DEG), peak_hip_flexion_deg=draw(FLEXION_DEG),
        peak_lateral_lean_deg=draw(LEAN_DEG), stance_ankle_width_px=stance,
        knee_offset_px=draw(WIDTH_PX),
        shoulder_width_px=stance + draw(WIDTH_PX) * rng.choice([-1, 1]),
        noise_sigma_px=sigma, seed=i)


def drop_out(series: pi.KeypointSeries, view: str, rng: np.random.Generator) -> int:
    """Three 1-3-frame runs of one required keypoint under the gate, each in its own
    50-frame slot so that no two merge; the number of values gated."""
    required = sorted(pi.required_keypoints(view))
    dropped = 0
    for slot in rng.choice(len(series) // 50, size=3, replace=False):
        start, length = 50 * int(slot) + int(rng.integers(5, 40)), int(rng.integers(1, 4))
        kp = required[rng.integers(len(required))]
        series.keypoints[start:start + length, kp, 2] = rng.uniform(0.05, 0.35, size=length)
        dropped += length
    return dropped


@functools.cache
def cell(m: int, sigma: float, fault: str | None):
    """Per window mode, the counts of right grades; and the values dropped out,
    gated and repaired over the cell's trials."""
    right = {mode: np.zeros(6, dtype=int) for mode in (kin.WINDOW_FULL, kin.WINDOW_LANDING)}
    dropped = gated = repaired = 0
    for i in range(N_SCRIPTS):
        *views, truth = motion_synth.generate(script(m, sigma, i))
        cleaned = []
        for v, (series, view) in enumerate(zip(views, pi.VIEWS)):
            if fault == "dropouts":
                dropped += drop_out(series, view, np.random.default_rng([m, i, v]))
            series, stats = pi.preprocess_report(series, pi.required_keypoints(view))
            gated += stats.values_gated
            repaired += stats.values_interpolated
            cleaned.append(series)
        expected = oracle(truth)
        for mode, counts in right.items():
            windows = [kin.analysis_window(s, mode) for s in cleaned]
            grades = scoring.grade_all(kin.extract_sagittal(cleaned[0], windows[0]),
                                       kin.extract_frontal(cleaned[1], windows[1]))
            hits = np.equal(grades, expected)
            counts += [hits.all(), *hits]
    return right, (dropped, gated, repaired)


@pytest.mark.parametrize("key", FLOORS, ids=lambda key: "-".join(map(str, key)))
def test_grades_match_the_oracle(key):
    m, mode, sigma, fault = key
    right, (dropped, gated, repaired) = cell(m, sigma, fault)
    assert (right[mode] >= FLOORS[key]).all(), right[mode].tolist()
    # every value under the gate is one dropped out, and gap repair mends each
    assert gated == repaired == dropped
    assert (dropped > 0) == (fault is not None)
