"""Seeded input generation for the benchmark workloads.

Runs as a script in a process of its own, so that generation time and
memory stay out of every metric:

    PYTHONPATH=src python3 benchmarks/workloads.py --workload long_csv --seed 1 --out DIR

It writes the trial files under DIR and DIR/manifest.json, which lists
each trial with its expected outcome: the analytic grades of its
GroundTruth record, or the rejection it must raise. The same seed gives
the same files.

Every trial comes from ``aclrisk.motion_synth`` with sigma = 0.5 px
jitter. The scripted peak angles and widths are drawn at least a fixed
margin away from every grade boundary, so that jitter cannot flip an
oracle grade. Dropouts, occlusions and second persons are applied to the
written files, through the documented CSV and OpenPose formats only.

Duplicate-frame inputs are not in the rejection mix yet: today a
duplicate frame index escapes as a bare ValueError from KeypointSeries
and aborts ``assess_batch`` instead of being collected as a typed
failure. They join the mix once ingest maps them to MalformedDocument.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

from aclrisk import motion_synth
from aclrisk import pose_ingest as pi
from aclrisk.config import RunConfig

WORKLOADS = ("long_csv", "openpose_dirs", "batch_landing")
FAULTS = ("wrong-oracle", "missing-rejection")

SIGMA_PX = 0.5
FPS = 30.0
BATCH_SIZE = 10            # trials per assess_batch op; one of them is occluded

# The peak over a 3000-frame window of sigma = 0.5 px jitter moves an
# angle by under 2 degrees and a width difference by under 5 px.
ANGLE_MARGIN_DEG = 6.0
DISTANCE_MARGIN_PX = 6.0

# (trials, frames per view) at full size and at smoke size.
SIZES = {
    "long_csv": ((3, 3000), (2, 300)),
    "openpose_dirs": ((8, 300), (2, 120)),
    "batch_landing": ((50, 300), (20, 120)),
}

DROPOUT_SHARE = 0.02       # long_csv: share of frames inside a dropout
SECOND_PERSON_SHARE = 0.10  # openpose_dirs: share of frames with a second person

_DEFAULTS = RunConfig()


# -- oracle ------------------------------------------------------------------

# Grade boundaries as the paper states them: flexion at 30 and 60 degrees,
# lean at 30 and 60 degrees, width differences at 30 and 50 px.
_COS_30 = -math.sqrt(3.0) / 2.0
_COS_60 = -0.5


def _grade_sagittal(cosine: float) -> int:
    return 9 if cosine > _COS_60 else 5 if cosine > _COS_30 else 1


def _grade_frontal(cosine: float) -> int:
    return 9 if cosine <= _COS_30 else 5 if cosine <= _COS_60 else 1


def _grade_distance(px: float) -> int:
    return 9 if px < 30.0 else 5 if px < 50.0 else 1


def oracle_grades(truth: motion_synth.GroundTruth) -> list[int]:
    """Grades x1..x5 of the noise-free analytic features."""
    return [_grade_sagittal(truth.p1), _grade_sagittal(truth.p2),
            _grade_frontal(truth.s4_peak),
            _grade_distance(truth.d1), _grade_distance(truth.d2)]


# -- scripts -----------------------------------------------------------------

_M, _D = ANGLE_MARGIN_DEG, DISTANCE_MARGIN_PX
# Value ranges per grade, each a margin inside its grade interval.
_FLEXION_DEG = {1: (5.0, 30.0 - _M), 5: (30.0 + _M, 60.0 - _M), 9: (60.0 + _M, 110.0)}
_LEAN_DEG = {9: (2.0, 30.0 - _M), 5: (30.0 + _M, 60.0 - _M), 1: (60.0 + _M, 85.0)}
_WIDTH_PX = {9: (0.0, 30.0 - _D), 5: (30.0 + _D, 50.0 - _D), 1: (50.0 + _D, 80.0)}


def _draw(rng: np.random.Generator, ranges: dict) -> float:
    lo, hi = ranges[int(rng.choice(sorted(ranges)))]
    return float(rng.uniform(lo, hi))


def draw_script(rng: np.random.Generator, n_frames: int) -> motion_synth.MotionScript:
    stance = float(rng.uniform(100.0, 130.0))
    d2 = _draw(rng, _WIDTH_PX)
    shoulder = stance + d2 if rng.random() < 0.5 else stance - d2
    return motion_synth.MotionScript(
        n_frames=n_frames,
        fps=FPS,
        peak_knee_flexion_deg=_draw(rng, _FLEXION_DEG),
        peak_hip_flexion_deg=_draw(rng, _FLEXION_DEG),
        peak_lateral_lean_deg=_draw(rng, _LEAN_DEG),
        stance_ankle_width_px=stance,
        knee_offset_px=_draw(rng, _WIDTH_PX),
        shoulder_width_px=shoulder,
        touchdown_frame=int(rng.integers(30, 51)),
        noise_sigma_px=SIGMA_PX,
        seed=int(rng.integers(2**31)),
    )


# -- file edits --------------------------------------------------------------


def _edit_csv(path: Path, edits: list[tuple[int, int, float | None]]) -> None:
    """Apply (row, keypoint, confidence) edits; None writes the (0, 0, 0) triple."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for row, kp, conf in edits:
        cells = rows[1 + row]
        col = 1 + 3 * kp
        if conf is None:
            cells[col:col + 3] = ["0.0", "0.0", "0.0"]
        else:
            cells[col + 2] = repr(conf)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _dropouts(rng: np.random.Generator, view: str, n_frames: int) -> list:
    """1-3 frame low-confidence dropouts on required keypoints, ~2% of frames.

    Dropouts sit in separate 50-frame slots, so two never merge into a gap
    longer than max_gap.
    """
    required = sorted(pi.required_keypoints(view))
    n_events = max(1, round(DROPOUT_SHARE * n_frames / 2))
    slots = rng.choice(n_frames // 50, size=min(n_events, n_frames // 50), replace=False)
    edits = []
    for slot in slots:
        start = int(slot) * 50 + int(rng.integers(5, 40))
        kp = int(rng.choice(required))
        for row in range(start, start + int(rng.integers(1, 4))):
            conf = float(rng.uniform(0.05, 0.9 * _DEFAULTS.confidence_threshold))
            edits.append((row, kp, conf))
    return edits


def _occlusion(rng: np.random.Generator, view: str, n_frames: int) -> list:
    """One interior run of undetected frames, longer than max_gap."""
    kp = int(rng.choice(sorted(pi.required_keypoints(view))))
    length = _DEFAULTS.max_gap + 1 + int(rng.integers(0, 6))
    start = int(rng.integers(n_frames // 3, n_frames // 2))
    return [(row, kp, None) for row in range(start, start + length)]


def _add_second_person(rng: np.random.Generator, paths: list[Path]) -> None:
    """A shifted, lower-confidence second person in ~10% of frame documents."""
    count = max(1, round(SECOND_PERSON_SHARE * len(paths)))
    for pos in rng.choice(len(paths), size=count, replace=False):
        path = paths[int(pos)]
        doc = json.loads(path.read_text())
        flat = doc["people"][0]["pose_keypoints_2d"]
        other = []
        for x, y, c in zip(flat[0::3], flat[1::3], flat[2::3]):
            other += [x + 180.0, y + 10.0, 0.6 * c] if c > 0.0 else [0.0, 0.0, 0.0]
        if rng.random() < 0.5:
            doc["people"].append({"pose_keypoints_2d": other})
        else:
            doc["people"].insert(0, {"pose_keypoints_2d": other})
        path.write_text(json.dumps(doc))


# -- workloads ---------------------------------------------------------------


def generate(workload: str, seed: int, out: Path, smoke: bool = False,
             fault: str | None = None) -> dict:
    """Write one workload's trials under ``out`` and return its manifest."""
    n_trials, n_frames = SIZES[workload][1 if smoke else 0]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    occluded = set()
    if workload == "batch_landing":
        occluded = {block + int(rng.integers(BATCH_SIZE))
                    for block in range(0, n_trials, BATCH_SIZE)}
    trials = []
    for i in range(n_trials):
        script = draw_script(rng, n_frames)
        sagittal, frontal, truth = motion_synth.generate(script)
        tdir = out / f"trial_{i + 1:03d}"
        tdir.mkdir()
        entry = {"number": i + 1, "touchdown_frame": truth.touchdown_frame,
                 "grades": None, "reject": None, "traces": str(tdir / "traces")}
        if workload == "openpose_dirs":
            for view, series in ((pi.SAGITTAL, sagittal), (pi.FRONTAL, frontal)):
                paths = pi.write_series_openpose(series, tdir / view)
                _add_second_person(rng, paths)
                entry[view] = str(tdir / view)
        else:
            for view, series in ((pi.SAGITTAL, sagittal), (pi.FRONTAL, frontal)):
                path = tdir / f"{view}.csv"
                pi.write_series_csv(series, path)
                entry[view] = str(path)
            if workload == "long_csv":
                for view in pi.VIEWS:
                    _edit_csv(Path(entry[view]), _dropouts(rng, view, n_frames))
            elif i in occluded:
                view = pi.VIEWS[int(rng.integers(2))]
                edits = _occlusion(rng, view, n_frames)
                if fault != "missing-rejection":
                    _edit_csv(Path(entry[view]), edits)
                entry["reject"] = {"error": "GapTooLong", "stage": "preprocess"}
        if workload != "batch_landing":
            entry["grades"] = oracle_grades(truth)
        trials.append(entry)
    if fault == "wrong-oracle" and trials[0]["grades"] is not None:
        g = trials[0]["grades"]
        g[0] = {1: 5, 5: 9, 9: 1}[g[0]]
    manifest = {
        "workload": workload,
        "seed": seed,
        "window_mode": "landing" if workload == "batch_landing" else "full",
        "batch_size": BATCH_SIZE,
        "reports": str(out / "reports"),
        "trials": trials,
    }
    (out / "reports").mkdir()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="small inputs")
    parser.add_argument("--fault", choices=FAULTS,
                        help="break an expectation on purpose (self-check)")
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.smoke, args.fault)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
