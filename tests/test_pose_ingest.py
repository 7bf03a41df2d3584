from __future__ import annotations

import json
import math

import numpy as np
import pytest

from aclrisk import pose_ingest as pi
from aclrisk.errors import (
    AllFramesInvalid,
    EmptySource,
    GapTooLong,
    MalformedDocument,
    SeriesParseError,
)

from conftest import make_series, series_equal, upright_sagittal_points


def person_doc(*keypoint_arrays) -> bytes:
    people = [{"pose_keypoints_2d": list(map(float, arr))} for arr in keypoint_arrays]
    return json.dumps({"people": people}).encode()


def flat_pose(x0: float = 10.0, confidence: float = 0.9) -> list[float]:
    out = []
    for i in range(pi.N_KEYPOINTS):
        out += [x0 + i, 100.0 + i, confidence]
    return out


def write_frames(directory, *names: str) -> None:
    for name in names:
        (directory / name).write_bytes(person_doc(flat_pose()))


# -- frame parsing ---------------------------------------------------------


def load_frame(tmp_path, raw: bytes, policy: str = pi.POLICY_BEST) -> np.ndarray:
    """The (25, 3) array of one frame document, loaded as a one-file series."""
    path = tmp_path / "frame.json"
    path.write_bytes(raw)
    series = pi.load_series(path, policy)
    assert series.frame_index.tolist() == [0]  # no digits in the name: its position
    return series.keypoints[0]


def test_parse_single_person_roundtrip(tmp_path):
    flat = flat_pose()
    assert np.array_equal(load_frame(tmp_path, person_doc(flat)).ravel(), np.array(flat))
    path = tmp_path / "frame_9223372036854775807_keypoints.json"  # the largest int64
    path.write_bytes(person_doc(flat))
    series = pi.load_series(path)
    assert series.frame_index.tolist() == [2**63 - 1]
    assert series.keypoints.shape == (1, 25, 3)
    assert not pi.undetected(series.keypoints).any()
    assert np.array_equal(series.keypoints.ravel(), np.array(flat))


def test_parse_marks_zero_triples_missing(tmp_path):
    flat = flat_pose()
    flat[3 * 4:3 * 4 + 3] = [0.0, 0.0, 0.0]
    flat[3 * 6:3 * 6 + 3] = [5.0, 6.0, 0.0]  # confidence 0 alone is not "undetected"
    missing = pi.undetected(load_frame(tmp_path, person_doc(flat)))
    assert missing[4]
    assert missing.sum() == 1


@pytest.mark.parametrize("seed", range(5))
def test_undetected_matches_all_three_values_zero(seed):
    rng = np.random.default_rng(seed)
    keypoints = rng.choice([0.0, -0.0, np.nan, 1.0], size=(200, pi.N_KEYPOINTS, 3))
    assert np.array_equal(pi.undetected(keypoints), np.all(keypoints == 0.0, axis=-1))


def test_parse_empty_people_is_undetected(tmp_path):
    for policy in (pi.POLICY_BEST, pi.POLICY_STRICT):
        assert pi.undetected(load_frame(tmp_path, person_doc(), policy)).all()


# -- series loading --------------------------------------------------------


def test_load_series_directory_ordered_by_filename_suffix(tmp_path):
    for i in (2, 0, 1):
        (tmp_path / f"trial_{i:012d}_keypoints.json").write_bytes(
            person_doc(flat_pose(x0=float(i))))
    series = pi.load_series(tmp_path)
    assert len(series) == 3
    assert series.frame_index.tolist() == [0, 1, 2]
    assert series.keypoints[:, 0, 0].tolist() == [0.0, 1.0, 2.0]


def test_duplicate_frame_files_are_malformed(tmp_path):
    write_frames(tmp_path, "frame_000000000002_keypoints.json",
                 "frame_000000000003_keypoints.json", "take2_frame_3.json")
    with pytest.raises(MalformedDocument) as exc_info:
        pi.load_series(tmp_path)
    message = str(exc_info.value)
    assert "frame 3 appears twice" in message
    assert "frame_000000000003_keypoints.json" in message and "take2_frame_3.json" in message


def test_duplicate_frames_name_the_current_directory(tmp_path, monkeypatch):
    write_frames(tmp_path, "frame_3.json", "take_3.json")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(MalformedDocument) as exc_info:
        pi.load_series(".")
    assert str(exc_info.value) == ".: frame 3 appears twice (frame_3.json and take_3.json)"


def rewritten_csv(path, rewrite):
    """A CSV of frames 4, 5 and 6 (neck x 1, 2 and 3) whose lines are ``rewrite(lines)``."""
    pi.write_series_csv(make_series([upright_sagittal_points(x) for x in (1.0, 2.0, 3.0)],
                                    frame_index=[4, 5, 6]), path)
    path.write_text("\n".join(rewrite(path.read_text().splitlines())) + "\n")
    return path


def test_duplicate_frame_rows_are_malformed(tmp_path):
    # line 4 repeats the frame of line 2
    path = rewritten_csv(tmp_path / "s.csv", lambda lines: [*lines[:3], "4" + lines[3][1:]])
    with pytest.raises(MalformedDocument, match=r"frame 4 appears twice \(line 2 and line 4\)"):
        pi.read_series_csv(path)


def test_csv_rows_in_any_order_are_sorted(tmp_path):
    path = rewritten_csv(tmp_path / "s.csv", lambda lines: [lines[0], lines[3], *lines[1:3]])
    series = pi.read_series_csv(path)
    assert series.frame_index.tolist() == [4, 5, 6]
    assert series.keypoints[:, pi.NECK, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_series_reports_offending_frame(tmp_path):
    write_frames(tmp_path, "f_000.json", "f_002.json")
    (tmp_path / "f_001.json").write_bytes(b"broken{")
    with pytest.raises(SeriesParseError) as exc_info:
        pi.load_series(tmp_path)
    assert "f_001.json" in str(exc_info.value)
    assert len(exc_info.value.failures) == 1


def test_load_series_empty_directory(tmp_path):
    with pytest.raises(EmptySource):
        pi.load_series(tmp_path)


def test_load_series_missing_path(tmp_path):
    with pytest.raises(EmptySource):
        pi.load_series(tmp_path / "nowhere")


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    frames = []
    for _ in range(4):
        kp = rng.uniform(0.0, 700.0, size=(25, 3))
        kp[:, 2] = rng.uniform(0.0, 1.0, size=25)
        kp[3] = 0.0  # one missing keypoint survives the round trip as missing
        frames.append(kp)
    kp = np.stack(frames)
    series = pi.KeypointSeries(keypoints=kp, frame_index=np.arange(4))
    path = tmp_path / "series.csv"
    pi.write_series_csv(series, path)
    back = pi.read_series_csv(path)
    assert series_equal(series, back)


@pytest.mark.parametrize("body", [
    b"\xff\xfe not text\n",
    ",".join(pi._CSV_HEADER).encode() + b"\r\n0," + b"1" * 200_000 + b"\r\n",
])
def test_csv_undecodable_or_oversized_is_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    if body.startswith(b"frame,"):  # a line past csv.field_size_limit() is a bad line like any other
        with pytest.raises(SeriesParseError) as exc_info:
            pi.read_series_csv(path)
        assert [fid for fid, _ in exc_info.value.failures] == ["bad.csv:2"]
    else:
        with pytest.raises(MalformedDocument):
            pi.read_series_csv(path)


def test_a_series_refuses_a_repeated_frame():
    with pytest.raises(ValueError, match="^frame_index must be strictly increasing"):
        pi.KeypointSeries(np.zeros((2, 25, 3)), np.array([3, 3]))


def test_openpose_emission_roundtrip(tmp_path):
    series = make_series([upright_sagittal_points()] * 3)
    pi.write_series_openpose(series, tmp_path)
    back = pi.load_series(tmp_path)
    assert series_equal(series, back)


def test_openpose_emission_refuses_a_negative_frame(tmp_path):
    # the reader takes a file name's last digit group: frame -1 would read back as 1
    series = make_series([upright_sagittal_points()] * 3, frame_index=[-1, 0, 1])
    with pytest.raises(ValueError, match="^frame -1 is negative"):
        pi.write_series_openpose(series, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# -- preprocessing ---------------------------------------------------------


SAGITTAL_REQUIRED = pi.required_keypoints(pi.SAGITTAL)


def sagittal_gap_series(gap_frames: list[int], n: int = 7) -> pi.KeypointSeries:
    """Series where R_KNEE is missing in the listed frames, moving linearly."""
    frames = []
    for i in range(n):
        points = upright_sagittal_points()
        points[pi.R_KNEE] = (100.0 + 1.0 * i, 200.0 + 2.0 * i)
        frames.append(points)
    series = make_series(frames)
    series.keypoints[gap_frames, pi.R_KNEE] = 0.0
    return series


def knee_confidence_gated(confidence: float):
    """preprocess_report at threshold 0.4 of a series whose frame-2 knee has ``confidence``."""
    series = sagittal_gap_series([])
    series.keypoints[2, pi.R_KNEE, 2] = confidence
    return pi.preprocess_report(series, SAGITTAL_REQUIRED, confidence_threshold=0.4)


def test_low_confidence_treated_as_missing_then_interpolated():
    out, stats = knee_confidence_gated(0.3)
    assert stats.values_gated == 1
    assert stats.values_interpolated == 1
    knee = out.keypoints[2, pi.R_KNEE]
    assert knee[0] == pytest.approx(102.0)


def test_confidence_equal_to_threshold_is_kept():
    out, stats = knee_confidence_gated(0.4)
    assert stats.values_gated == 0


def test_a_tie_of_neighbour_confidences_repairs_to_the_left_one():
    series = sagittal_gap_series([3])
    series.keypoints[2, pi.R_KNEE, 2], series.keypoints[4, pi.R_KNEE, 2] = 0.0, -0.0
    out = pi.preprocess_report(series, SAGITTAL_REQUIRED, confidence_threshold=0.0)[0]
    assert math.copysign(1.0, out.keypoints[3, pi.R_KNEE, 2]) == 1.0


def test_gap_at_max_gap_is_filled_but_one_longer_raises():
    ok = sagittal_gap_series([2, 3], n=8)
    out = pi.preprocess_report(ok, SAGITTAL_REQUIRED, max_gap=2)[0]
    assert not pi.undetected(out.keypoints[:, pi.R_KNEE]).any()
    too_long = sagittal_gap_series([2, 3, 4], n=8)
    with pytest.raises(GapTooLong):
        pi.preprocess_report(too_long, SAGITTAL_REQUIRED, max_gap=2)[0]


def test_leading_and_trailing_missing_frames_dropped():
    series = sagittal_gap_series([0, 1, 6], n=7)
    out, stats = pi.preprocess_report(series, SAGITTAL_REQUIRED)
    assert stats.frames_dropped_leading == 2
    assert stats.frames_dropped_trailing == 1
    assert out.frame_index.tolist() == [2, 3, 4, 5]


def test_all_frames_invalid():
    series = sagittal_gap_series(list(range(7)))
    with pytest.raises(AllFramesInvalid):
        pi.preprocess_report(series, SAGITTAL_REQUIRED)[0]


def test_preprocess_empty_series():
    with pytest.raises(AllFramesInvalid):
        pi.preprocess_report(pi.KeypointSeries(
            keypoints=np.zeros((0, 25, 3)),
            frame_index=np.zeros(0, dtype=np.int64)), SAGITTAL_REQUIRED)[0]


def random_series(rng: np.random.Generator) -> pi.KeypointSeries:
    n = int(rng.integers(8, 30))
    frames = []
    for i in range(n):
        kp = rng.uniform(50.0, 600.0, size=(25, 3))
        kp[:, 2] = rng.uniform(0.0, 1.0, size=25)
        # keep the edges valid so leading/trailing trims stay small
        if i in (0, n - 1):
            kp[:, 2] = 1.0
        frames.append(kp)
    return pi.KeypointSeries(keypoints=np.stack(frames), frame_index=np.arange(n))


def test_interpolated_coordinates_lie_between_neighbours():
    rng = np.random.default_rng(3)
    for _ in range(20):
        series = sagittal_gap_series([3])
        lo_x, hi_x = 100.0 + 2, 100.0 + 4
        jitter = rng.uniform(-1, 1)
        series.keypoints[2, pi.R_KNEE, 0] += jitter
        out = pi.preprocess_report(series, SAGITTAL_REQUIRED)[0]
        x = out.keypoints[3, pi.R_KNEE, 0]
        lo = min(lo_x + jitter, hi_x)
        hi = max(lo_x + jitter, hi_x)
        assert lo <= x <= hi


def test_output_has_no_missing_required_keypoints():
    rng = np.random.default_rng(11)
    for _ in range(10):
        series = random_series(rng)
        try:
            out = pi.preprocess_report(series, SAGITTAL_REQUIRED)[0]
        except GapTooLong:
            continue
        required = sorted(pi.required_keypoints(pi.SAGITTAL))
        assert not pi.undetected(out.keypoints[:, required]).any()


def reference_preprocess(series: pi.KeypointSeries, threshold: float = 0.4, max_gap: int = 5):
    """Frame-by-frame gating and gap repair: the reference for preprocess_report."""
    kp, missing = series.keypoints.copy(), np.all(series.keypoints == 0.0, axis=2)
    gated = 0
    for t in range(len(kp)):
        gate = (kp[t, :, 2] < threshold) & ~missing[t]
        gated += int(gate.sum())
        kp[t][gate] = 0.0
        missing[t] |= gate
    req = sorted(SAGITTAL_REQUIRED)
    ok = [not any(missing[t, k] for k in req) for t in range(len(kp))]
    first, last = ok.index(True), len(ok) - 1 - ok[::-1].index(True)
    kp, missing = kp[first:last + 1], missing[first:last + 1]
    filled = 0
    for k in req:
        t = 0
        while t < len(kp):
            if not missing[t, k]:
                t += 1
                continue
            start = t
            while missing[t, k]:
                t += 1
            gap = t - start
            if gap > max_gap:
                raise GapTooLong(f"keypoint {k} missing for {gap} consecutive frames")
            left, right = kp[start - 1, k].copy(), kp[t, k].copy()
            for j in range(start, t):
                r = (j - start + 1) / (gap + 1)
                kp[j, k, 0] = left[0] + (right[0] - left[0]) * r
                kp[j, k, 1] = left[1] + (right[1] - left[1]) * r
                kp[j, k, 2] = min(float(left[2]), float(right[2]))
                missing[j, k] = False
                filled += 1
    return kp, missing, series.frame_index[first:last + 1], gated, filled


def test_preprocess_matches_frame_by_frame_reference():
    rng = np.random.default_rng(2024)
    repaired = rejected = 0
    for _ in range(300):
        series = random_series(rng)
        try:
            kp, missing, frame_index, gated, filled = reference_preprocess(series)
        except GapTooLong as exc:
            rejected += 1
            with pytest.raises(GapTooLong, match=str(exc)):
                pi.preprocess_report(series, SAGITTAL_REQUIRED)
            continue
        out, stats = pi.preprocess_report(series, SAGITTAL_REQUIRED)
        assert out.keypoints.tobytes() == kp.tobytes()
        assert np.array_equal(pi.undetected(out.keypoints), missing)
        assert np.array_equal(out.frame_index, frame_index)
        assert (stats.values_gated, stats.values_interpolated) == (gated, filled)
        repaired += filled > 0
    assert repaired > 100 and rejected > 20


def test_required_keypoints_match_views():
    assert pi.required_keypoints(pi.SAGITTAL) == frozenset({1, 8, 9, 10, 11})
    assert pi.required_keypoints(pi.SAGITTAL, side="left") == frozenset({1, 8, 12, 13, 14})
    assert pi.required_keypoints(pi.FRONTAL) == frozenset({1, 2, 5, 8, 9, 10, 11, 12, 13, 14})


def test_required_keypoints_refuse_an_unknown_side():
    with pytest.raises(KeyError):
        pi.required_keypoints(pi.SAGITTAL, "up")
