"""Parsing and preprocessing of BODY_25 keypoint time series.

Two on-disk formats are supported:

* per-frame JSON documents in the OpenPose output schema
  (``{"people": [{"pose_keypoints_2d": [75 floats]}]}``), one file per
  frame, frame index taken from the zero-padded digit group in the
  filename; a single frame file is read as a directory holding only it;
* a single CSV file with header
  ``frame,kp0_x,kp0_y,kp0_c,...,kp24_x,kp24_y,kp24_c`` (76 columns).

A keypoint stored as the triple (0, 0, 0), and only that, means "not
detected" (``undetected``); a frame document with an empty ``people``
list has every keypoint undetected. Every loader ends in one numeric check
of the series (finite, confidence in [0, 1], x and y within ±1e6 px) and
returns it in frame order; a frame index given twice is rejected.
Preprocessing zeroes keypoints under a confidence gate (default 0.4),
repairs short interior gaps on the required keypoints by linear
interpolation, and drops leading/trailing frames where a required keypoint
is undetected.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import (
    AllFramesInvalid,
    AmbiguousPerson,
    EmptySource,
    GapTooLong,
    MalformedDocument,
    SeriesParseError,
    cut,
)

N_KEYPOINTS = 25

# BODY_25 indices used by the feature models.
NECK = 1
R_SHOULDER = 2
L_SHOULDER = 5
MID_HIP = 8
R_HIP, R_KNEE, R_ANKLE = 9, 10, 11
L_HIP, L_KNEE, L_ANKLE = 12, 13, 14
# (hip, knee, ankle) of each side's leg
LEGS = {"right": (R_HIP, R_KNEE, R_ANKLE), "left": (L_HIP, L_KNEE, L_ANKLE)}

SAGITTAL = "sagittal"
FRONTAL = "frontal"
VIEWS = (SAGITTAL, FRONTAL)

# Person-selection policies for multi-person frames.
POLICY_BEST = "best"      # person with highest mean confidence over detected keypoints
POLICY_STRICT = "strict"  # error if more than one person is present

DEFAULT_CONFIDENCE_THRESHOLD = 0.4
DEFAULT_MAX_GAP = 5

_CSV_HEADER = ["frame"] + [
    f"kp{i}_{axis}" for i in range(N_KEYPOINTS) for axis in ("x", "y", "c")
]


def required_keypoints(view: str, side: str = "right") -> frozenset[int]:
    """Keypoint indices that must be present for the given view's features."""
    if view == SAGITTAL:
        return frozenset({NECK, MID_HIP, *LEGS[side]})
    if view == FRONTAL:
        return frozenset({NECK, R_SHOULDER, L_SHOULDER, MID_HIP, *LEGS["right"], *LEGS["left"]})
    raise ValueError(f"unknown view: {view!r}")


def undetected(keypoints: np.ndarray) -> np.ndarray:
    """Mask of the undetected keypoints: those stored as the triple (0, 0, 0)."""
    k = keypoints
    return (k[..., 0] == 0.0) & (k[..., 1] == 0.0) & (k[..., 2] == 0.0)


@dataclass
class KeypointSeries:
    """One view's keypoints as two parallel arrays.

    ``keypoints`` has shape (n, 25, 3) = x, y, confidence per frame, with
    (0, 0, 0) for an undetected keypoint; ``frame_index`` (n,) holds the
    source frame numbers, strictly increasing.
    """

    keypoints: np.ndarray
    frame_index: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.frame_index) <= 0):
            raise ValueError("frame_index must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frame_index)


@dataclass
class PreprocessStats:
    frames_in: int = 0
    frames_out: int = 0
    frames_dropped_leading: int = 0
    frames_dropped_trailing: int = 0
    values_gated: int = 0
    values_interpolated: int = 0


# -- frame parsing --------------------------------------------------------
#
# Every input, a frame document or a CSV data line, gives one row of 75
# values. The loaders check the rows of a whole series in one numeric check
# (one numpy call), so row i of that check is input i. The persons of the
# frames with several people follow those rows in the same check; each such
# frame then gives the row of its best person.

_N_VALUES = 3 * N_KEYPOINTS
# The largest |x| or |y| in px: past any camera frame, far from overflow
_MAX_COORDINATE = 1e6
# The bounds of a row's values, (x, y, confidence) per keypoint
_ROW_LOW = np.tile([-_MAX_COORDINATE, -_MAX_COORDINATE, 0.0], N_KEYPOINTS)
_ROW_HIGH = np.tile([_MAX_COORDINATE, _MAX_COORDINATE, 1.0], N_KEYPOINTS)
# The row of an empty frame, a failed input or a frame whose persons follow
# the rows: it passes the numeric check; no series is built from a failed input.
_STAND_IN = [0.0] * _N_VALUES

_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"


def _document(raw: bytes):
    """The JSON value of a frame file: what ``json.loads(raw)`` returns or raises.

    A UTF-8 text holding one JSON object between JSON whitespace is parsed
    in one scan; any other document (another encoding, a byte order mark,
    bad JSON, trailing data, a value that is not an object) goes to
    ``json.loads``, so its value or error is the one ``json.loads`` gives.
    """
    try:
        text = raw.decode()
        doc, end = _DECODER.raw_decode(text, len(text) - len(text.lstrip(_JSON_SPACE)))
        if type(doc) is dict and end == len(text.rstrip(_JSON_SPACE)):
            return doc
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError included
        pass
    return json.loads(raw)


def _frame_values(raw: bytes, policy: str) -> list:
    """The value lists of one frame document's persons.

    A frame with nobody in it gives the row of an undetected skeleton.
    Every person's structure is checked, in document order, and the first
    failure is raised; the values get their numeric check with the rest of
    the series.
    """
    try:
        doc = _document(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad encoding, deep nesting
        raise MalformedDocument(f"invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "people" not in doc:
        raise MalformedDocument("missing 'people' key")
    people = doc["people"]
    if not isinstance(people, list):
        raise MalformedDocument("'people' must be a list")
    if not people:
        return [_STAND_IN]
    if len(people) > 1 and policy == POLICY_STRICT:
        raise AmbiguousPerson(f"{len(people)} people present under strict policy")
    rows: list[list] = []
    for person in people:
        if not isinstance(person, dict) or "pose_keypoints_2d" not in person:
            raise MalformedDocument("person object missing 'pose_keypoints_2d'")
        flat = person["pose_keypoints_2d"]
        if not isinstance(flat, list) or len(flat) != _N_VALUES:
            raise MalformedDocument(f"pose_keypoints_2d must hold exactly {_N_VALUES} numbers")
        rows.append(flat)
    return rows


def _keypoint_array(rows) -> tuple[np.ndarray, dict[int, MalformedDocument]]:
    """The numeric check: rows of 75 values as one (n, 25, 3) array.

    Converts all rows (a list, or an (n, 75) float array read without a
    copy) in one call: the rows of a series, then the persons of its frames
    with several people. A row fails unless its values are finite, its
    confidences in [0, 1] and its x and y within ±_MAX_COORDINATE; its
    error names the first of these it breaks. Returns the array and the
    error of each failing row by its position. Rows are converted one by
    one only after the bulk conversion has failed; a non-numeric row stays
    zero in the array.
    """
    try:
        values = np.asarray(rows, dtype=float)
        converted = values.shape == (len(rows), _N_VALUES)
    except (TypeError, ValueError, OverflowError):
        converted = False
    errors: dict[int, MalformedDocument] = {}
    if converted:
        values = values.reshape(-1, N_KEYPOINTS, 3)
    else:
        values = np.zeros((len(rows), N_KEYPOINTS, 3))
        for i, row in enumerate(rows):
            try:
                values[i] = np.array(row, dtype=float).reshape(N_KEYPOINTS, 3)
            except (TypeError, ValueError, OverflowError) as exc:
                errors[i] = MalformedDocument(f"non-numeric keypoint entry ({cut(exc)})")
    # whole rows (a view), so numpy loops along 75 values; NaN fails both tests
    flat = values.reshape(len(values), _N_VALUES)
    inside = ((flat >= _ROW_LOW) & (flat <= _ROW_HIGH)).all(axis=1)
    for i in np.flatnonzero(~inside).tolist():
        conf = values[i, :, 2]
        if not np.isfinite(values[i]).all():
            errors[i] = MalformedDocument("keypoint values must be finite")
        elif not ((conf >= 0.0) & (conf <= 1.0)).all():
            errors[i] = MalformedDocument("confidence values must lie in [0, 1]")
        else:
            errors[i] = MalformedDocument("keypoint coordinates must lie within ±1e6 px")
    return values, errors


_LAST_DIGITS = re.compile(r"(\d+)\D*\Z")


def frame_index_from_name(name: str, fallback: int) -> int:
    """Frame index from the last digit group in a filename stem."""
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    digits = _LAST_DIGITS.search(stem)
    return int(digits[1]) if digits else fallback


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _checked_frame_index(index: int) -> int:
    if not _INT64_MIN <= index <= _INT64_MAX:
        raise MalformedDocument(f"frame index {index} out of range")
    return index


# -- series loading -------------------------------------------------------


def load_series(source: str | Path, policy: str = POLICY_BEST) -> KeypointSeries:
    """Load a keypoint series from a directory of frame JSONs, one frame JSON or one CSV file."""
    path = Path(source)
    if path.is_dir():
        names = sorted(filter(_is_frame_document, os.listdir(path)), key=_NAME_ORDER)
        if not names:
            raise EmptySource(f"no frame documents in {path}")
        return _load_frames(path, names, policy)
    if path.is_file():
        if path.suffix.lower() == ".csv":
            return read_series_csv(path)
        return _load_frames(path.parent, [path.name], policy)
    raise EmptySource(f"source not found: {path}")


def _series(rows, frame_index, failures: dict[int, Exception],
            several: list[tuple[int, int]], where: str,
            name: Callable[[int], str], row_name: Callable[[int], str]) -> KeypointSeries:
    """The tail of every loader: the rows' series in frame order, in one numeric check.

    ``rows`` holds a row per input, then the persons of each input in
    ``several``, which lists (position, number of persons) in input order.
    Such an input gets the error of its first failing person, or else the
    values of its person with the highest mean confidence over detected
    keypoints, the first on a tie. One SeriesParseError names, by
    ``name(i)``, every input in ``failures`` or failing the check. A frame
    index given twice is then a MalformedDocument naming ``where`` and both
    rows by ``row_name``.
    """
    keypoints, errors = _keypoint_array(rows)
    n = len(frame_index)
    confidence, detected = keypoints[n:, :, 2], ~undetected(keypoints[n:])
    start = 0  # the next input's first person, counted from row n
    for pos, count in several:
        stop = start + count
        error = next((errors[n + i] for i in range(start, stop) if n + i in errors), None)
        if error is not None:
            failures[pos] = error
        else:
            kept = [c[d] for c, d in zip(confidence[start:stop], detected[start:stop])]
            # the bits of k.mean(): numpy's mean is this sum over the count
            scores = [float(k.sum()) / k.size if k.size else 0.0 for k in kept]
            keypoints[pos] = keypoints[n + start + scores.index(max(scores))]
        start = stop
    if failures := failures | {i: e for i, e in errors.items() if i < n}:
        raise SeriesParseError([(name(i), failures[i]) for i in sorted(failures)])
    keypoints = keypoints[:n]
    frame_index = np.asarray(frame_index, dtype=np.int64)
    if np.any(np.diff(frame_index) <= 0):
        order = np.argsort(frame_index, kind="stable")
        frame_index, keypoints = frame_index[order], keypoints[order]
        dup = np.flatnonzero(np.diff(frame_index) == 0)
        if dup.size:
            first, second = order[dup[0]], order[dup[0] + 1]
            raise MalformedDocument(
                f"{where}: frame {frame_index[dup[0]]} appears twice "
                f"({row_name(first)} and {row_name(second)})")
    return KeypointSeries(keypoints, frame_index)


# pathlib orders the paths of one directory by name, case-insensitively on Windows
_NAME_ORDER = str.lower if os.name == "nt" else None


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no newline translation on Windows
_READ_CHUNK = 1 << 16


def _read_file(path: str) -> bytes:
    """A file's bytes, read with os-level calls and no buffered file object.

    Raises what ``open(path, "rb").read()`` raises, with the path named in
    the error, also when ``path`` is a directory.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def _is_frame_document(name: str) -> bool:
    """Whether a file name has the suffix ``.json``, in any case; ``.json`` alone has none."""
    return len(name) > 5 and name[-5:].lower() == ".json"


def _load_frames(directory: Path, names: list[str], policy: str) -> KeypointSeries:
    """Series of the frame documents ``names`` (in name order) in ``directory``.

    A name without digits takes its position as its frame index.
    """
    prefix = str(directory / "_")[:-1]  # file paths spelled as str(directory / name)
    rows: list[list] = []
    indices: list[int] = []
    failures: dict[int, Exception] = {}
    several: list[tuple[int, int]] = []
    persons_of_several: list[list] = []
    for pos, name in enumerate(names):
        try:
            index = _checked_frame_index(frame_index_from_name(name, pos))
            persons = _frame_values(_read_file(prefix + name), policy)
        except Exception as exc:  # aggregated below with the frame identifier
            failures[pos] = exc
            index, persons = pos, [_STAND_IN]
        if len(persons) > 1:
            several.append((pos, len(persons)))
            persons_of_several += persons
        indices.append(index)
        rows.append(persons[0] if len(persons) == 1 else _STAND_IN)
    return _series(rows + persons_of_several, indices, failures, several, str(directory),
                   names.__getitem__, names.__getitem__)


def read_series_csv(path: str | Path) -> KeypointSeries:
    """Read the 76-column CSV format; rows may come in any frame order.

    ``np.loadtxt`` reads every cell: all data lines in one call, or each
    line alone when that call fails or skips a blank line, so that every
    bad line is named. Values are checked by ``_series``.
    """
    path = Path(path)
    try:
        lines = path.read_bytes().decode("utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path.name}: not a text file ({exc})") from exc
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptySource(f"{path.name}: empty CSV")
    if lines[0].removesuffix("\r").split(",") != _CSV_HEADER:
        raise MalformedDocument(f"{path.name}: unexpected CSV header")
    n = len(lines) - 1
    if not n:
        raise EmptySource(f"{path.name}: no data rows")
    failures: dict[int, Exception] = {}
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1, ndmin=2)
        parsed = table.shape == (n, len(_CSV_HEADER))  # numpy skips a blank line
    except ValueError:
        parsed = False
    if not parsed:
        table = np.zeros((n, len(_CSV_HEADER)))
        for i in range(n):
            try:
                table[i] = _csv_line(lines[i + 1])
            except MalformedDocument as exc:
                failures[i] = exc
    frames = table[:, 0]
    # a frame is a whole number a float64 holds exactly; NaN and ±inf fail
    exact = (frames == np.trunc(frames)) & (np.abs(frames) < 2.0 ** 53)
    for i in np.flatnonzero(~exact).tolist():
        failures[i] = MalformedDocument("frame cell must be a whole number below 2**53 in magnitude")
        table[i] = 0.0  # a stand-in row and frame: no cast warns
    return _series(table[:, 1:], frames.astype(np.int64), failures, [], path.name,
                   lambda i: f"{path.name}:{i + 2}", lambda i: f"line {i + 2}")


def _csv_line(line: str) -> np.ndarray:
    """The 76 cells of one data line, read by ``np.loadtxt`` alone, which warns on an empty one."""
    columns = line.count(",") + 1 if line.removesuffix("\r") else 0
    if columns != len(_CSV_HEADER):
        raise MalformedDocument(f"expected {len(_CSV_HEADER)} columns, got {columns}")
    try:
        return np.loadtxt([line], delimiter=",", comments=None)
    except ValueError as exc:  # every call reads row 0: name the column only
        raise MalformedDocument(cut(str(exc).replace(" at row 0, column ", " in column "))) from exc


def write_series_csv(series: KeypointSeries, path: str | Path) -> None:
    """Serialize a series to the 76-column CSV format (exact float round trip)."""
    rows = series.keypoints.reshape(len(series), -1).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        fh.writelines(f"{index},{','.join(map(repr, values))}\r\n"
                      for index, values in zip(series.frame_index.tolist(), rows))


def write_series_openpose(series: KeypointSeries, directory: str | Path) -> list[Path]:
    """Write one OpenPose-schema JSON document per frame into ``directory``."""
    negative = series.frame_index[series.frame_index < 0]
    if negative.size:  # the reader takes a file's last digit group, without a sign
        raise ValueError(f"frame {negative[0]} is negative: no frame file name holds it")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = series.keypoints.reshape(len(series), -1).tolist()
    paths = []
    for index, values in zip(series.frame_index.tolist(), rows):
        doc = {"people": [{"pose_keypoints_2d": values}]}
        p = directory / f"frame_{index:012d}_keypoints.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(p)
    return paths


# -- preprocessing --------------------------------------------------------


def preprocess_report(
    series: KeypointSeries,
    required: Iterable[int],
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
) -> tuple[KeypointSeries, PreprocessStats]:
    """Preprocess a series and report what was changed.

    Steps, in order:

    1. every keypoint with confidence below ``confidence_threshold`` is
       zeroed, i.e. made undetected;
    2. leading/trailing frames where any required keypoint is undetected
       are dropped;
    3. interior gaps of at most ``max_gap`` consecutive undetected frames on a
       required keypoint are filled by linear interpolation between the
       nearest valid neighbours (confidence = min of the neighbours).

    Raises GapTooLong for interior gaps longer than ``max_gap`` and
    AllFramesInvalid when nothing survives. Non-required keypoints are
    gated but never repaired. The operation is idempotent.
    """
    stats = PreprocessStats(frames_in=len(series))
    if not len(series):
        raise AllFramesInvalid("input series is empty")
    req = sorted(set(required))

    keypoints = series.keypoints.copy()
    missing = undetected(keypoints)
    gate = (keypoints[:, :, 2] < confidence_threshold) & ~missing
    stats.values_gated = int(gate.sum())
    keypoints[gate] = 0.0
    missing |= gate

    all_ok = ~missing[:, req].any(axis=1)
    if not all_ok.any():
        raise AllFramesInvalid("no frame has all required keypoints present")
    first = int(np.argmax(all_ok))
    last = int(len(all_ok) - 1 - np.argmax(all_ok[::-1]))
    stats.frames_dropped_leading = first
    stats.frames_dropped_trailing = len(all_ok) - 1 - last
    keypoints = keypoints[first:last + 1]
    missing = missing[first:last + 1]
    frame_index = series.frame_index[first:last + 1]

    for kp in req:
        gaps = missing[:, kp]
        if not gaps.any():
            continue
        # first/last frames are fully valid, so every gap is interior
        edges = np.diff(gaps.astype(np.int8))
        starts = np.flatnonzero(edges == 1) + 1
        ends = np.flatnonzero(edges == -1) + 1  # exclusive
        lengths = ends - starts
        too_long = np.flatnonzero(lengths > max_gap)
        if too_long.size:
            g = too_long[0]
            raise GapTooLong(
                f"keypoint {kp} missing for {lengths[g]} consecutive frames "
                f"(frames {frame_index[starts[g]]}..{frame_index[ends[g] - 1]}), "
                f"max_gap={max_gap}"
            )
        rows = np.flatnonzero(gaps)
        before = np.repeat(starts - 1, lengths)  # last valid frame before each row's gap
        left, right = keypoints[before, kp], keypoints[np.repeat(ends, lengths), kp]
        r = (rows - before) / np.repeat(lengths + 1, lengths)
        keypoints[rows, kp, 0] = left[:, 0] + (right[:, 0] - left[:, 0]) * r
        keypoints[rows, kp, 1] = left[:, 1] + (right[:, 1] - left[:, 1]) * r
        # min of the neighbours' confidences, the left one on a tie (as min())
        keypoints[rows, kp, 2] = np.where(right[:, 2] < left[:, 2], right[:, 2], left[:, 2])
        stats.values_interpolated += len(rows)

    stats.frames_out = len(frame_index)
    return KeypointSeries(keypoints, frame_index), stats
