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

import csv
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
# frames with several people get one numeric check of their own, after the
# last file is read; each such frame then gives the row of its best person.

_N_VALUES = 3 * N_KEYPOINTS
# The largest |x| or |y| in px: past any camera frame, far from overflow
_MAX_COORDINATE = 1e6
# The bounds of a row's values, (x, y, confidence) per keypoint
_ROW_LOW = np.tile([-_MAX_COORDINATE, -_MAX_COORDINATE, 0.0], N_KEYPOINTS)
_ROW_HIGH = np.tile([_MAX_COORDINATE, _MAX_COORDINATE, 1.0], N_KEYPOINTS)
# The row of a frame with nobody in it, and of an input that failed: it
# passes the numeric check, and no series is built from a failed input.
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


def _frame_values(raw: bytes, policy: str) -> tuple[list, Exception | None]:
    """The value lists of one frame document's persons, and the failure that ended their scan.

    A frame with nobody in it gives the row of an undetected skeleton. The
    persons are checked for structure in document order, and the scan
    stops at the first that fails; its failure is raised at once when no
    person came before it. Otherwise the lists of the persons before it
    are returned with it, and the caller checks their values: a numeric
    error of such a person comes before the structure failure. A single
    good person's values get their numeric check with the rest of the
    series.
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
        return [_STAND_IN], None
    if len(people) > 1 and policy == POLICY_STRICT:
        raise AmbiguousPerson(f"{len(people)} people present under strict policy")
    rows: list[list] = []
    for person in people:
        if not isinstance(person, dict) or "pose_keypoints_2d" not in person:
            failure = MalformedDocument("person object missing 'pose_keypoints_2d'")
            break
        flat = person["pose_keypoints_2d"]
        if not isinstance(flat, list) or len(flat) != _N_VALUES:
            failure = MalformedDocument(
                f"pose_keypoints_2d must hold exactly {_N_VALUES} numbers")
            break
        rows.append(flat)
    else:
        return rows, None
    if not rows:
        raise failure
    return rows, failure


def _pick_persons(several: dict[int, tuple[list, Exception | None]], rows: list,
                  failures: dict[int, Exception]) -> None:
    """Check the persons of the frames in ``several`` in one numeric check.

    ``several`` maps an input's position to what ``_frame_values`` gave
    for it. Each frame's error, the first of its persons' numeric errors
    or else its structure failure, goes into ``failures``; a frame without
    one puts the values of its person with the highest mean confidence
    over detected keypoints, the first on a tie, into ``rows``.
    """
    values, errors = _keypoint_array([row for persons, _ in several.values() for row in persons])
    confidence, detected = values[:, :, 2], ~undetected(values)
    start = 0
    for pos, (persons, failure) in several.items():
        span = range(start, start + len(persons))
        start = span.stop
        error = next((errors[i] for i in span if i in errors), failure)
        if error is not None:
            failures[pos], rows[pos] = error, _STAND_IN
        else:
            kept = [confidence[i, detected[i]] for i in span]
            # the bits of k.mean(): numpy's mean is this sum over the count
            scores = [float(k.sum()) / k.size if k.size else 0.0 for k in kept]
            rows[pos] = persons[scores.index(max(scores))]


def _keypoint_array(rows) -> tuple[np.ndarray, dict[int, MalformedDocument]]:
    """The numeric check: rows of 75 values as one (n, 25, 3) array.

    Converts all rows (a list, or an (n, 75) float array read without a
    copy) in one call: the rows of a series, or the persons of all its
    frames with several people. A row fails unless its values are finite, its
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


def _series(rows, frame_index, failures: dict[int, Exception], where: str,
            name: Callable[[int], str], row_name: Callable[[int], str]) -> KeypointSeries:
    """The tail of every loader: the rows' series in frame order.

    One SeriesParseError names, by ``name(i)``, every input in
    ``failures`` or failing the numeric check. A frame index given twice is
    then a MalformedDocument naming ``where`` and both rows by ``row_name``.
    """
    keypoints, errors = _keypoint_array(rows)
    if failures := failures | errors:
        raise SeriesParseError([(name(i), failures[i]) for i in sorted(failures)])
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
    several: dict[int, tuple[list, Exception | None]] = {}  # frames _pick_persons decides
    for pos, name in enumerate(names):
        try:
            index = _checked_frame_index(frame_index_from_name(name, pos))
            persons, failure = _frame_values(_read_file(prefix + name), policy)
        except Exception as exc:  # aggregated below with the frame identifier
            failures[pos] = exc
            index, persons, failure = pos, [_STAND_IN], None
        if len(persons) > 1 or failure is not None:
            several[pos] = persons, failure
        indices.append(index)
        rows.append(persons[0])
    if several:
        _pick_persons(several, rows, failures)
    return _series(rows, indices, failures, str(directory), names.__getitem__, names.__getitem__)


def read_series_csv(path: str | Path) -> KeypointSeries:
    """Read the 76-column CSV format; rows may come in any frame order."""
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            parsed = _parse_csv_plain(fh.read())
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path.name}: not a text file ({exc})") from exc
    frame_index, rows, failures = parsed or _parse_csv_rows(path)
    return _series(rows, frame_index, failures, path.name,
                   lambda i: f"{path.name}:{i + 2}", lambda i: f"line {i + 2}")


# numpy reads a number cell as float() does: it strips what str.isspace()
# calls whitespace and hands the rest, if ASCII, to the C routine float() uses
# (PyOS_string_to_double); any other cell is a ValueError. Two differences
# are checked first. float() refuses the separators \x1c-\x1f around a
# number, which numpy strips. And numpy reads the frame cell as a float, so
# it must be an integer int() reads, short enough to be exact as a float64.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_FRAME_CELL = re.compile(r"[+-]?[0-9]{1,15},")


def _parse_csv_plain(text: str) -> tuple[np.ndarray, np.ndarray, dict] | None:
    """Frame indices, (n, 75) values and failing lines (none) of a CSV, via np.loadtxt.

    Returns None for anything the bulk parse cannot vouch for: a bad
    header, any of \\x1c-\\x1f, a data line not starting with a frame cell
    of at most 15 digits, a cell numpy refuses (quotes, NUL, a line break
    inside a line, ...) or a wrong column count; the row-by-row reader then
    decides. Values are checked, and bad lines named, by ``_series``.
    """
    end = text.find("\n")
    if (end < 0 or text[:end].removesuffix("\r").split(",") != _CSV_HEADER
            or any(c in text for c in _NUMPY_ONLY_SPACE)):
        return None
    lines = text.split("\n")
    del text  # only the lines and the parsed table coexist: a lower memory peak
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or not all(map(_FRAME_CELL.match, lines[1:])):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=1)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, len(_CSV_HEADER)):
        return None
    return table[:, 0].astype(np.int64), table[:, 1:], {}


def _parse_csv_rows(path: Path) -> tuple[list[int], list[list], dict[int, Exception]]:
    """Row-by-row reader for every file the bulk parse declines; as ``_parse_csv_plain``."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySource(f"{path.name}: empty CSV") from None
        except csv.Error as exc:
            raise MalformedDocument(f"{path.name}: {exc}") from exc
        if header != _CSV_HEADER:
            raise MalformedDocument(f"{path.name}: unexpected CSV header")
        indices, rows = [], []
        failures: dict[int, Exception] = {}
        try:
            for i, row in enumerate(reader):
                try:
                    index, values = _csv_row(row)
                except MalformedDocument as exc:
                    failures[i] = exc
                    index, values = i, _STAND_IN
                indices.append(index)
                rows.append(values)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedDocument(f"{path.name}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise EmptySource(f"{path.name}: no data rows")
    return indices, rows, failures


def _csv_row(row: list[str]) -> tuple[int, list[float]]:
    if len(row) != len(_CSV_HEADER):
        raise MalformedDocument(f"expected {len(_CSV_HEADER)} columns, got {len(row)}")
    try:
        frame_index = int(row[0])
        values = [float(v) for v in row[1:]]
    except ValueError as exc:
        raise MalformedDocument(f"non-numeric cell ({cut(exc)})") from exc
    return _checked_frame_index(frame_index), values


def write_series_csv(series: KeypointSeries, path: str | Path) -> None:
    """Serialize a series to the 76-column CSV format (exact float round trip)."""
    path = Path(path)
    rows = series.keypoints.reshape(len(series), -1).tolist()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows([index, *map(repr, values)]
                         for index, values in zip(series.frame_index.tolist(), rows))


def write_series_openpose(series: KeypointSeries, directory: str | Path) -> list[Path]:
    """Write one OpenPose-schema JSON document per frame into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = series.keypoints.reshape(len(series), -1).tolist()
    paths = []
    for index, values in zip(series.frame_index.tolist(), rows):
        doc = {"people": [{"pose_keypoints_2d": values}]}
        p = directory / f"frame_{index:012d}_keypoints.json"
        p.write_text(json.dumps(doc))
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
