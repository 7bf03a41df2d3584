"""The CSV reader's one-call parse against its per-line definition.

``reference_read`` is the reader defined line by line: the header, then
each data line's column count, the line alone through ``np.loadtxt``,
the frame rule (a whole number below 2**53 in magnitude) and the numeric
check, then frame order and no repeated frame. The package parses all
data lines in one ``np.loadtxt`` call and goes line by line only when
that call fails. The property: on mutated files both readers accept or
reject alike, with the same error class and failing lines, and accepted
values agree bit for bit.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclrisk import pose_ingest as pi
from aclrisk.errors import AclRiskError, EmptySource, MalformedDocument, SeriesParseError

from conftest import counting_calls

HEADER = ["frame"] + [f"kp{i}_{axis}" for i in range(25) for axis in ("x", "y", "c")]


def reference_line(line: str, where: str) -> tuple[int, np.ndarray]:
    columns = 0 if line in ("", "\r") else line.count(",") + 1
    if columns != len(HEADER):
        raise MalformedDocument(f"{where}: column count")
    try:
        cells = np.loadtxt([line], delimiter=",", comments=None)
    except ValueError as exc:
        raise MalformedDocument(f"{where}: non-numeric cell") from exc
    frame, values = float(cells[0]), cells[1:].reshape(25, 3)
    if not (frame.is_integer() and abs(frame) < 2**53):
        raise MalformedDocument(f"{where}: frame cell")
    if not np.isfinite(values).all():
        raise MalformedDocument(f"{where}: non-finite value")
    if np.any(values[:, 2] < 0.0) or np.any(values[:, 2] > 1.0):
        raise MalformedDocument(f"{where}: confidence")
    if np.any(np.abs(values[:, :2]) > 1e6):
        raise MalformedDocument(f"{where}: coordinate bound")
    return int(frame), values


def reference_read(path: Path) -> tuple[list[int], np.ndarray]:
    lines = path.read_bytes().decode("utf-8-sig").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptySource("empty CSV")
    if lines[0].removesuffix("\r").split(",") != HEADER:
        raise MalformedDocument("header")
    rows, failures = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path.name}:{lineno}"
        try:
            rows.append(reference_line(line, where))
        except MalformedDocument as exc:
            failures.append((where, exc))
    if failures:
        raise SeriesParseError(failures)
    if not rows:
        raise EmptySource("no data rows")
    rows.sort(key=lambda r: r[0])
    indices = [index for index, _ in rows]
    if any(a == b for a, b in zip(indices, indices[1:])):
        raise MalformedDocument("frame appears twice")
    return indices, np.stack([values for _, values in rows])


def outcome(read):
    try:
        indices, keypoints = read()
    except AclRiskError as exc:
        return ("rejected", type(exc), [fid for fid, _ in getattr(exc, "failures", [])])
    return ("accepted", list(indices), keypoints.tobytes())


def package_read(path: Path):
    series = pi.read_series_csv(path)
    return series.frame_index.tolist(), series.keypoints


@st.composite
def data_row(draw, frame: int) -> list[str]:
    """One valid row: seeded random keypoints, some undetected, plus drawn edge floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kp = rng.uniform(-1e4, 1e4, size=(25, 3))
    kp[:, 2] = rng.uniform(0.0, 1.0, size=25)
    kp[rng.random(25) < 0.2] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        i, axis = draw(st.integers(0, 24)), draw(st.integers(0, 2))
        kp[i, axis] = draw(st.floats(0.0, 1.0) if axis == 2 else
                           st.floats(allow_nan=False, allow_infinity=False))
    return [str(frame)] + [repr(v) for v in kp.ravel().tolist()]


PADDING = [" ", "\t", "\x0b", "\x0c", "\xa0", "\u2028"]
BAD_VALUES = ["nan", "inf", "-inf", "1_0", " 5", "1e2", "+3", "", "x", "1.5", "-0.25",
              "1e999", ".5", "5.", "-0", "1e", "٣", "0x1"]


@st.composite
def mutated_csv(draw) -> str:
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    n = draw(st.integers(1, 5))
    frames = draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n, unique=True))
    rows = [draw(data_row(frame)) for frame in frames]
    lines = [",".join(HEADER)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[line].split(",")
        if len(cells) < len(HEADER) - 1:
            continue
        col = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from([
            "blank", "whitespace-line", "quote", "float-frame", "bad-value", "bad-confidence",
            "too-few", "too-many", "duplicate-frame", "big-frame",
            "padded", "separator", "nul", "lone-cr", "cr-cr-lf"]))
        if kind in ("blank", "whitespace-line"):
            lines.insert(line, "" if kind == "blank" else draw(st.sampled_from(PADDING)))
            continue
        if kind == "quote":
            cells[col] = f'"{cells[col]}"'
        elif kind == "float-frame":
            cells[0] = cells[0] + ".0"
        elif kind == "bad-value":
            cells[col] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "bad-confidence":
            conf = draw(st.sampled_from(["1.5", "-0.25", "1.0000001"]))
            cells[3 * draw(st.integers(0, (len(cells) - 4) // 3)) + 3] = conf
        elif kind == "too-few":
            del cells[col]
        elif kind == "too-many":
            cells.insert(col, "1.0")
        elif kind == "duplicate-frame" and line > 1:
            cells[0] = lines[line - 1].split(",")[0]
        elif kind == "big-frame":
            cells[0] = draw(st.sampled_from(["9" * 16, "9" * 19, "-" + "9" * 20, "0" * 17 + "7"]))
        elif kind == "padded":  # numpy strips these around a number
            col = draw(st.sampled_from([0, col]))
            pad = draw(st.sampled_from(PADDING))
            cells[col] = draw(st.sampled_from([pad + cells[col], cells[col] + pad,
                                               pad + cells[col] + pad]))
        elif kind == "separator":  # numpy strips these around a number too
            sep = draw(st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"]))
            cells[col] = draw(st.sampled_from([sep + cells[col], cells[col] + sep]))
        elif kind in ("nul", "lone-cr"):
            at = draw(st.integers(0, len(cells[col])))
            cells[col] = cells[col][:at] + ("\x00" if kind == "nul" else "\r") + cells[col][at:]
        elif kind == "cr-cr-lf":  # the line ends in \r\r\n
            cells[-1] += "\r" if newline == "\r\n" else "\r\r"
        lines[line] = ",".join(cells)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=400, deadline=None)
@given(mutated_csv())
def test_bulk_reader_matches_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(text.encode())
        assert outcome(lambda: package_read(path)) == outcome(lambda: reference_read(path))


def test_reference_agrees_on_written_series(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    kp = rng.uniform(0.0, 700.0, size=(50, 25, 3))
    kp[:, :, 2] = rng.uniform(0.0, 1.0, size=(50, 25))
    kp[::7, 3] = 0.0
    series = pi.KeypointSeries(keypoints=kp, frame_index=np.arange(50) * 2)
    path = tmp_path / "series.csv"
    pi.write_series_csv(series, path)
    calls = counting_calls(monkeypatch, np, "loadtxt")
    got = outcome(lambda: package_read(path))
    assert len(calls) == 1  # the writer's output takes the one-call parse
    assert got == outcome(lambda: reference_read(path))
    assert got[2] == kp.tobytes()


def test_a_short_line_is_named_once(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(HEADER) + "\n0," + ",".join(["0.5"] * 75) + "\n1,2\n")
    with pytest.raises(SeriesParseError) as exc_info:
        pi.load_series(path)
    message = "1 frame(s) failed to parse: t.csv:3: expected 76 columns, got 2"
    assert str(exc_info.value) == message


def test_failing_lines_are_named_by_their_line_numbers(tmp_path):
    rows = [[str(i)] + ["0.5"] * 75 for i in range(7)]
    rows[1] = ["1", "2"]
    rows[3][3] = "1.5"  # kp0_c
    rows[4][2] = '"0.5"'  # kp0_y, quoted
    rows[5][0] = "5.5"
    rows[6] = [""]  # a blank line
    path = tmp_path / "t.csv"
    path.write_text("\n".join(",".join(row) for row in [HEADER, *rows]) + "\n")
    with pytest.raises(SeriesParseError) as exc_info:
        pi.load_series(path)
    assert [(fid, str(err)) for fid, err in exc_info.value.failures] == [
        ("t.csv:3", "expected 76 columns, got 2"),
        ("t.csv:5", "confidence values must lie in [0, 1]"),
        ("t.csv:6", "could not convert string '\"0.5\"' to float64 in column 3."),
        ("t.csv:7", "frame cell must be a whole number below 2**53 in magnitude"),
        ("t.csv:8", "expected 76 columns, got 0"),
    ]


def csv_text(rows: list[list[str]], newline: str = "\n") -> str:
    return newline.join(",".join(row) for row in [HEADER, *rows]) + newline


def with_cell(cell: str, col: int = 0):
    def text(rows):
        rows[1][col] = cell
        return csv_text(rows)
    return text


def appended(suffix: str, col: int):
    """The cell at ``col`` of the second row, followed by ``suffix``."""
    def text(rows):
        rows[1][col] += suffix
        return csv_text(rows)
    return text


def blank_line(rows):  # an empty line after the first data line
    lines = csv_text(rows).split("\n")
    lines.insert(2, "")
    return "\n".join(lines)


# name: (text of three data rows, its np.loadtxt calls, accepted frame
# numbers, failing lines, or the error of a whole-file refusal)
VARIANTS = {
    "crlf": (lambda rows: csv_text(rows, "\r\n"), 1, [0, 1, 2]),
    "no final newline": (lambda rows: csv_text(rows)[:-1], 1, [0, 1, 2]),
    "byte order mark": (lambda rows: "\ufeff" + csv_text(rows), 1, [0, 1, 2]),
    "padded values": (lambda rows: csv_text([[row[0]] + [f" {v}\t" for v in row[1:]]
                                             for row in rows]), 1, [0, 1, 2]),
    "separator after a value": (appended("\x1c", 2), 1, [0, 1, 2]),
    # the same x value (a decimal point in it), past csv.field_size_limit() in length
    "long cell": (appended("0" * 200_000, 1), 1, [0, 1, 2]),
    "frame 1.0": (with_cell("1.0"), 1, [0, 1, 2]),
    "frame 1e3": (with_cell("1e3"), 1, [0, 2, 1000]),
    "frame ' 5'": (with_cell(" 5"), 1, [0, 2, 5]),
    "16-digit frame": (with_cell("9007199254740993"), 1, ["t.csv:3"]),
    "19-digit frame": (with_cell("9" * 19), 1, ["t.csv:3"]),
    "frame nan": (with_cell("nan"), 1, ["t.csv:3"]),
    "confidence 1.5": (with_cell("1.5", 3), 1, ["t.csv:3"]),
    "value nan": (with_cell("nan", 5), 1, ["t.csv:3"]),
    "coordinate 1e300": (with_cell("1e300", 4), 1, ["t.csv:3"]),
    "quoted value": (with_cell('"0.5"', 2), 4, ["t.csv:3"]),
    "value 1_0": (with_cell("1_0", 2), 4, ["t.csv:3"]),
    "non-ASCII digit": (with_cell("\u0663", 2), 4, ["t.csv:3"]),
    "lone carriage return": (with_cell("0.\r5", 2), 4, ["t.csv:3"]),
    "blank line": (blank_line, 4, ["t.csv:3"]),
    "quoted header": (lambda rows: '"frame"' + csv_text(rows)[5:], 0, MalformedDocument),
}


@pytest.mark.parametrize("name", VARIANTS)
def test_which_files_the_bulk_parse_takes(tmp_path, monkeypatch, name):
    text_of, loadtxt_calls, expected = VARIANTS[name]
    rng = np.random.default_rng(7)
    kp = rng.uniform(0.0, 700.0, size=(3, 75))
    kp[:, 2::3] = rng.uniform(0.0, 1.0, size=(3, 25))
    rows = [[str(i)] + [repr(v) for v in row] for i, row in enumerate(kp.tolist())]
    path = tmp_path / "t.csv"
    path.write_bytes(text_of(rows).encode())
    calls = counting_calls(monkeypatch, np, "loadtxt")
    got = outcome(lambda: package_read(path))
    assert len(calls) == loadtxt_calls
    assert got == outcome(lambda: reference_read(path))
    if got[0] == "accepted":
        order = np.argsort([float(row[0]) for row in rows])
        assert got[1:] == (expected, kp[order].tobytes())
    elif isinstance(expected, type):
        assert got[1:] == (expected, [])
    else:
        assert got[1:] == (SeriesParseError, expected)
