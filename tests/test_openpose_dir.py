"""The OpenPose-directory loader against a frame-by-frame reference.

``reference_load`` is the loader the package used before a series was
converted and checked in one numpy call: ``pathlib`` listing and order,
one ``reference_parse`` per file with its own numpy checks, then frame
order and no repeated frame. It differs from that loader on purpose:
undecodable or too deeply nested JSON and integers too large for a float
are ``MalformedDocument``, where they used to escape as
``UnicodeDecodeError``, ``RecursionError`` and ``OverflowError``; every
person's structure is checked before any person's values; and a quoted
numpy message is cut past 160 characters. A single frame file is read as
a directory that holds only that file.

The property: on generated directories with mutated files, and on each
of their files alone, both loaders accept or reject alike, with the same
error class, the same failing files in the same order with the same
messages, each naming its file once, and bit-identical arrays when they
accept.
"""

from __future__ import annotations

import codecs
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclrisk import pose_ingest as pi
from aclrisk.errors import (
    AclRiskError,
    AmbiguousPerson,
    EmptySource,
    MalformedDocument,
    SeriesParseError,
)

from conftest import counting_calls

# -- reference: the frame-by-frame parser --------------------------------------


def reference_cut(text: str) -> str:
    """Whole up to 160 characters, otherwise the first 78, ``...`` and the last 79."""
    return text if len(text) <= 160 else text[:78] + "..." + text[-79:]


def reference_array(flat: list) -> np.ndarray:
    try:
        arr = np.array(flat, dtype=float).reshape(25, 3)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(f"non-numeric keypoint entry ({reference_cut(str(exc))})") from exc
    if not np.all(np.isfinite(arr)):
        raise MalformedDocument("keypoint values must be finite")
    conf = arr[:, 2]
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise MalformedDocument("confidence values must lie in [0, 1]")
    if np.any(np.abs(arr[:, :2]) > 1e6):
        raise MalformedDocument("keypoint coordinates must lie within ±1e6 px")
    return arr


def reference_person(person) -> list:
    if not isinstance(person, dict) or "pose_keypoints_2d" not in person:
        raise MalformedDocument("person object missing 'pose_keypoints_2d'")
    flat = person["pose_keypoints_2d"]
    if not isinstance(flat, list) or len(flat) != 75:
        raise MalformedDocument("pose_keypoints_2d must hold exactly 75 numbers")
    return flat


def reference_parse(raw: bytes, policy: str) -> np.ndarray:
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "people" not in doc:
        raise MalformedDocument("missing 'people' key")
    people = doc["people"]
    if not isinstance(people, list):
        raise MalformedDocument("'people' must be a list")
    if not people:  # nobody detected
        return np.zeros((25, 3))
    if len(people) > 1 and policy == pi.POLICY_STRICT:
        raise AmbiguousPerson(f"{len(people)} people present under strict policy")
    flats = [reference_person(person) for person in people]  # structure before values
    best, best_score = None, -1.0
    for arr in map(reference_array, flats):
        detected = ~np.all(arr == 0.0, axis=1)
        score = float(arr[detected, 2].mean()) if detected.any() else 0.0
        if score > best_score:
            best, best_score = arr, score
    return best


def reference_index(name: str, fallback: int) -> int:
    groups = re.findall(r"(\d+)", Path(name).stem)
    index = int(groups[-1]) if groups else fallback
    if not -2**63 <= index < 2**63:
        raise MalformedDocument(f"frame index {index} out of range")
    return index


def reference_load(path: Path, policy: str) -> tuple[list[int], np.ndarray]:
    """A directory's frame documents, or a single file as the one document of its directory."""
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".json")
        if not files:
            raise EmptySource(f"no frame documents in {path}")
    else:
        files, path = [path], path.parent
    frames, failures = [], []
    for pos, p in enumerate(files):
        try:
            index = reference_index(p.name, pos)
            frames.append((index, p.name, reference_parse(p.read_bytes(), policy)))
        except Exception as exc:
            failures.append((p.name, exc))
    if failures:
        raise SeriesParseError(failures)
    frames.sort(key=lambda frame: frame[0])
    for (a, name_a, _), (b, name_b, _) in zip(frames, frames[1:]):
        if a == b:
            raise MalformedDocument(
                f"{path}: frame {a} appears twice ({name_a} and {name_b})")
    return [index for index, _, _ in frames], np.stack([arr for _, _, arr in frames])


def outcome(load):
    try:
        indices, keypoints = load()
    except AclRiskError as exc:
        failures = [(fid, type(err), str(err)) for fid, err in getattr(exc, "failures", [])]
        return ("rejected", type(exc), str(exc), failures)
    return ("accepted", list(indices), keypoints.tobytes())


def package_load(path, policy: str):
    series = pi.load_series(path, policy)
    assert series.keypoints.shape == (len(series), 25, 3)
    return series.frame_index.tolist(), series.keypoints


# -- generated directories -------------------------------------------------------

FRAME = json.dumps({"people": [{"pose_keypoints_2d": [0.5] * 75}]})

# whole-document replacements
DOCUMENTS = {
    "invalid-json": b"broken{",
    "empty-file": b"",
    "bad-encoding": b"\xff\xfe\x00{",
    "deep-nesting": b"[" * 100_000,
    "not-an-object": b"[]",
    "missing-people": b"{}",
    "people-not-list": b'{"people": "nope"}',
    "people-object": b'{"people": {}}',
    "empty-people": b'{"people": []}',
    "person-not-object": b'{"people": [5]}',
    "person-missing-keypoints": b'{"people": [{}]}',
    "keypoints-not-list": b'{"people": [{"pose_keypoints_2d": "x"}]}',
    # numpy's message for this entry is over 160 characters, so it is cut
    "doubly-nested-entry": json.dumps(
        {"people": [{"pose_keypoints_2d": [[0.5]] * 74 + [[[1.0]]]}]}).encode(),
    # encodings json.loads detects, and text around the object
    "utf8-bom": codecs.BOM_UTF8 + FRAME.encode(),
    "utf16-le-bom": codecs.BOM_UTF16_LE + FRAME.encode("utf-16-le"),
    "utf16-be-bom": codecs.BOM_UTF16_BE + FRAME.encode("utf-16-be"),
    "utf32-le": FRAME.encode("utf-32-le"),
    "json-whitespace": f"\n \t\r\n{FRAME}\n\t \n".encode(),
    "trailing-x": f"{FRAME}x".encode(),
    "second-object": f"{FRAME}\n{FRAME}".encode(),
    "trailing-no-break-space": f"{FRAME}\u00a0".encode(),
    "lone-surrogate-escape": FRAME[:-1].encode() + b', "note": "\\ud800"}',
    "encoded-surrogate": FRAME[:-1].encode() + b', "note": "\xed\xa0\x80"}',
    "invalid-utf8-in-string": FRAME[:-1].encode() + b', "note": "\xff"}',
}

# the mutations both loaders accept: numeric strings and true are numbers, an
# empty people list is a frame in which nobody was detected, and json.loads
# reads a byte order mark, UTF-16 and UTF-32, and encoded surrogates
ACCEPTED = {"numeric-string", "true", "empty-people", "utf8-bom", "utf16-le-bom",
            "utf16-be-bom", "utf32-le", "json-whitespace", "lone-surrogate-escape",
            "encoded-surrogate"}

# replacements of one value of one person
VALUES = {
    "null": None,
    "nested-list": [1.0],
    "numeric-string": "12.5",
    "text": "x",
    "true": True,
    "object": {},
    "nan": float("nan"),
    "infinity": float("inf"),
    "-infinity": float("-inf"),
    "huge-int": 10**400,
    "1e300": 1e300,
    "-2e6": -2e6,
}

CONFIDENCES = (1.5, -0.25, 1.0000001)

# files that are not frame documents: both loaders must ignore them
IGNORED = [
    ".json",  # hidden: a name with no suffix
    "notes.txt",
    "frame_000000000001_keypoints.json.bak",
    "frame_7.jsonl",
    "frame_8.json.",
]


def person(rng: np.random.Generator, partial: float = 0.15) -> list[float]:
    kp = rng.uniform(0.0, 700.0, size=(25, 3))
    kp[:, 2] = rng.uniform(0.0, 1.0, size=25)
    kp[rng.random(25) < partial] = 0.0
    return kp.ravel().tolist()


@st.composite
def frame_directory(draw) -> dict[str, bytes | None]:
    """File name -> content (None: a subdirectory) of a mutated frame directory."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    docs = []
    for _ in range(n):
        people = [person(rng)]
        extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
        for _ in range(extra):
            if draw(st.booleans()):
                people.append(person(rng, partial=0.5))  # partial detection
            else:  # a shifted copy: the same mean confidence, a tie
                other = list(people[0])
                other[0::3] = [x + 100.0 if c else x for x, c in zip(other[0::3], other[2::3])]
                people.insert(draw(st.integers(0, len(people))), other)
        docs.append({"people": [{"pose_keypoints_2d": p} for p in people]})
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        if isinstance(docs[i], str):
            continue
        people = docs[i]["people"]
        flat = people[draw(st.integers(0, len(people) - 1))]["pose_keypoints_2d"]
        kind = draw(st.sampled_from(["document", "value", "confidence", "length",
                                     "zero-triple", "nest-all"]))
        if kind == "document":
            docs[i] = draw(st.sampled_from(sorted(DOCUMENTS)))
        elif kind == "value":
            value = VALUES[draw(st.sampled_from(sorted(VALUES)))]
            flat[draw(st.integers(0, 74)) % len(flat)] = value  # the list may be shorter
        elif kind == "confidence":
            k = 3 * draw(st.integers(0, 24)) + 2
            flat[k % len(flat)] = draw(st.sampled_from(CONFIDENCES))
        elif kind == "length":
            if draw(st.booleans()):
                flat.pop()
            else:
                flat.append(0.5)
        elif kind == "zero-triple":
            k = draw(st.integers(0, 24))
            flat[3 * k:3 * k + 3] = [0.0, 0.0, 0.0]
        else:  # every value a list of one or two numbers
            width = draw(st.integers(1, 2))
            flat[:] = [[v] * width for v in flat]
    names = [f"frame_{i:012d}_keypoints.json" for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        names[i] = draw(st.sampled_from([
            names[i][:-5] + ".JSON",
            names[i][:-5] + ".Json",
            "take.json",  # no digits: the file's position is its frame
            "Take.json",  # ordered before or after the others by case
            "..json",
            "frame_99999999999999999999_keypoints.json",  # beyond int64
            "frame_-3.json",
            f"take2_frame_{(i + 1) % n}.json",  # a duplicate frame when n > 1
        ]))
    files: dict[str, bytes | None] = {}
    for name, doc in zip(names, docs):
        files[name] = DOCUMENTS[doc] if isinstance(doc, str) else json.dumps(doc).encode()
    for name in draw(st.lists(st.sampled_from(IGNORED), max_size=2, unique=True)):
        files.setdefault(name, b"broken{")
    if draw(st.integers(0, 9)) == 0:
        files["sub.json"] = None  # a directory: reading it fails
    return files


def write_directory(root: Path, files: dict[str, bytes | None]) -> Path:
    directory = root / "frames"
    directory.mkdir()
    for name, content in files.items():
        if content is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(content)
    return directory


@settings(max_examples=300, deadline=None)
@given(frame_directory(), st.sampled_from([pi.POLICY_BEST, pi.POLICY_STRICT]))
def test_directory_loader_matches_reference(files, policy):
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_directory(Path(tmp), files)
        assert (outcome(lambda: package_load(directory, policy))
                == outcome(lambda: reference_load(directory, policy)))
        # each file alone, as a one-file directory
        for name, content in files.items():
            if content is None:
                continue
            path = directory / name
            assert (outcome(lambda: package_load(path, policy))
                    == outcome(lambda: reference_load(path, policy)))


def mutated_documents(rng: np.random.Generator) -> list[tuple[str, bytes]]:
    cases = list(DOCUMENTS.items())
    for label, value in VALUES.items():
        flat = person(rng, partial=0.0)
        flat[4] = value
        cases.append((label, json.dumps({"people": [{"pose_keypoints_2d": flat}]}).encode()))
    for value in CONFIDENCES:
        flat = person(rng, partial=0.0)
        flat[5] = value
        cases.append((f"confidence {value}",
                      json.dumps({"people": [{"pose_keypoints_2d": flat}]}).encode()))
    return cases


def test_every_mutation_class_is_rejected_alike(tmp_path):
    """Each mutation alone, between valid frames; those in ACCEPTED are read."""
    rng = np.random.default_rng(3)
    valid = [json.dumps({"people": [{"pose_keypoints_2d": person(rng)}]}) for _ in range(3)]
    for k, (label, content) in enumerate(mutated_documents(rng)):
        directory = tmp_path / f"case{k}"
        directory.mkdir()
        for i, doc in enumerate(valid):
            (directory / f"frame_{i}.json").write_text(doc)
        (directory / "frame_1.json").write_bytes(content)
        expected = outcome(lambda: reference_load(directory, pi.POLICY_BEST))
        assert outcome(lambda: package_load(directory, pi.POLICY_BEST)) == expected, label
        accepted = label in ACCEPTED
        assert expected[0] == ("accepted" if accepted else "rejected"), label
        if not accepted:  # one line that names the frame, as the CLI's error line
            assert [fid for fid, _, _ in expected[3]] == ["frame_1.json"], label
            assert "\n" not in expected[2] and "frame_1.json" in expected[2], label


def test_files_that_are_not_frame_documents_are_ignored(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(3):
        doc = {"people": [{"pose_keypoints_2d": person(rng)}]}
        (tmp_path / f"frame_{i}.json").write_text(json.dumps(doc))
    for name in IGNORED:
        (tmp_path / name).write_bytes(b"broken{")
    assert pi.load_series(tmp_path).frame_index.tolist() == [0, 1, 2]


def test_relative_directory_names_its_files_as_pathlib_does(tmp_path, monkeypatch):
    doc = {"people": [{"pose_keypoints_2d": [0.5] * 75}]}
    (tmp_path / "frame_0.json").write_text(json.dumps(doc))
    (tmp_path / "sub.json").mkdir()
    monkeypatch.chdir(tmp_path)
    expected = outcome(lambda: reference_load(Path("."), pi.POLICY_BEST))
    assert outcome(lambda: package_load(".", pi.POLICY_BEST)) == expected
    assert "'sub.json'" in expected[2]


@pytest.mark.parametrize("name, index", [
    ("frame_000000000012_keypoints.json", 12),
    ("take2_frame_3.JSON", 3),
    ("frame_4.", 4),
    (".json", 7),
    ("..json", 7),
    ("x12.tar.json", 12),
    ("x12.tar", 12),
    (".123", 123),
    ("x1.2", 1),
    ("plain", 7),
])
def test_frame_index_from_name_matches_path_stem(name, index):
    assert pi.frame_index_from_name(name, 7) == index
    groups = re.findall(r"(\d+)", Path(name).stem)
    assert index == (int(groups[-1]) if groups else 7)


# -- failing frames and person selection ----------------------------------------


def flat_person(x: float, conf: float) -> list[float]:
    return [v for k in range(25) for v in (x + k, 2.0 * k, conf)]


def frame_between_single_person_frames(directory: Path, people: list) -> Path:
    """frame_1.json holds ``people``; frame_0 and frame_2 one person each."""
    directory.mkdir()
    for i in (0, 2):
        doc = {"people": [{"pose_keypoints_2d": flat_person(10.0 * i, 0.9)}]}
        (directory / f"frame_{i}.json").write_text(json.dumps(doc))
    (directory / "frame_1.json").write_text(json.dumps({"people": people}))
    return directory


def assert_selected(tmp_path: Path, people: list[list[float]], chosen: list[float]) -> None:
    """Frame 1 of ``people`` selects ``chosen`` alike in a one-file and a directory load."""
    directory = frame_between_single_person_frames(
        tmp_path / "frames", [{"pose_keypoints_2d": flat} for flat in people])
    series = pi.load_series(directory)
    single = pi.load_series(directory / "frame_1.json")
    assert single.frame_index.tolist() == [1]
    assert np.array_equal(series.keypoints[1:2], single.keypoints)
    assert np.array_equal(single.keypoints[0], np.reshape(chosen, (25, 3)))


def failures(source) -> list[tuple[str, type, str]]:
    with pytest.raises(SeriesParseError) as exc_info:
        pi.load_series(source)
    return [(fid, type(err), str(err)) for fid, err in exc_info.value.failures]


NAN_PERSON = {"pose_keypoints_2d": [math.nan if k == 4 else v
                                     for k, v in enumerate(flat_person(0.0, 0.9))]}
NO_KEYPOINTS = (MalformedDocument, "person object missing 'pose_keypoints_2d'")


def test_structure_error_of_a_later_person_comes_before_a_numeric_error(tmp_path):
    directory = frame_between_single_person_frames(tmp_path / "frames", [NAN_PERSON, {}])
    assert failures(directory) == [("frame_1.json", *NO_KEYPOINTS)]
    assert failures(directory / "frame_1.json") == [("frame_1.json", *NO_KEYPOINTS)]


def test_structure_error_of_an_earlier_person_comes_before_a_numeric_error(tmp_path):
    path = tmp_path / "frame_0.json"
    path.write_text(json.dumps({"people": [{}, NAN_PERSON]}))
    assert failures(path) == [("frame_0.json", *NO_KEYPOINTS)]


def test_a_broken_frame_is_named_once(tmp_path):
    directory = frame_between_single_person_frames(tmp_path / "frames", [{}])
    with pytest.raises(SeriesParseError) as exc_info:
        pi.load_series(directory)
    assert str(exc_info.value) == (
        "1 frame(s) failed to parse: frame_1.json: person object missing 'pose_keypoints_2d'")


def test_best_person_is_selected_when_it_comes_second(tmp_path):
    weak, strong = flat_person(0.0, 0.3), flat_person(180.0, 0.8)
    assert_selected(tmp_path, [weak, strong], strong)


def test_exact_tie_keeps_the_first_person(tmp_path):
    first, second = flat_person(0.0, 0.6), flat_person(100.0, 0.6)
    assert_selected(tmp_path, [first, second], first)


def test_frames_with_several_people_share_one_numeric_check(tmp_path, monkeypatch):
    directory = tmp_path / "frames"
    directory.mkdir()
    for i in range(8):
        people = [{"pose_keypoints_2d": flat_person(10.0 * i, 0.9)}]
        if i in (1, 4, 6):  # a second person, before or after the first
            people.insert(i % 2, {"pose_keypoints_2d": flat_person(200.0, 0.3 + 0.1 * i)})
        (directory / f"frame_{i}.json").write_text(json.dumps({"people": people}))
    calls = counting_calls(monkeypatch, pi, "_keypoint_array")
    loaded = outcome(lambda: package_load(directory, pi.POLICY_BEST))
    assert len(calls) == 1
    assert loaded == outcome(lambda: reference_load(directory, pi.POLICY_BEST))
    assert loaded[0] == "accepted"


def test_failing_frames_are_named_in_order_after_a_two_person_frame(tmp_path):
    directory = tmp_path / "frames"
    directory.mkdir()
    people = {i: [{"pose_keypoints_2d": flat_person(10.0 * i, 0.9)}] for i in range(6)}
    people[1].append({"pose_keypoints_2d": flat_person(200.0, 0.5)})
    people[2] = [{"pose_keypoints_2d": flat_person(20.0, 0.9)[:74]}]
    people[4][0]["pose_keypoints_2d"][5] = 1.5
    for i, frame in people.items():
        (directory / f"frame_{i}.json").write_text(json.dumps({"people": frame}))
    assert failures(directory) == [
        ("frame_2.json", MalformedDocument, "pose_keypoints_2d must hold exactly 75 numbers"),
        ("frame_4.json", MalformedDocument, "confidence values must lie in [0, 1]"),
    ]
