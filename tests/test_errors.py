from __future__ import annotations

import pickle

import pytest

from aclrisk import errors
from aclrisk.config import ConfigError

ERROR_TYPES = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.AclRiskError)] + [ConfigError]


def example(cls: type, stage: str | None) -> errors.AclRiskError:
    if cls is errors.SeriesParseError:
        return cls([("frame_1.json", errors.MalformedDocument("bad")),
                    ("frame_2.json", OSError(13, "Permission denied", "frame_2.json"))],
                   stage=stage)
    if cls is errors.InvalidMatrix:
        return cls(["not square", "diagonal entry 2 is not 1"], stage=stage)
    return cls("something failed", stage=stage)


def described(failures) -> list[tuple[str, type, str]]:
    return [(fid, type(err), str(err)) for fid, err in failures]


@pytest.mark.parametrize("stage", [None, "ingest"])
@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls, stage):
    error = example(cls, stage)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert (str(copy), copy.message, copy.stage) == (str(error), error.message, error.stage)
    assert described(getattr(copy, "failures", [])) == described(getattr(error, "failures", []))
    assert getattr(copy, "violations", None) == getattr(error, "violations", None)


def test_a_stage_set_after_raising_survives_pickling():
    error = errors.InvalidMatrix(["not square"])
    error.stage = "weights"
    copy = pickle.loads(pickle.dumps(error))
    assert (str(copy), copy.violations) == ("[weights] not square", ["not square"])
