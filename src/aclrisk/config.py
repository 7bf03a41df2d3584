"""Run configuration: every tunable of the pipeline in one place.

A config loads from a JSON file whose keys mirror the RunConfig field
names, and each value is the JSON type of its field: a number, a whole
number, a string, a boolean, an object for ``thresholds`` and lists for
``weights`` and ``criterion_groups``. Judgment matrices are given as row
lists; fraction literals like "1/3" are accepted. ``RunConfig.validate``
is the one check of every value, for a config from a file as for one
built in code.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .errors import AclRiskError, OrderMismatch
from .scoring import ThresholdConfig

WEIGHT_SOURCES = ("sum-method", "geometric", "table5-compat", "explicit")
N_INDICES = 5


class ConfigError(AclRiskError):
    """A config, from a file or built in code, is invalid."""


@dataclass
class RunConfig:
    confidence_threshold: float = pi.DEFAULT_CONFIDENCE_THRESHOLD
    max_gap: int = pi.DEFAULT_MAX_GAP
    person_policy: str = "best"          # best | strict
    window_mode: str = "full"            # full | landing
    window_duration_s: float = kin.DEFAULT_LANDING_DURATION_S
    sagittal_side: str = "right"         # right | left (mirrored recordings)
    default_fps: float = kin.DEFAULT_FPS
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    weight_source: str = "sum-method"
    judgment_matrix: np.ndarray = field(
        default_factory=lambda: ahp.DEFAULT_INDEX_MATRIX.copy())
    weights: list[float] | None = None   # used when weight_source == "explicit"
    criterion_matrix: np.ndarray | None = None
    criterion_groups: list[list[int]] | None = None  # index positions per criterion
    hierarchical: bool = False
    force: bool = False

    def validate(self) -> None:
        """Refuse the first bad value: a value of the wrong type or out of its range is a
        ConfigError, a matrix or grouping the AHP check refuses its InvalidMatrix or
        OrderMismatch."""
        _check_types(self, "")
        try:  # the range rule of ThresholdConfig, also for a field set after it was made
            self.thresholds.__post_init__()
        except ValueError as exc:
            raise ConfigError(f"bad thresholds section: {exc}") from exc
        if self.weight_source not in WEIGHT_SOURCES:
            raise ConfigError(f"weight_source must be one of {WEIGHT_SOURCES}")
        if self.person_policy not in ("best", "strict"):
            raise ConfigError("person_policy must be 'best' or 'strict'")
        if self.window_mode not in ("full", "landing"):
            raise ConfigError("window_mode must be 'full' or 'landing'")
        if self.sagittal_side not in ("right", "left"):
            raise ConfigError("sagittal_side must be 'right' or 'left'")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError("confidence_threshold must lie in [0, 1]")
        if self.max_gap < 0:
            raise ConfigError("max_gap must be nonnegative")
        for name in ("window_duration_s", "default_fps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if not _finite(self.window_duration_s * self.default_fps):
            raise ConfigError("window_duration_s * default_fps must be finite")
        if self.weight_source == "explicit":
            if self.weights is None or len(self.weights) != N_INDICES:
                raise ConfigError(f"explicit weights must have length {N_INDICES}")
            if any(w < 0 for w in self.weights):
                raise ConfigError("explicit weights must be nonnegative")
        ahp.check_matrix(self.judgment_matrix)
        if len(self.judgment_matrix) != N_INDICES:
            raise OrderMismatch(f"judgment_matrix must be {N_INDICES}x{N_INDICES}")
        if self.hierarchical:
            if self.weight_source in ("table5-compat", "explicit"):
                raise ConfigError(
                    "hierarchical mode derives weights from judgment matrices; "
                    f"weight_source {self.weight_source!r} gives them directly")
            if self.criterion_matrix is None or self.criterion_groups is None:
                raise ConfigError(
                    "hierarchical mode needs criterion_matrix and criterion_groups")
            ahp.check_matrix(self.criterion_matrix)
            ahp.check_groups(self.criterion_groups, len(self.criterion_matrix), N_INDICES)

    def as_dict(self) -> dict:
        """Every field as JSON-ready values; matrices become lists of float rows."""
        out = asdict(self)
        for f in fields(self):
            if f.type.startswith("np.ndarray") and out[f.name] is not None:
                out[f.name] = np.asarray(out[f.name], dtype=float).tolist()
        return out


def _finite(value) -> bool:
    """Whether a number is finite; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_number(value) -> bool:
    """Whether a value is a finite JSON number; a boolean is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and _finite(value)


def _is_whole(value) -> bool:
    """Whether a value is an int; a boolean is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_matrix(value) -> bool:
    """Whether a value reads as a 2-D array of finite floats."""
    try:
        matrix = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return matrix.ndim == 2 and bool(np.isfinite(matrix).all())


# the check of a value by the annotation of its field, and the message refusing it;
# a field annotated ``X | None`` also takes None
_TYPES = {
    "float": (_is_number, "{name} must be a finite number, got {value}"),
    "int": (_is_whole, "{name} must be a whole number, got {value}"),
    "str": (lambda v: isinstance(v, str), "{name} must be a string, got {value}"),
    "bool": (lambda v: isinstance(v, bool),
             "bad value for {name}: expected a boolean, got {value}"),
    "ThresholdConfig": (lambda v: isinstance(v, ThresholdConfig),
                        "{name} must be a ThresholdConfig, got {value}"),
    "np.ndarray": (_is_matrix, "{name} must be a matrix of finite numbers"),
    "list[float]": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                    "{name} must be a list of finite numbers, got {value}"),
    "list[list[int]]": (
        lambda v: isinstance(v, list) and all(
            isinstance(g, list) and all(map(_is_whole, g)) for g in v),
        "{name} must be a list of lists of whole numbers, got {value}"),
}


def _check_types(obj, prefix: str) -> None:
    """ConfigError for the first field of ``obj`` that its annotation refuses."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        check, message = _TYPES[f.type.removesuffix(" | None")]
        if not check(value):
            raise ConfigError(message.format(name=prefix + f.name, value=reprlib.repr(value)))
        if isinstance(value, ThresholdConfig):
            _check_types(value, "thresholds.")


def _typed(kind: str, value):
    """A JSON value in the type that the annotation ``kind`` names, where it converts
    without loss: an integer as a float, a whole float as an int, matrix rows as an
    array (``ahp.parse_matrix``), an object as a ThresholdConfig. Any other value
    stays as it is, for ``RunConfig.validate`` to judge."""
    if kind == "float" and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == "int" and type(value) is float and value.is_integer():
        return int(value)
    if kind == "np.ndarray" and value is not None:
        return ahp.parse_matrix(value)
    if kind == "ThresholdConfig" and isinstance(value, dict):
        return _from_dict(ThresholdConfig, value, "thresholds")
    if kind.startswith("list[") and isinstance(value, list):
        return [_typed(kind[5:-1], v) for v in value]
    return value


def _from_dict(cls, data, where: str):
    """A ``cls`` dataclass from the JSON object ``where``, each value ``_typed`` by its field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    values = {f.name: _typed(f.type.removesuffix(" | None"), data[f.name])
              for f in fields(cls) if f.name in data}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # ThresholdConfig's range check; a string fails it too
        raise ConfigError(f"bad {where} section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, data, "config")
    cfg.validate()
    return cfg


def load_config(path: str | Path | None = None) -> RunConfig:
    """The config in a JSON file, validated; without a file, the defaults."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:  # a directory, no permission, a failing device
            raise ConfigError(
                f"config file cannot be read: {path}: {exc.strerror or exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON, bad encoding, deep nesting
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)
