"""Run configuration: every tunable of the pipeline in one place.

Configs load from a JSON file whose keys mirror the RunConfig field
names, with environment-variable overrides prefixed ``ACLRISK_`` (for CI
use, e.g. ``ACLRISK_CONFIDENCE_THRESHOLD=0.5``). Judgment matrices are
given as row lists; fraction literals like "1/3" are accepted.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .errors import AclRiskError, OrderMismatch
from .scoring import ThresholdConfig

ENV_PREFIX = "ACLRISK_"

WEIGHT_SOURCES = ("sum-method", "geometric", "table5-compat", "explicit")
N_INDICES = 5


class ConfigError(AclRiskError):
    """Configuration file or override is invalid."""


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
        for name in ("confidence_threshold", "max_gap", "window_duration_s", "default_fps"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.weights is not None and not (
                isinstance(self.weights, Iterable) and all(map(_is_number, self.weights))):
            raise ConfigError(f"weights must be a list of numbers, got {self.weights!r}")
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
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        if not _finite(self.window_duration_s * self.default_fps):
            raise ConfigError("window_duration_s * default_fps must be finite")
        if self.weights is not None and not all(map(_finite, self.weights)):
            raise ConfigError("weights must be finite")
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
        if self.criterion_matrix is not None and not np.isfinite(self.criterion_matrix).all():
            raise ConfigError("criterion_matrix entries must be finite")

    def as_dict(self) -> dict:
        """Every field as JSON-ready values; matrices become lists of float rows."""
        out = asdict(self)
        for f in fields(self):
            if f.type.startswith("np.ndarray") and out[f.name] is not None:
                out[f.name] = np.asarray(out[f.name], dtype=float).tolist()
        return out


def _is_number(value) -> bool:
    """Whether a value is a real number; a boolean is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether a number is finite; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _float(value) -> float:
    """A finite number or numeric string as a float; a boolean is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _int(value) -> int:
    """A whole number or integer string as an int; booleans and fractions are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _list(value) -> list:
    """A JSON list as it is; a string or an object is not a list."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


# The conversion of a config file value or an environment string, by the
# annotation of its field; a field annotated ``X | None`` also takes null.
_SCALARS = {"float": _float, "int": _int, "str": str, "bool": _parse_bool}
_CONVERTERS = {
    **_SCALARS,
    "ThresholdConfig": lambda section: _from_dict(ThresholdConfig, section, "thresholds"),
    "np.ndarray": ahp.parse_matrix,
    "list[float]": lambda values: [_float(v) for v in _list(values)],
    "list[list[int]]": lambda groups: [[_int(i) for i in _list(g)] for g in _list(groups)],
}


def _from_dict(cls, data, where: str):
    """A ``cls`` dataclass from the JSON object ``where``, converted in field order."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    prefix = "" if where == "config" else f"{where}."
    values = {}
    for f in fields(cls):
        if f.name not in data or (data[f.name] is None and f.type.endswith(" | None")):
            continue  # null keeps the default of an optional field, None
        try:
            values[f.name] = _CONVERTERS[f.type.removesuffix(" | None")](data[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {prefix}{f.name}: {exc}") from exc
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, data, "config")
    cfg.validate()
    return cfg


def load_config(path: str | Path | None = None) -> RunConfig:
    """Config from a JSON file (optional), then ``ACLRISK_<FIELD>`` overrides, then validation.

    A list value must be a JSON list, an integer a whole number; a boolean is not a number.
    """
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, bad encoding, deep nesting
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for f in fields(RunConfig):
        key = ENV_PREFIX + f.name.upper()
        if f.type in _SCALARS and key in os.environ:
            data[f.name] = os.environ[key]
    return config_from_dict(data)
