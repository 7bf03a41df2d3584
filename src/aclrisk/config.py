"""Run configuration: every tunable of the pipeline in one place.

Configs load from a JSON file whose keys mirror the RunConfig field
names, with environment-variable overrides prefixed ``ACLRISK_`` (for CI
use, e.g. ``ACLRISK_CONFIDENCE_THRESHOLD=0.5``). Judgment matrices are
given as row lists; fraction literals like "1/3" are accepted.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .errors import AclRiskError, InvalidMatrix, OrderMismatch
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
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0")
        if self.weights is not None and not all(math.isfinite(w) for w in self.weights):
            raise ConfigError("weights must be finite")
        if self.weight_source == "explicit":
            if self.weights is None or len(self.weights) != N_INDICES:
                raise ConfigError(f"explicit weights must have length {N_INDICES}")
            if any(w < 0 for w in self.weights):
                raise ConfigError("explicit weights must be nonnegative")
        violations = ahp.validate(self.judgment_matrix)
        if violations:
            raise InvalidMatrix(violations)
        if self.hierarchical:
            if self.weight_source in ("table5-compat", "explicit"):
                raise ConfigError(
                    "hierarchical mode derives weights from judgment matrices; "
                    f"weight_source {self.weight_source!r} gives them directly")
            if self.criterion_matrix is None or self.criterion_groups is None:
                raise ConfigError(
                    "hierarchical mode needs criterion_matrix and criterion_groups")
            violations = ahp.validate(self.criterion_matrix)
            if violations:
                raise InvalidMatrix(violations)
            if len(self.criterion_groups) != self.criterion_matrix.shape[0]:
                raise OrderMismatch("one group per criterion row required")
        if self.criterion_matrix is not None and not np.isfinite(self.criterion_matrix).all():
            raise ConfigError("criterion_matrix entries must be finite")

    def as_dict(self) -> dict:
        """Every field as JSON-ready values; matrices become lists of float rows."""
        out = asdict(self)
        for f in fields(self):
            if f.type.startswith("np.ndarray") and out[f.name] is not None:
                out[f.name] = np.asarray(out[f.name], dtype=float).tolist()
        return out


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _converted(name: str, conv, value):
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def _finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


# Scalar fields in field order, each with the conversion of a config file
# value or an environment string.
_CONVERTERS = {"float": float, "int": int, "str": str, "bool": _parse_bool}
_SCALAR_FIELDS = {f.name: _CONVERTERS[f.type]
                  for f in fields(RunConfig) if f.type in _CONVERTERS}
_THRESHOLD_FIELDS = {f.name: {**_CONVERTERS, "float": _finite_float}[f.type]
                     for f in fields(ThresholdConfig)}


def _thresholds(section) -> ThresholdConfig:
    """The ``thresholds`` section, each value converted by its field's type."""
    if not isinstance(section, dict):
        raise ConfigError("thresholds must be an object")
    unknown = set(section) - set(_THRESHOLD_FIELDS)
    if unknown:
        raise ConfigError(f"unknown thresholds keys: {sorted(unknown)}")
    values = {name: _converted(f"thresholds.{name}", conv, section[name])
              for name, conv in _THRESHOLD_FIELDS.items() if name in section}
    try:
        return ThresholdConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"bad thresholds section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    cfg = RunConfig()
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, conv in _SCALAR_FIELDS.items():
        if name in data:
            setattr(cfg, name, _converted(name, conv, data[name]))
    if "thresholds" in data:
        cfg.thresholds = _thresholds(data["thresholds"])
    if "judgment_matrix" in data:
        cfg.judgment_matrix = ahp.parse_matrix(data["judgment_matrix"])
    if "weights" in data and data["weights"] is not None:
        cfg.weights = _converted("weights", lambda ws: [float(w) for w in ws], data["weights"])
    if "criterion_matrix" in data and data["criterion_matrix"] is not None:
        cfg.criterion_matrix = ahp.parse_matrix(data["criterion_matrix"])
    if "criterion_groups" in data and data["criterion_groups"] is not None:
        cfg.criterion_groups = _converted(
            "criterion_groups", lambda groups: [[int(i) for i in g] for g in groups],
            data["criterion_groups"])
    cfg.validate()
    return cfg


def load_config(path: str | Path | None = None,
                environ: dict | None = None) -> RunConfig:
    """Config from file (optional), then environment overrides, then validation."""
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
    env = os.environ if environ is None else environ
    for name, conv in _SCALAR_FIELDS.items():
        key = ENV_PREFIX + name.upper()
        if key in env:
            data[name] = env[key]
    return config_from_dict(data)
