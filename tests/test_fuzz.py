"""Fuzz properties of the two parsers of user-written JSON values.

Whatever a judgment matrix or a config file holds, ``ahp.parse_matrix``
and ``config_from_dict`` either return their result or raise a typed
``AclRiskError``; a config they accept also serializes as strict JSON,
as every report's config snapshot must.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings, strategies as st

from aclrisk import ahp
from aclrisk.config import RunConfig, config_from_dict
from aclrisk.errors import AclRiskError, InvalidMatrix
from aclrisk.scoring import ThresholdConfig

# what json.loads can return, NaN and infinities included, plus matrix-cell strings
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | st.sampled_from(["1/3", "1/0", "-1/2", "0", "3", "1e400", "nan", "x", "1/3/3"]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)


@st.composite
def square_rows(draw):
    n = draw(st.integers(0, 4))
    return draw(st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(square_rows() | JSON)
def test_parse_matrix_returns_square_floats_or_raises_invalid_matrix(rows):
    try:
        matrix = ahp.parse_matrix(rows)
    except InvalidMatrix:
        return
    assert isinstance(matrix, np.ndarray) and matrix.dtype == float
    assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]


FLOATS = st.floats() | st.floats(-2.0, 60.0) | st.sampled_from(["0.5", "inf", "-1"])
THRESHOLDS = st.dictionaries(
    st.sampled_from([f.name for f in fields(ThresholdConfig)] + ["unknown"]),
    FLOATS | st.booleans() | st.sampled_from(["false", "maybe"]), max_size=5)

# values that pass a field's conversion now and then, so some configs get
# through to the JSON check; a field not listed gets arbitrary JSON only
PLAUSIBLE = {
    "confidence_threshold": FLOATS,
    "max_gap": st.integers(-2, 10) | st.sampled_from(["3", "3.5", 1e300]),
    "person_policy": st.sampled_from(["best", "strict", "both"]),
    "window_mode": st.sampled_from(["full", "landing", "half"]),
    "window_duration_s": FLOATS,
    "sagittal_side": st.sampled_from(["right", "left", "up"]),
    "default_fps": FLOATS,
    "thresholds": THRESHOLDS,
    "weight_source": st.sampled_from(["sum-method", "geometric", "table5-compat", "explicit"]),
    "judgment_matrix": st.just(ahp.DEFAULT_INDEX_MATRIX.tolist()) | square_rows(),
    "weights": st.lists(FLOATS, min_size=5, max_size=5),
    "criterion_matrix": st.just([[1, 2], ["1/2", 1]]) | square_rows(),
    "criterion_groups": st.just([[0, 1], [2, 3, 4]]) | st.lists(st.lists(st.integers())),
    "hierarchical": st.booleans() | st.sampled_from(["on", "off", 2]),
    "force": st.booleans(),
}


@st.composite
def config_dicts(draw) -> dict:
    """Some RunConfig keys, each with a plausible value or, one time in four, any JSON."""
    data = {}
    for key in draw(st.lists(st.sampled_from([f.name for f in fields(RunConfig)]),
                             max_size=5, unique=True)):
        odd = draw(st.integers(0, 3)) == 0 or key not in PLAUSIBLE
        data[key] = draw(JSON if odd else PLAUSIBLE[key])
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.text(max_size=4))] = draw(JSON)  # usually an unknown key
    return data


@settings(max_examples=300, deadline=None)
@given(config_dicts())
@example({"criterion_matrix": [[1, math.inf], [1, 1]]})
@example({"weights": [math.nan, 1, 1, 1, 1]})
def test_config_from_dict_returns_strict_json_config_or_raises_typed_error(data):
    try:
        cfg = config_from_dict(data)
    except AclRiskError:
        return
    assert isinstance(cfg, RunConfig)
    json.dumps(cfg.as_dict(), allow_nan=False)
