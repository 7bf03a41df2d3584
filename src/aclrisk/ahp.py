"""Analytic-hierarchy-process weighting for the five grading indices.

A judgment matrix is a positive reciprocal square matrix of pairwise
importance ratios on the 1..9 scale. Two weight derivations are
provided:

* ``weights_sum_method`` (default): normalize each column by its sum and
  average the rows;
* ``weights_geometric``: n-th root of each row product, normalized.

Consistency is checked through lambda_max = sum_i (A w)_i / (n w_i),
CI = (lambda_max - n) / (n - 1) and CR = CI / RI with RI taken from the
standard random-index table; CR < 0.1 passes (CR is defined as 0 for
n <= 2, where reciprocal matrices are always consistent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .errors import InvalidMatrix, OrderMismatch, cut

RECIPROCITY_TOL = 1e-9

# Random consistency index by matrix order n = 1..9.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}

CONSISTENCY_THRESHOLD = 0.1

# Default pairwise-importance matrix over the five indices
# (knee flexion, hip flexion, lateral alignment, knee-ankle width,
# shoulder-stance width), elicited by expert comparison.
DEFAULT_INDEX_MATRIX = np.array([
    [1,     2,     3,     5,   5],
    [1 / 2, 1,     2,     3,   4],
    [1 / 3, 1 / 2, 1,     3,   2],
    [1 / 5, 1 / 3, 1 / 3, 1,   2],
    [1 / 5, 1 / 4, 1 / 2, 1 / 2, 1],
], dtype=float)

# Fixed five-index weight preset whose fourth component is 0.0860 instead
# of the sum-method value 0.0886; reproduces the reference score sheet
# this tool is validated against.
TABLE5_COMPAT_WEIGHTS = np.array([0.4267, 0.2574, 0.1602, 0.0860, 0.0671])


@dataclass
class ConsistencyReport:
    n: int
    lambda_max: float
    ci: float
    ri: float
    cr: float
    passed: bool


def parse_matrix(rows) -> np.ndarray:
    """Build a judgment matrix from row lists; fraction literals like "1/3" allowed."""
    def cell(v):
        if isinstance(v, bool):
            raise TypeError(f"expected a number, got {v!r}")
        if not isinstance(v, str):
            return float(v)
        # read exactly, a decimal at a cost that does not grow with its exponent; "-0" is 0.0
        number = float(Fraction(v)) if "/" in v else float(Decimal(v) or 0)
        if not math.isfinite(number):
            raise ValueError(f"{v!r} is not a finite number")
        return number

    try:
        if any(isinstance(row, str) for row in rows):
            raise InvalidMatrix(["matrix rows must be lists, not strings"])
        mat = np.array([[cell(v) for v in row] for row in rows], dtype=float)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError, InvalidOperation) as exc:
        raise InvalidMatrix([f"unparseable matrix cell: {cut(exc)}"]) from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidMatrix([f"matrix must be square, got shape {mat.shape}"])
    return mat


def validate(matrix: np.ndarray) -> list[str]:
    """Return all structural violations (empty list means the matrix is valid)."""
    violations: list[str] = []
    try:
        mat = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return ["matrix entries must be numbers"]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return [f"matrix must be square, got shape {mat.shape}"]
    n = mat.shape[0]
    if not (2 <= n <= 9):
        violations.append(f"order must be between 2 and 9, got {n}")
    rows = mat.tolist()
    for i in range(n):
        if rows[i][i] != 1.0:
            violations.append(f"diagonal entry ({i},{i}) must be 1, got {rows[i][i]:g}")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                violations.append(f"entry ({i},{j}) must be finite, got {v:g}")
            elif v <= 0.0:
                violations.append(f"entry ({i},{j}) must be positive, got {v:g}")
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b):
                if abs(a * b - 1.0) > RECIPROCITY_TOL:
                    violations.append(f"reciprocity violated at ({i},{j}): {a:g} * {b:g} != 1")
    return violations


def check_matrix(matrix: np.ndarray) -> np.ndarray:
    """The matrix as floats; InvalidMatrix with every violation if it has any."""
    violations = validate(matrix)
    if violations:
        raise InvalidMatrix(violations)
    return np.asarray(matrix, dtype=float)


def weights_sum_method(matrix: np.ndarray) -> np.ndarray:
    """Column-normalize and average rows (the default derivation)."""
    mat = check_matrix(matrix)
    normalized = mat / mat.sum(axis=0)
    return normalized.mean(axis=1)


def weights_geometric(matrix: np.ndarray) -> np.ndarray:
    """Row-product weights: n-th root of each product, normalized to sum 1."""
    mat = check_matrix(matrix)
    m = mat.prod(axis=1) ** (1.0 / mat.shape[0])
    return m / m.sum()


def derive_weights(matrix: np.ndarray,
                   geometric: bool = False) -> tuple[np.ndarray, ConsistencyReport]:
    """The matrix's weights, by the sum method or the geometric one, and their consistency."""
    weights = weights_geometric(matrix) if geometric else weights_sum_method(matrix)
    return weights, consistency(matrix, weights)


def consistency(matrix: np.ndarray, weights: np.ndarray) -> ConsistencyReport:
    """Consistency check of a judgment matrix against a weight vector."""
    mat = np.asarray(matrix, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != n or w.shape != (n,):
        raise OrderMismatch(f"matrix {mat.shape} vs weights {w.shape}")
    if np.any(w <= 0.0):
        raise OrderMismatch("weights must be strictly positive")
    lambda_max = float(((mat @ w) / (n * w)).sum())
    ci = (lambda_max - n) / (n - 1) if n > 1 else 0.0
    ri = RANDOM_INDEX.get(n, RANDOM_INDEX[9])
    cr = 0.0 if ri == 0.0 else ci / ri
    return ConsistencyReport(
        n=n, lambda_max=lambda_max, ci=ci, ri=ri, cr=cr,
        passed=cr < CONSISTENCY_THRESHOLD,
    )


def aggregate(grades, weights) -> float:
    """Weighted sum of the grade vector; weights are used as given."""
    g = np.asarray(grades, dtype=float)
    w = np.asarray(weights, dtype=float)
    if g.shape != w.shape or g.ndim != 1:
        raise OrderMismatch(f"grades {g.shape} vs weights {w.shape}")
    return float(np.dot(w, g))


def hierarchical_weights(
    criterion_weights,
    groups: list[list[int]],
    index_weights,
) -> np.ndarray:
    """Two-level weights: criterion weight times within-group share.

    ``groups[c]`` lists the index positions belonging to criterion ``c``;
    each group's index weights are renormalized within the group before
    being scaled by the criterion weight, so the result sums to 1.
    """
    cw = np.asarray(criterion_weights, dtype=float)
    iw = np.asarray(index_weights, dtype=float)
    check_groups(groups, cw.shape[0], iw.shape[0])
    out = np.zeros_like(iw)
    for c, group in enumerate(groups):
        share = iw[group] / iw[group].sum()
        out[group] = cw[c] * share
    return out


def check_groups(groups: list[list[int]], n_criteria: int, n_indices: int) -> None:
    """OrderMismatch unless there is one group per criterion and they partition the indices."""
    if len(groups) != n_criteria:
        raise OrderMismatch(f"{len(groups)} groups vs {n_criteria} criteria")
    seen: set[int] = set()
    for group in groups:
        for idx in group:
            if idx in seen:
                raise OrderMismatch(f"index {idx} assigned to more than one criterion")
            seen.add(idx)
    if seen != set(range(n_indices)) or not all(groups):
        raise OrderMismatch("groups must partition the index positions")
