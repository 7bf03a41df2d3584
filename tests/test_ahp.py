from __future__ import annotations

import json
import struct
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclrisk import ahp
from aclrisk.errors import InvalidMatrix, OrderMismatch

from conftest import CRITERION_MATRIX as TWO_LEVEL_MATRIX

FIVE_INDEX_MATRIX = ahp.DEFAULT_INDEX_MATRIX


def consistent_matrix(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w[:, None] / w[None, :]


# -- validation --------------------------------------------------------------


def test_default_matrices_validate():
    assert ahp.validate(FIVE_INDEX_MATRIX) == []
    assert ahp.validate(TWO_LEVEL_MATRIX) == []
    assert ahp.validate(np.ones((9, 9))) == []  # the largest order


@pytest.mark.parametrize("order", [1, 10])
def test_an_order_outside_two_to_nine_is_a_violation(order):
    assert ahp.validate(np.ones((order, order))) == [f"order must be between 2 and 9, got {order}"]


def test_reciprocity_violation_located(monkeypatch):
    mat = np.array([[1.0, 2.0], [1.0, 1.0]])
    violations = ahp.validate(mat)
    assert len(violations) == 1
    assert "(0,1)" in violations[0]
    monkeypatch.setattr(ahp, "RECIPROCITY_TOL", 0.5)  # a product exactly at the tolerance passes
    assert ahp.validate([[1, 1.5], [1, 1]]) == []


def test_diagonal_violation():
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert any("diagonal" in v for v in ahp.validate(mat))


def test_nonpositive_entry_violation():
    mat = np.array([[1.0, -2.0], [-0.5, 1.0]])
    assert any("positive" in v for v in ahp.validate(mat))
    # a zero entry is one violation, and its pair is not also a reciprocity violation
    assert ahp.validate([[1, 0], [1, 1]]) == ["entry (0,1) must be positive, got 0"]
    assert ahp.validate([[1, 1], [0, 1]]) == ["entry (1,0) must be positive, got 0"]


@pytest.mark.parametrize("text", ["[[1, NaN], [NaN, 1]]", "[[1, Infinity], [NaN, 1]]",
                                  "[[1, 2], [Infinity, 1]]"])
def test_non_finite_entry_violation(text):
    violations = ahp.validate(ahp.parse_matrix(json.loads(text)))
    assert any("finite" in v for v in violations)


@pytest.mark.parametrize("matrix", ["abc", [[1, "x"], [1, 1]], [[1, 2], [1]]],
                         ids=["string", "string-cell", "ragged"])
def test_a_matrix_that_is_not_numbers_is_a_violation(matrix):
    assert ahp.validate(matrix) == ["matrix entries must be numbers"]
    with pytest.raises(InvalidMatrix):
        ahp.weights_sum_method(matrix)


def test_weights_refuse_invalid_matrix():
    with pytest.raises(InvalidMatrix):
        ahp.weights_sum_method(np.array([[1.0, 2.0], [1.0, 1.0]]))


def test_parse_matrix_accepts_fraction_literals():
    mat = ahp.parse_matrix([["1", "1/3"], ["3", "1"]])
    assert mat[0, 1] == pytest.approx(1 / 3, abs=1e-15)
    with pytest.raises(InvalidMatrix):
        ahp.parse_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InvalidMatrix):
        ahp.parse_matrix([["1", "x/y"], ["1", "1"]])
    with pytest.raises(InvalidMatrix):
        ahp.parse_matrix([[1, 10**400], [1, 1]])


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400", "1e10000000", "1/0"])
def test_parse_matrix_rejects_non_finite_string_cells(cell):
    start = time.perf_counter()
    with pytest.raises(InvalidMatrix):
        ahp.parse_matrix([["1", cell], ["1", "1"]])
    assert time.perf_counter() - start < 1.0  # not a function of the exponent


def test_parse_matrix_rejects_boolean_cells():
    with pytest.raises(InvalidMatrix, match="expected a number, got True"):
        ahp.parse_matrix([[True, 1], [1, True]])


def test_parse_matrix_rejects_rows_given_as_strings():
    with pytest.raises(InvalidMatrix):
        ahp.parse_matrix(["11", "11"])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


DECIMALS = st.from_regex(r"[-+]?([0-9]{1,30}\.?[0-9]{0,30}|\.[0-9]{1,30})([eE][-+]?[0-9]{1,3})?",
                         fullmatch=True)
RATIOS = st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(1, 10**30))


@settings(max_examples=300, deadline=None)
@given(DECIMALS | RATIOS)
def test_parse_matrix_string_cell_is_its_exact_value_rounded(text):
    try:
        expected = float(Fraction(text))
    except OverflowError:
        with pytest.raises(InvalidMatrix):
            ahp.parse_matrix([[text]])
        return
    assert bits(ahp.parse_matrix([[text]])[0, 0]) == bits(expected)


# -- weight derivations --------------------------------------------------------


def test_sum_method_two_level_weight_multiset():
    weights = ahp.weights_sum_method(TWO_LEVEL_MATRIX)
    assert sorted(weights) == pytest.approx([0.25, 0.75], abs=1e-9)
    # item 1 dominates the matrix, so it carries the larger weight
    assert weights[0] == pytest.approx(0.75, abs=1e-9)


def test_all_ones_matrix_gives_uniform_weights():
    mat = np.ones((3, 3))
    for method in (ahp.weights_sum_method, ahp.weights_geometric):
        assert method(mat) == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_geometric_recovers_consistent_weights_exactly():
    w = (0.5, 0.3, 0.2)
    mat = consistent_matrix(w)
    assert ahp.weights_geometric(mat) == pytest.approx(w, abs=1e-9)
    assert ahp.weights_sum_method(mat) == pytest.approx(w, abs=1e-9)


def test_geometric_matches_brute_force_products():
    # independent oracle: plain loops for row products and n-th roots
    mat = FIVE_INDEX_MATRIX
    n = mat.shape[0]
    roots = []
    for i in range(n):
        product = 1.0
        for j in range(n):
            product *= mat[i, j]
        roots.append(product ** (1.0 / n))
    expected = [r / sum(roots) for r in roots]
    assert ahp.weights_geometric(mat) == pytest.approx(expected, abs=1e-9)


# -- consistency ---------------------------------------------------------------


def test_consistency_of_five_index_matrix(monkeypatch):
    weights = ahp.weights_sum_method(FIVE_INDEX_MATRIX)
    report = ahp.consistency(FIVE_INDEX_MATRIX, weights)
    assert report.lambda_max == pytest.approx(5.126, abs=5e-3)
    assert report.ci == pytest.approx(0.031, abs=1e-3)
    assert report.ri == 1.12
    assert report.cr == pytest.approx(0.028, abs=1e-3)
    assert report.passed
    monkeypatch.setattr(ahp, "CONSISTENCY_THRESHOLD", report.cr)  # the paper's rule is CR < 0.1
    assert not ahp.consistency(FIVE_INDEX_MATRIX, weights).passed


def test_consistency_of_uniform_matrix():
    mat = np.ones((3, 3))
    report = ahp.consistency(mat, np.full(3, 1 / 3))
    assert report.lambda_max == pytest.approx(3.0, abs=1e-12)
    assert report.ci == pytest.approx(0.0, abs=1e-12)
    assert report.cr == pytest.approx(0.0, abs=1e-12)
    one = ahp.consistency(np.ones((1, 1)), np.ones(1))
    assert (one.ci, one.cr, one.passed) == (0.0, 0.0, True)


def test_consistency_order_mismatch():
    with pytest.raises(OrderMismatch):
        ahp.consistency(FIVE_INDEX_MATRIX, np.ones(3) / 3)
    with pytest.raises(OrderMismatch):
        ahp.consistency(TWO_LEVEL_MATRIX, np.array([1.0, 0.0]))


# -- aggregation -----------------------------------------------------------------


def test_aggregate_reference_rows():
    assert ahp.aggregate([9, 9, 9, 9, 9], ahp.TABLE5_COMPAT_WEIGHTS) == pytest.approx(
        8.9766, abs=1e-3)
    assert ahp.aggregate([1, 1, 1, 1, 5], ahp.TABLE5_COMPAT_WEIGHTS) == pytest.approx(
        1.2658, abs=1e-3)


def test_aggregate_uniform_weights():
    assert ahp.aggregate([5, 5, 5, 5, 5], [0.2] * 5) == 5.0


def test_aggregate_is_linear():
    w = ahp.TABLE5_COMPAT_WEIGHTS
    g1 = np.array([9, 5, 1, 5, 9], dtype=float)
    g2 = np.array([1, 1, 9, 5, 5], dtype=float)
    assert ahp.aggregate(g1 + g2, w) == pytest.approx(
        ahp.aggregate(g1, w) + ahp.aggregate(g2, w), abs=1e-12)


def test_aggregate_order_mismatch():
    with pytest.raises(OrderMismatch):
        ahp.aggregate([9, 9, 9], ahp.TABLE5_COMPAT_WEIGHTS)


# -- properties over random reciprocal matrices ----------------------------------

SCALE_VALUES = [1, 2, 3, 4, 5, 6, 7, 8, 9,
                1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6, 1 / 7, 1 / 8, 1 / 9]


@st.composite
def reciprocal_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    mat = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from(SCALE_VALUES))
            mat[i, j] = v
            mat[j, i] = 1.0 / v
    return mat


@settings(max_examples=60, deadline=None)
@given(reciprocal_matrices())
def test_weight_methods_return_distributions(mat):
    for method in (ahp.weights_sum_method, ahp.weights_geometric):
        w = method(mat)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(reciprocal_matrices())
def test_lambda_max_at_least_order(mat):
    n = mat.shape[0]
    for method in (ahp.weights_sum_method, ahp.weights_geometric):
        report = ahp.consistency(mat, method(mat))
        assert report.lambda_max >= n - 1e-9


@settings(max_examples=40, deadline=None)
@given(reciprocal_matrices(), st.randoms(use_true_random=False))
def test_permutation_equivariance(mat, rnd):
    n = mat.shape[0]
    perm = list(range(n))
    rnd.shuffle(perm)
    permuted = mat[np.ix_(perm, perm)]
    w = ahp.weights_sum_method(mat)
    w_p = ahp.weights_sum_method(permuted)
    assert w_p == pytest.approx(w[perm], abs=1e-9)
    r = ahp.consistency(mat, w)
    r_p = ahp.consistency(permuted, w_p)
    assert r_p.lambda_max == pytest.approx(r.lambda_max, abs=1e-9)
    assert r_p.ci == pytest.approx(r.ci, abs=1e-9)
    assert r_p.cr == pytest.approx(r.cr, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6))
def test_consistent_matrices_have_zero_ci(raw):
    w = np.array(raw) / sum(raw)
    mat = consistent_matrix(w)
    for method in (ahp.weights_sum_method, ahp.weights_geometric):
        got = method(mat)
        assert got == pytest.approx(list(w), abs=1e-9)
        report = ahp.consistency(mat, got)
        assert report.lambda_max == pytest.approx(mat.shape[0], abs=1e-9)
        assert report.ci == pytest.approx(0.0, abs=1e-9)
        assert report.cr == pytest.approx(0.0, abs=1e-9)


# -- hierarchical combination -----------------------------------------------------


def test_hierarchical_weights_refuse_an_empty_group():
    # the empty group's criterion weight would be lost: the weights would sum to 0.75
    with pytest.raises(OrderMismatch):
        ahp.hierarchical_weights([0.75, 0.25], [[0, 1, 2, 3, 4], []], [0.2] * 5)


def test_hierarchical_weights_combine_levels():
    index_w = np.array([0.4, 0.2, 0.2, 0.1, 0.1])
    combined = ahp.hierarchical_weights([0.25, 0.75], [[0, 1], [2, 3, 4]], index_w)
    assert combined.sum() == pytest.approx(1.0, abs=1e-12)
    assert combined[0] == pytest.approx(0.25 * 0.4 / 0.6)
    assert combined[2] == pytest.approx(0.75 * 0.2 / 0.4)


def test_hierarchical_weights_bad_groups():
    index_w = np.ones(5) / 5
    with pytest.raises(OrderMismatch):
        ahp.hierarchical_weights([0.5, 0.5], [[0, 1], [1, 2, 3, 4]], index_w)
    with pytest.raises(OrderMismatch):
        ahp.hierarchical_weights([0.5, 0.5], [[0, 1], [2, 3]], index_w)
    with pytest.raises(OrderMismatch):
        ahp.hierarchical_weights([1.0], [[0, 1], [2, 3, 4]], index_w)
