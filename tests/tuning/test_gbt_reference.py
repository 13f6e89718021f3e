"""Differential gate: :mod:`repro.tuning.gbt` must grow the same trees and
predict the same bits as the node-object reference in ``reference_gbt.py``.

Inputs stress the split search's corner cases: duplicate feature values and
all-equal columns (no valid split point), zero and fractional weights,
``min_samples_leaf`` 0 (single-row nodes), shallow and deep trees, and
targets the first tree (or no tree at all) already fits, so boosting stops
early at the ``allclose`` check.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tuning.gbt import GradientBoostedTrees, RegressionTree

from . import reference_gbt as ref


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _ref_nodes(tree: ref.RegressionTree):
    """Preorder ``(feature, threshold, value)`` of a reference tree, floats
    as hex so the comparison is bitwise."""
    out = []

    def walk(node):
        out.append((node.feature, node.threshold.hex(), node.value.hex()))
        if node.feature != -1:
            walk(node.left)
            walk(node.right)

    walk(tree._root)
    return out


def _nodes(tree: RegressionTree):
    """The same listing from the flat preorder node arrays."""
    feature, threshold, _, _, value = tree.nodes
    return [(int(f), float(t).hex(), float(v).hex())
            for f, t, v in zip(feature, threshold, value)]


@st.composite
def problems(draw):
    n = draw(st.integers(1, 400))
    d = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct levels per column -> many duplicate values; one level ->
    # an all-equal column with no split point.
    levels = rng.integers(1, max(2, n // draw(st.sampled_from([1, 4, 32]))) + 1, size=d)
    X = rng.integers(0, levels, size=(n, d)) * 0.5 + rng.normal(size=d).round(2)
    const = rng.random(d) < 0.2
    X[:, const] = 1.25
    kind = draw(st.sampled_from(["noise", "step", "constant"]))
    if kind == "noise":
        y = rng.normal(size=n)
    elif kind == "step":
        y = np.where(X[:, rng.integers(d)] > X[:, rng.integers(d)].mean(), 2.0, -1.0)
    else:
        y = np.full(n, 3.5)
    weights = draw(st.sampled_from(["none", "ones", "mixed"]))
    if weights == "none":
        w = None
    elif weights == "ones":
        w = np.ones(n)
    else:
        w = rng.choice([0.0, 0.25, 1.0], size=n)
        w[rng.integers(n)] = 1.0  # keep the weight sum positive
    msl = draw(st.sampled_from([0, 1, 2]))
    depth = draw(st.sampled_from([1, 6]))
    probe = np.vstack([X, rng.integers(-1, levels + 1, size=(16, d)) * 0.5])
    return X, y, w, msl, depth, probe


@settings(max_examples=60, deadline=None)
@given(problems())
def test_tree_matches_reference(problem):
    X, y, w, msl, depth, probe = problem
    new = RegressionTree(max_depth=depth, min_samples_leaf=msl).fit(X, y, w)
    old = ref.RegressionTree(max_depth=depth, min_samples_leaf=msl).fit(X, y, w)
    assert _nodes(new) == _ref_nodes(old)
    np.testing.assert_array_equal(_bits(new.predict(probe)), _bits(old.predict(probe)))


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from([0.15, 1.0]))
def test_boosting_matches_reference(problem, learning_rate):
    X, y, w, msl, depth, probe = problem
    kw = dict(n_estimators=8, learning_rate=learning_rate, max_depth=depth,
              min_samples_leaf=msl)
    new = GradientBoostedTrees(**kw).fit(X, y, w)
    old = ref.GradientBoostedTrees(**kw).fit(X, y, w)
    assert new._init.hex() == old._init.hex()
    assert len(new._trees) == len(old._trees)
    for a, b in zip(new._trees, old._trees):
        assert _nodes(a) == _ref_nodes(b)
    np.testing.assert_array_equal(_bits(new.predict(probe)), _bits(old.predict(probe)))


def test_already_fitted_target_stops_before_first_tree():
    X = np.arange(12.0).reshape(-1, 2)
    y = np.full(6, -0.75)
    new = GradientBoostedTrees().fit(X, y)
    old = ref.GradientBoostedTrees().fit(X, y)
    assert len(new._trees) == len(old._trees) == 0
    np.testing.assert_array_equal(_bits(new.predict(X)), _bits(old.predict(X)))


def test_single_row_nodes_without_leaf_minimum():
    # min_samples_leaf=0 lets the build reach one-row nodes, which have no
    # split point at all.
    X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    y = np.array([1.0, -2.0, 4.0])
    new = RegressionTree(max_depth=6, min_samples_leaf=0).fit(X, y)
    old = ref.RegressionTree(max_depth=6, min_samples_leaf=0).fit(X, y)
    assert _nodes(new) == _ref_nodes(old)
    assert len(_nodes(new)) == 5
    np.testing.assert_array_equal(_bits(new.predict(X)), y.view(np.int64))
