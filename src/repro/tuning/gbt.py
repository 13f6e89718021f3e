"""Gradient-boosted regression trees, implemented from scratch on numpy.

This substitutes for XGBoost (unavailable offline) in the paper's
ML-based cost model. Squared-error boosting over CART trees with exact
greedy splits; supports sample weights, which the model-assisted tuner uses
to blend analytically generated pseudo-samples with real measurements.

Each tree is flat ``feature/threshold/left/right/value`` node arrays in
preorder (leaves: ``feature == -1``, children pointing at themselves); the
ensemble concatenates them, so prediction walks every tree and row at
once, one numpy step per level. ``fit`` sorts ``X`` once: a node's
per-feature order is the global stable order filtered to its rows, which
is exactly what a stable per-node argsort gives.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees"]


def _checked(X, y, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) and match y")
    w = np.ones(len(y)) if w is None else np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must be non-negative with positive sum")
    return X, y, w


def _presort(X: np.ndarray) -> np.ndarray:
    """``(d, n)``: each feature's stable ascending row order."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _walk(nodes: tuple, roots: np.ndarray, depth: int, X: np.ndarray) -> np.ndarray:
    """``(len(roots), n)``: each row's leaf value in each tree, walking all
    trees and rows one level per numpy step (leaves link to themselves)."""
    feature, threshold, left, right, value = nodes
    X = np.asarray(X, dtype=np.float64)
    at = np.repeat(roots, len(X)).reshape(len(roots), len(X))
    rows = np.arange(len(X))
    for _ in range(depth):
        at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
    return value[at]


class RegressionTree:
    """A CART regression tree (weighted squared error, exact splits)."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        #: preorder ``feature, threshold, left, right, value`` arrays
        self.nodes: Optional[tuple] = None
        self.depth = 0

    def fit(self, X: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None) -> "RegressionTree":
        X, y, w = _checked(X, y, w)
        self._grow(X, y, w, _presort(X))
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Build the tree over presorted ``order``; returns each row's leaf
        value (the tree's prediction on ``X``)."""
        nodes: List[list] = []  # [feature, threshold, left, right, value]
        leaf_value = np.empty(len(y))

        def build(idx: np.ndarray, rows: np.ndarray, depth: int) -> int:
            # ``rows`` is ``idx`` in each feature's sorted order, (d, len(idx)).
            wi, yi = w[idx], y[idx]
            total_w = wi.sum()
            if total_w == 0.0:
                raise ZeroDivisionError("node weights sum to zero")
            total_wy = (wi * yi).sum()
            node = len(nodes)
            nodes.append([-1, 0.0, node, node, float(total_wy / total_w)])  # np.average
            self.depth = max(self.depth, depth)
            split = None
            if depth < self.max_depth and len(idx) >= 2 * self.min_samples_leaf:
                base_sse = (wi * yi * yi).sum() - total_wy**2 / total_w
                split = self._best_split(X, y, w, rows, total_w, total_wy, base_sse)
            if split is None:
                leaf_value[idx] = nodes[node][4]
                return node
            goes_left = X[:, split[0]] <= split[1]
            mask, by_row = goes_left[idx], goes_left[rows]
            nodes[node][:2] = split
            nodes[node][2] = build(idx[mask], rows[by_row].reshape(len(rows), -1), depth + 1)
            nodes[node][3] = build(idx[~mask], rows[~by_row].reshape(len(rows), -1), depth + 1)
            return node

        self.depth = 0
        build(np.arange(len(y)), order, 0)
        self.nodes = tuple(np.array(col, dtype=np.float64 if f in (1, 4) else np.intp)
                           for f, col in enumerate(zip(*nodes)))
        return leaf_value

    def _best_split(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, rows: np.ndarray,
                    total_w: float, total_wy: float, base_sse: float):
        d, n = rows.shape
        # Split after sorted position k (left = [0..k]) for lo <= k < hi:
        # both sides keep min_samples_leaf rows.
        lo = max(self.min_samples_leaf, 1) - 1
        hi = min(n - self.min_samples_leaf, n - 1)
        if lo >= hi:
            return None  # e.g. a single row has no split point
        xs = X[rows, np.arange(d)[:, None]]
        ws, ys = w[rows], y[rows]
        wys = ws * ys
        lw = np.cumsum(ws, axis=1)[:, lo:hi]
        cwy = np.cumsum(wys, axis=1)
        cwyy = np.cumsum(wys * ys, axis=1)
        rw = total_w - lw
        lpos = lw > 0
        rpos = rw > 0
        # Only between distinct consecutive values, with weight on each side.
        ok = (xs[:, lo:hi] < xs[:, lo + 1:hi + 1]) & lpos & rpos
        lwy = cwy[:, lo:hi]
        rwy = total_wy - lwy
        lsse = cwyy[:, lo:hi] - lwy**2 / np.where(lpos, lw, 1)
        rsse = (cwyy[:, -1:] - cwyy[:, lo:hi]) - rwy**2 / np.where(rpos, rw, 1)
        gain = np.where(ok, base_sse - (lsse + rsse), -np.inf)
        at = np.argmax(gain, axis=1)
        # Features in order, strictly better only: ties keep the first.
        best_gain = 1e-12
        best = None
        for feat, g in enumerate(gain[np.arange(d), at].tolist()):
            if g > best_gain:
                i = lo + at[feat]
                best_gain = g
                best = (feat, float(0.5 * (xs[feat, i] + xs[feat, i + 1])))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.nodes is None:
            raise RuntimeError("tree is not fitted")
        return _walk(self.nodes, np.zeros(1, dtype=np.intp), self.depth, X)[0]


class GradientBoostedTrees:
    """Squared-loss gradient boosting (the XGBoost stand-in)."""

    def __init__(
        self,
        n_estimators: int = 80,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
    ) -> None:
        if n_estimators < 1 or not (0 < learning_rate <= 1):
            raise ValueError("need n_estimators >= 1 and 0 < learning_rate <= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._init = 0.0
        self._trees: List[RegressionTree] = []
        self.is_fitted = False

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        X, y, w = _checked(X, y, w)
        order = _presort(X)
        trees: List[RegressionTree] = []
        self._init = float(np.average(y, weights=w))
        pred = np.full(len(y), self._init)
        for _ in range(self.n_estimators):
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            step = tree._grow(X, y - pred, w, order)
            if np.allclose(step, 0):
                break
            pred += self.learning_rate * step
            trees.append(tree)
        self._trees = trees
        if trees:
            # Child links offset by where each tree's nodes start.
            self._roots = np.cumsum([0] + [len(t.nodes[4]) for t in trees[:-1]])
            self._nodes = tuple(
                np.concatenate([t.nodes[f] + (r if f in (2, 3) else 0)
                                for t, r in zip(trees, self._roots)])
                for f in range(5))
            self._depth = max(t.depth for t in trees)
        self.is_fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(len(X), self._init)
        if self._trees:
            for step in _walk(self._nodes, self._roots, self._depth, X):
                out += self.learning_rate * step
        return out
