"""Test-only reference: the node-object boosted trees.

This is the gradient-boosted tree model :mod:`repro.tuning.gbt` replaced
(per-node, per-feature argsort splits over ``_Node`` objects, row-by-row
prediction), kept unchanged so differential tests can compare the two
bit for bit. Not imported by anything under ``src/``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np


@dataclasses.dataclass
class _Node:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0


class RegressionTree:
    """A CART regression tree (weighted squared error, exact splits)."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._root: Optional[_Node] = None

    def fit(self, X: np.ndarray, y: np.ndarray, w: Optional[np.ndarray] = None) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) and match y")
        if w is None:
            w = np.ones(len(y))
        w = np.asarray(w, dtype=np.float64)
        if np.any(w < 0) or w.sum() == 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._root = self._build(X, y, w, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(np.average(y, weights=w)))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y, w)
        if split is None:
            return node
        feat, thr = split
        mask = X[:, feat] <= thr
        node.feature = feat
        node.threshold = thr
        node.left = self._build(X[mask], y[mask], w[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], w[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray, w: np.ndarray):
        n, d = X.shape
        best_gain = 1e-12
        best = None
        total_w = w.sum()
        total_wy = (w * y).sum()
        base_sse = (w * y * y).sum() - total_wy**2 / total_w
        for feat in range(d):
            order = np.argsort(X[:, feat], kind="stable")
            xs = X[order, feat]
            ws = w[order]
            wys = ws * y[order]
            cw = np.cumsum(ws)
            cwy = np.cumsum(wys)
            cwyy = np.cumsum(wys * y[order])
            # candidate split points: between distinct consecutive values
            valid = np.nonzero(xs[:-1] < xs[1:])[0]
            if valid.size == 0:
                continue
            k = valid  # split after index k (left = [0..k])
            lw = cw[k]
            rw = total_w - lw
            ok = (k + 1 >= self.min_samples_leaf) & (n - k - 1 >= self.min_samples_leaf)
            ok &= (lw > 0) & (rw > 0)
            if not np.any(ok):
                continue
            lwy = cwy[k]
            rwy = total_wy - lwy
            lsse = cwyy[k] - lwy**2 / np.where(lw > 0, lw, 1)
            rsse = (cwyy[-1] - cwyy[k]) - rwy**2 / np.where(rw > 0, rw, 1)
            gain = np.where(ok, base_sse - (lsse + rsse), -np.inf)
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain = float(gain[i])
                thr = 0.5 * (xs[valid[i]] + xs[valid[i] + 1])
                best = (feat, float(thr))
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = self._root
            while node.feature != -1:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


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

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: Optional[np.ndarray] = None,
    ) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if w is None:
            w = np.ones(len(y))
        w = np.asarray(w, dtype=np.float64)
        self._trees = []
        self._init = float(np.average(y, weights=w))
        pred = np.full(len(y), self._init)
        for _ in range(self.n_estimators):
            residual = y - pred
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X, residual, w)
            step = tree.predict(X)
            if np.allclose(step, 0):
                break
            pred += self.learning_rate * step
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(X), self._init)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(X)
        return out

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees) or self._init != 0.0
