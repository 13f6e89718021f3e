"""Tests for the from-scratch gradient-boosted trees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tuning.gbt import GradientBoostedTrees, RegressionTree


class TestRegressionTree:
    def test_constant_target(self):
        X = np.arange(10).reshape(-1, 1).astype(float)
        y = np.full(10, 3.0)
        t = RegressionTree().fit(X, y)
        np.testing.assert_allclose(t.predict(X), 3.0)

    def test_perfect_step_split(self):
        X = np.arange(20).reshape(-1, 1).astype(float)
        y = (X[:, 0] >= 10).astype(float)
        t = RegressionTree(max_depth=1).fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_depth_limits_complexity(self):
        rng = np.random.default_rng(0)
        X = rng.random((64, 1))
        y = np.sin(10 * X[:, 0])
        shallow = RegressionTree(max_depth=1).fit(X, y).predict(X)
        deep = RegressionTree(max_depth=6).fit(X, y).predict(X)
        assert ((deep - y) ** 2).mean() < ((shallow - y) ** 2).mean()

    def test_min_samples_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0])
        t = RegressionTree(max_depth=3, min_samples_leaf=2).fit(X, y)
        # No leaf may isolate the single outlier.
        preds = t.predict(X)
        assert preds.max() < 10.0

    def test_sample_weights_shift_mean(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0.0, 10.0])
        t = RegressionTree().fit(X, y, w=np.array([1.0, 3.0]))
        np.testing.assert_allclose(t.predict(X), 7.5)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_bad_weights_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError):
            RegressionTree().fit(X, np.zeros(2), w=np.array([-1.0, 1.0]))

    def test_multifeature_picks_informative(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 3))
        y = (X[:, 1] > 0.5).astype(float)
        t = RegressionTree(max_depth=1).fit(X, y)
        assert t.nodes[0][0] == 1  # the root's split feature


class TestGradientBoosting:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = 3 * X[:, 0] - 2 * X[:, 1]
        m = GradientBoostedTrees(n_estimators=100, learning_rate=0.2).fit(X, y)
        rmse = np.sqrt(((m.predict(X) - y) ** 2).mean())
        assert rmse < 0.1

    def test_improves_over_single_tree(self):
        rng = np.random.default_rng(0)
        X = rng.random((150, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1] ** 2
        tree = RegressionTree(max_depth=4).fit(X, y)
        gbt = GradientBoostedTrees(n_estimators=60, max_depth=4).fit(X, y)
        assert ((gbt.predict(X) - y) ** 2).mean() < ((tree.predict(X) - y) ** 2).mean()

    def test_generalization_sane(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 2))
        y = X[:, 0] * X[:, 1]
        m = GradientBoostedTrees().fit(X[:200], y[:200])
        test_rmse = np.sqrt(((m.predict(X[200:]) - y[200:]) ** 2).mean())
        assert test_rmse < 0.15

    def test_is_fitted_flag(self):
        m = GradientBoostedTrees()
        assert not m.is_fitted
        m.fit(np.random.default_rng(0).random((10, 1)), np.arange(10.0))
        assert m.is_fitted

    def test_is_fitted_when_target_mean_is_zero_and_no_tree_is_needed(self):
        # A fit that keeps no tree and has a zero base value is still a fit:
        # the tuner must score with the model, not with random numbers.
        X = np.random.default_rng(0).random((10, 2))
        m = GradientBoostedTrees().fit(X, np.zeros(10))
        assert m.is_fitted
        np.testing.assert_array_equal(m.predict(X), np.zeros(10))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_ranking_quality_on_random_monotone_data(self, seed):
        """Boosting must at least get the ordering of a monotone target
        mostly right — the property the tuner relies on."""
        rng = np.random.default_rng(seed)
        X = rng.random((120, 3))
        y = 2 * X[:, 0] + X[:, 1]
        m = GradientBoostedTrees(n_estimators=50).fit(X, y)
        pred = m.predict(X)
        corr = np.corrcoef(pred, y)[0, 1]
        assert corr > 0.9
