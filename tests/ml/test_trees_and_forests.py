"""Tests for decision trees, random forests and gradient boosting."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    r2_score,
)


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(400, 4))
    y = 3.0 * X[:, 0] + np.sin(3 * X[:, 1]) + 0.5 * X[:, 2] ** 2 + rng.normal(0, 0.05, 400)
    return X[:300], y[:300], X[300:], y[300:]


@pytest.fixture(scope="module")
def classification_data():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(400, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X[:300], y[:300], X[300:], y[300:]


class TestDecisionTreeRegressor:
    def test_fits_nonlinear_signal(self, regression_data):
        X_train, y_train, X_test, y_test = regression_data
        model = DecisionTreeRegressor(max_depth=8).fit(X_train, y_train)
        assert r2_score(y_test, model.predict(X_test)) > 0.8

    def test_single_leaf_predicts_mean(self):
        X = np.zeros((10, 2))
        y = np.arange(10, dtype=float)
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(np.mean(y))
        assert model.depth == 0

    def test_max_depth_respected(self, regression_data):
        X_train, y_train, _, _ = regression_data
        model = DecisionTreeRegressor(max_depth=2).fit(X_train, y_train)
        assert model.depth <= 2

    def test_min_samples_leaf(self, regression_data):
        X_train, y_train, _, _ = regression_data
        deep = DecisionTreeRegressor(max_depth=12, min_samples_leaf=1).fit(X_train, y_train)
        shallow = DecisionTreeRegressor(max_depth=12, min_samples_leaf=60).fit(X_train, y_train)
        assert shallow.depth <= deep.depth

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_split_between_neighbouring_floats_keeps_both_children(self):
        # 0.5 * (a + b) rounds up to b for these neighbours.
        a, b = 27.727556343612715, 27.72755634361272
        assert 0.5 * (a + b) == b
        model = DecisionTreeRegressor(max_depth=3, min_samples_split=2, min_samples_leaf=1)
        model.fit(np.array([[a], [b]]), np.array([0.0, 10.0]))
        assert model.predict(np.array([[a], [b], [30.0]])).tolist() == [0.0, 10.0, 10.0]

    def test_wrong_feature_count_rejected(self, regression_data):
        X_train, y_train, _, _ = regression_data
        model = DecisionTreeRegressor().fit(X_train, y_train)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 9)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((3, 2)), np.zeros(4))


class TestDecisionTreeClassifier:
    def test_learns_linear_boundary(self, classification_data):
        X_train, y_train, X_test, y_test = classification_data
        model = DecisionTreeClassifier(max_depth=6).fit(X_train, y_train)
        accuracy = float(np.mean(model.predict(X_test) == y_test))
        assert accuracy > 0.85

    def test_predict_proba_rows_sum_to_one(self, classification_data):
        X_train, y_train, X_test, _ = classification_data
        model = DecisionTreeClassifier(max_depth=4).fit(X_train, y_train)
        probabilities = model.predict_proba(X_test)
        assert probabilities.shape == (len(X_test), 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_string_labels_supported(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array(["cool", "cool", "hot", "hot"])
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert list(model.predict(np.array([[0.05], [0.95]]))) == ["cool", "hot"]


class TestRandomForest:
    def test_regressor_beats_single_shallow_tree(self, regression_data):
        X_train, y_train, X_test, y_test = regression_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X_train, y_train)
        forest = RandomForestRegressor(
            n_estimators=30, max_depth=8, random_state=0
        ).fit(X_train, y_train)
        assert r2_score(y_test, forest.predict(X_test)) > r2_score(
            y_test, tree.predict(X_test)
        )

    def test_regressor_is_deterministic_given_seed(self, regression_data):
        X_train, y_train, X_test, _ = regression_data
        first = RandomForestRegressor(n_estimators=5, random_state=3).fit(X_train, y_train)
        second = RandomForestRegressor(n_estimators=5, random_state=3).fit(X_train, y_train)
        assert np.allclose(first.predict(X_test), second.predict(X_test))

    def test_classifier_accuracy_and_probabilities(self, classification_data):
        X_train, y_train, X_test, y_test = classification_data
        model = RandomForestClassifier(n_estimators=20, random_state=0).fit(X_train, y_train)
        accuracy = float(np.mean(model.predict(X_test) == y_test))
        assert accuracy > 0.9
        probabilities = model.predict_proba(X_test)
        assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)


class TestGradientBoosting:
    def test_fits_nonlinear_signal(self, regression_data):
        X_train, y_train, X_test, y_test = regression_data
        model = GradientBoostingRegressor(
            n_estimators=150, learning_rate=0.1, max_depth=3, random_state=0
        ).fit(X_train, y_train)
        assert r2_score(y_test, model.predict(X_test)) > 0.85

    def test_more_stages_reduce_training_error(self, regression_data):
        X_train, y_train, _, _ = regression_data
        few = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X_train, y_train)
        many = GradientBoostingRegressor(n_estimators=100, random_state=0).fit(X_train, y_train)
        error_few = np.mean((few.predict(X_train) - y_train) ** 2)
        error_many = np.mean((many.predict(X_train) - y_train) ** 2)
        assert error_many < error_few

    def test_subsample_supported(self, regression_data):
        X_train, y_train, X_test, y_test = regression_data
        model = GradientBoostingRegressor(
            n_estimators=80, subsample=0.7, random_state=1
        ).fit(X_train, y_train)
        assert r2_score(y_test, model.predict(X_test)) > 0.7

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))
