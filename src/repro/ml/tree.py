"""CART decision trees (regression and classification) on numpy arrays.

scikit-learn is not available offline, so the forest/boosting models the paper
uses are built on these trees.  Splits are axis-aligned thresholds chosen to
minimise the squared error (regression) or Gini impurity (classification);
split search is vectorised per feature using prefix sums over the sorted
targets, which keeps training fast enough for the few-thousand-sample
training sets COMPREDICT and the tier predictor use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeRegressor", "DecisionTreeClassifier"]


@dataclass
class _Node:
    """A tree node: either a split (feature, threshold) or a leaf (value)."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float | np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _validate_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(y):
        raise ValueError(f"X and y have different lengths: {len(X)} vs {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y


class _BaseTree:
    """Shared fitting machinery for the regression and classification trees."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self._n_features: int = 0

    # -- subclass hooks -------------------------------------------------------
    def _leaf_value(self, y: np.ndarray):
        raise NotImplementedError

    def _impurity_gain(
        self, y_sorted: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Per-split-position impurity decrease for one sorted feature."""
        raise NotImplementedError

    # -- fitting ---------------------------------------------------------------
    def _resolve_max_features(self, n_features: int) -> int:
        max_features = self.max_features
        if max_features is None:
            return n_features
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)) or 1)
        if isinstance(max_features, float):
            return max(1, int(round(max_features * n_features)))
        if isinstance(max_features, int):
            return max(1, min(max_features, n_features))
        raise ValueError(f"unsupported max_features {max_features!r}")

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray) -> None:
        self._n_features = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._max_features_resolved = self._resolve_max_features(self._n_features)
        self._root = self._build(X, y, depth=0)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        n_samples = len(y)
        if (
            depth >= self.max_depth
            or n_samples < self.min_samples_split
            or self._is_pure(y)
        ):
            return _Node(value=self._leaf_value(y))

        split = self._find_best_split(X, y)
        if split is None:
            return _Node(value=self._leaf_value(y))
        feature, threshold = split
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1)
        right = self._build(X[~mask], y[~mask], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right)

    def _is_pure(self, y: np.ndarray) -> bool:
        return len(np.unique(y)) <= 1

    def _find_best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n_samples, n_features = X.shape
        if self._max_features_resolved < n_features:
            features = self._rng.choice(
                n_features, size=self._max_features_resolved, replace=False
            )
        else:
            features = np.arange(n_features)

        best_gain = 0.0
        best: tuple[int, float] | None = None
        min_leaf = self.min_samples_leaf
        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            x_sorted = X[order, feature]
            y_sorted = y[order]
            gains, baseline = self._impurity_gain(y_sorted)
            if gains.size == 0:
                continue
            # Candidate split after position i puts i+1 samples on the left.
            positions = np.arange(1, n_samples)
            valid = (
                (positions >= min_leaf)
                & (positions <= n_samples - min_leaf)
                & (x_sorted[1:] > x_sorted[:-1])
            )
            if not np.any(valid):
                continue
            gains = np.where(valid, gains, -np.inf)
            best_position = int(np.argmax(gains))
            gain = gains[best_position]
            if gain > best_gain + 1e-12:
                best_gain = float(gain)
                below, above = x_sorted[best_position], x_sorted[best_position + 1]
                threshold = 0.5 * (below + above)
                # Between neighbouring floats the midpoint can round up to
                # the upper value, which would send every sample left.
                if not threshold < above:
                    threshold = below
                best = (int(feature), float(threshold))
        return best

    # -- prediction -------------------------------------------------------------
    def _predict_row_value(self, row: np.ndarray):
        node = self._root
        while node is not None and not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        if node is None:
            raise RuntimeError("tree has not been fitted")
        return node.value

    def _check_fitted_and_shape(self, X) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("model must be fitted before calling predict")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must have shape (n, {self._n_features}), got {X.shape}"
            )
        return X

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("model must be fitted first")
        return walk(self._root)


class DecisionTreeRegressor(_BaseTree):
    """CART regression tree minimising within-leaf squared error."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = _validate_xy(X, y)
        y = np.asarray(y, dtype=float)
        self._fit_arrays(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_fitted_and_shape(X)
        return np.array([self._predict_row_value(row) for row in X], dtype=float)

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(np.mean(y))

    def _impurity_gain(self, y_sorted: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(y_sorted)
        if n < 2:
            return np.empty(0), 0.0
        prefix_sum = np.cumsum(y_sorted)
        prefix_sq = np.cumsum(y_sorted ** 2)
        total_sum = prefix_sum[-1]
        total_sq = prefix_sq[-1]
        left_counts = np.arange(1, n)
        right_counts = n - left_counts
        left_sum = prefix_sum[:-1]
        right_sum = total_sum - left_sum
        left_sq = prefix_sq[:-1]
        right_sq = total_sq - left_sq
        # Sum of squared errors of each side equals sum(y^2) - (sum y)^2 / count.
        sse_left = left_sq - left_sum ** 2 / left_counts
        sse_right = right_sq - right_sum ** 2 / right_counts
        sse_total = total_sq - total_sum ** 2 / n
        gains = sse_total - (sse_left + sse_right)
        return gains, float(sse_total)


class DecisionTreeClassifier(_BaseTree):
    """CART classification tree minimising Gini impurity."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = _validate_xy(X, y)
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self._n_classes = len(self.classes_)
        self._fit_arrays(X, y_encoded)
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_fitted_and_shape(X)
        return np.vstack([self._predict_row_value(row) for row in X])

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(int), minlength=self._n_classes)
        return counts / counts.sum()

    def _impurity_gain(self, y_sorted: np.ndarray) -> tuple[np.ndarray, float]:
        n = len(y_sorted)
        if n < 2:
            return np.empty(0), 0.0
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y_sorted.astype(int)] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        left_counts = np.arange(1, n, dtype=float)
        right_counts = n - left_counts
        left = prefix[:-1]
        right = total - left
        gini_left = 1.0 - np.sum((left / left_counts[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / right_counts[:, None]) ** 2, axis=1)
        gini_total = 1.0 - np.sum((total / n) ** 2)
        weighted = (left_counts * gini_left + right_counts * gini_right) / n
        gains = gini_total - weighted
        return gains, float(gini_total)
