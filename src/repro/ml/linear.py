"""Linear models: ridge regression, support-vector regression, and averaging.

The paper's model comparison tables include SVR and a naive "Averaging"
baseline next to the tree ensembles.  ``SupportVectorRegressor`` optimises the
epsilon-insensitive primal (with an L2 penalty) by L-BFGS over a smooth
soft-plus approximation of the hinge, optionally after a random-Fourier-feature
lift that approximates an RBF kernel; this keeps the implementation compact
while reproducing SVR's characteristic behaviour (decent but below the tree
ensembles on these tabular prediction tasks).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AveragingRegressor", "RidgeRegressor", "SupportVectorRegressor"]


class AveragingRegressor:
    """Predicts the training-set mean for every input (the paper's naive baseline)."""

    def __init__(self):
        self._mean: float | None = None

    def fit(self, X, y) -> "AveragingRegressor":
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._mean = float(np.mean(y))
        return self

    def predict(self, X) -> np.ndarray:
        if self._mean is None:
            raise RuntimeError("model must be fitted before calling predict")
        X = np.asarray(X, dtype=float)
        return np.full(len(X), self._mean)


class RidgeRegressor:
    """Closed-form L2-regularised linear regression."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "RidgeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y have different lengths")
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            X_centered = X - x_mean
            y_centered = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            X_centered, y_centered = X, y
        gram = X_centered.T @ X_centered + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, X_centered.T @ y_centered)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model must be fitted before calling predict")
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_


class SupportVectorRegressor:
    """Epsilon-insensitive SVR with an optional RBF random-feature lift.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger = fit harder).
    epsilon:
        Half-width of the insensitive tube around the targets.
    kernel:
        ``"linear"`` or ``"rbf"``.  The RBF kernel is approximated with
        random Fourier features so training stays a smooth convex problem.
    gamma:
        RBF bandwidth; ``"scale"`` uses 1 / (n_features * Var(X)).
    n_components:
        Number of random Fourier features when ``kernel="rbf"``.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.05,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        n_components: int = 100,
        random_state: int | None = None,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if kernel not in ("linear", "rbf"):
            raise ValueError("kernel must be 'linear' or 'rbf'")
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.n_components = n_components
        self.random_state = random_state
        self._weights: np.ndarray | None = None
        self._feature_state: tuple[np.ndarray, np.ndarray] | None = None
        self._x_mean: np.ndarray | None = None
        self._x_scale: np.ndarray | None = None

    # -- feature maps ----------------------------------------------------------
    def _standardize(self, X: np.ndarray, fit: bool) -> np.ndarray:
        if fit:
            self._x_mean = X.mean(axis=0)
            scale = X.std(axis=0)
            scale[scale == 0] = 1.0
            self._x_scale = scale
        return (X - self._x_mean) / self._x_scale

    def _lift(self, X: np.ndarray, fit: bool) -> np.ndarray:
        if self.kernel == "linear":
            return np.hstack([X, np.ones((len(X), 1))])
        if fit:
            rng = np.random.default_rng(self.random_state)
            if self.gamma == "scale":
                variance = float(X.var()) or 1.0
                gamma = 1.0 / (X.shape[1] * variance)
            else:
                gamma = float(self.gamma)
            frequencies = rng.normal(
                scale=np.sqrt(2.0 * gamma), size=(X.shape[1], self.n_components)
            )
            phases = rng.uniform(0, 2 * np.pi, size=self.n_components)
            self._feature_state = (frequencies, phases)
        frequencies, phases = self._feature_state
        projected = X @ frequencies + phases
        features = np.sqrt(2.0 / self.n_components) * np.cos(projected)
        return np.hstack([features, np.ones((len(X), 1))])

    # -- fitting -----------------------------------------------------------------
    def fit(self, X, y) -> "SupportVectorRegressor":
        # Imported here: scipy.optimize adds ~40 MB of resident memory, which
        # only callers that fit an SVR should pay.
        from scipy import optimize

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y have different lengths")
        X = self._standardize(X, fit=True)
        features = self._lift(X, fit=True)
        n_weights = features.shape[1]
        epsilon = self.epsilon
        C = self.C

        def objective(weights: np.ndarray) -> tuple[float, np.ndarray]:
            predictions = features @ weights
            errors = predictions - y
            # Squared epsilon-insensitive loss (smooth, convex).
            excess = np.maximum(np.abs(errors) - epsilon, 0.0)
            loss = C * np.sum(excess ** 2) + 0.5 * np.sum(weights[:-1] ** 2)
            gradient_errors = 2.0 * C * excess * np.sign(errors)
            gradient = features.T @ gradient_errors
            gradient[:-1] += weights[:-1]
            return float(loss), gradient

        initial = np.zeros(n_weights)
        result = optimize.minimize(
            objective, initial, jac=True, method="L-BFGS-B", options={"maxiter": 500}
        )
        self._weights = result.x
        return self

    def predict(self, X) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("model must be fitted before calling predict")
        X = np.asarray(X, dtype=float)
        X = self._standardize(X, fit=False)
        features = self._lift(X, fit=False)
        return features @ self._weights
