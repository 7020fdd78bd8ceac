"""Expectation-maximization clustering with automatic model selection.

The paper clusters transactions with WEKA's EM implementation because "it
does not require one to specify the number of clusters beforehand".  This
module reproduces that behaviour: a diagonal-covariance Gaussian mixture is
fitted for a range of cluster counts (seeded by k-means) and the count with
the best Bayesian information criterion is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kmeans import KMeans

_LOG_2PI = math.log(2.0 * math.pi)
#: Variance floor keeps degenerate (constant) features from blowing up the
#: likelihood.
_MIN_VARIANCE = 1e-4


@dataclass
class GaussianMixtureModel:
    """A fitted diagonal-covariance Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    bic: float
    iterations: int

    @property
    def n_clusters(self) -> int:
        return int(self.means.shape[0])

    # ------------------------------------------------------------------
    def log_responsibilities(self, points: np.ndarray) -> np.ndarray:
        """Log of the (unnormalized) posterior cluster probabilities."""
        points = np.asarray(points, dtype=float)
        log_probabilities = np.zeros((points.shape[0], self.n_clusters))
        for cluster in range(self.n_clusters):
            log_probabilities[:, cluster] = (
                np.log(self.weights[cluster] + 1e-12)
                + self._component_log_density(points, cluster)
            )
        return log_probabilities

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Hard cluster assignment for each row of ``points``."""
        if len(points) == 0:
            return np.zeros(0, dtype=int)
        return np.argmax(self.log_responsibilities(points), axis=1)

    def predict_one(self, point) -> int:
        return int(self.predict(np.asarray([point], dtype=float))[0])

    def _component_log_density(self, points: np.ndarray, cluster: int) -> np.ndarray:
        mean = self.means[cluster]
        variance = self.variances[cluster]
        return -0.5 * np.sum(
            _LOG_2PI + np.log(variance) + ((points - mean) ** 2) / variance, axis=1
        )


class EMClustering:
    """Fits Gaussian mixtures for several k and keeps the best BIC."""

    def __init__(
        self,
        *,
        min_clusters: int = 1,
        max_clusters: int = 8,
        max_iterations: int = 60,
        tolerance: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if min_clusters < 1 or max_clusters < min_clusters:
            raise ValueError("invalid cluster-count range")
        self.min_clusters = min_clusters
        self.max_clusters = max_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> GaussianMixtureModel:
        """Fit mixtures for every candidate k and return the best by BIC."""
        points = np.asarray(data, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("data must be a non-empty 2-D array")
        n_samples = points.shape[0]
        best: GaussianMixtureModel | None = None
        upper = min(self.max_clusters, n_samples)
        for k in range(self.min_clusters, upper + 1):
            model = self.fit_k(points, k)
            if best is None or model.bic < best.bic:
                best = model
        assert best is not None
        return best

    def fit_k(self, points: np.ndarray, k: int) -> GaussianMixtureModel:
        """Fit a mixture with exactly ``k`` components (k-means seeded)."""
        n_samples, n_features = points.shape
        seed_result = KMeans(k, seed=self.seed).fit(points)
        k = seed_result.k
        means = seed_result.centroids.astype(float)
        variances = np.full((k, n_features), max(points.var() + _MIN_VARIANCE, _MIN_VARIANCE))
        weights = np.full(k, 1.0 / k)
        previous_log_likelihood = -np.inf
        log_likelihood = previous_log_likelihood
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            model = GaussianMixtureModel(
                weights=weights, means=means, variances=variances,
                log_likelihood=0.0, bic=0.0, iterations=iterations,
            )
            log_unnormalized = model.log_responsibilities(points)
            log_norm = _logsumexp(log_unnormalized)
            log_likelihood = float(np.sum(log_norm))
            responsibilities = np.exp(log_unnormalized - log_norm[:, None])
            # M step
            cluster_mass = responsibilities.sum(axis=0) + 1e-10
            weights = cluster_mass / n_samples
            means = (responsibilities.T @ points) / cluster_mass[:, None]
            for cluster in range(k):
                diff = points - means[cluster]
                variances[cluster] = (
                    (responsibilities[:, cluster][:, None] * diff ** 2).sum(axis=0)
                    / cluster_mass[cluster]
                )
            variances = np.maximum(variances, _MIN_VARIANCE)
            if abs(log_likelihood - previous_log_likelihood) < self.tolerance:
                break
            previous_log_likelihood = log_likelihood
        parameter_count = k * (2 * n_features) + (k - 1)
        bic = parameter_count * np.log(n_samples) - 2.0 * log_likelihood
        return GaussianMixtureModel(
            weights=weights,
            means=means,
            variances=variances,
            log_likelihood=log_likelihood,
            bic=float(bic),
            iterations=iterations,
        )


def _logsumexp(values: np.ndarray) -> np.ndarray:
    maxima = np.max(values, axis=1)
    return maxima + np.log(np.sum(np.exp(values - maxima[:, None]), axis=1) + 1e-300)
