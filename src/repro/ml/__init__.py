"""Small machine-learning toolkit replacing the paper's use of WEKA.

numpy backs the clusterers (:mod:`~repro.ml.kmeans`, :mod:`~repro.ml.em`)
and nothing else, so the package exports them lazily (PEP 562): a name is
imported on first access, and ``from repro.ml import DecisionTreeClassifier``
(pure Python) loads no numpy.  numpy loads only when a §5 partitioner fits
clusters or a caller names a clusterer.
"""

from importlib import import_module

#: Exported name → the submodule that defines it.
_EXPORTS = {
    "KMeans": "kmeans",
    "KMeansResult": "kmeans",
    "EMClustering": "em",
    "GaussianMixtureModel": "em",
    "DecisionTreeClassifier": "decision_tree",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
