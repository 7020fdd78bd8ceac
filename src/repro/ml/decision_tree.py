"""Information-gain decision-tree classifier.

Reproduces the role the C4.5 classifier plays in the paper (Section 5.3):
after the best feature set has been chosen and the transactions clustered,
a decision tree is trained that maps a transaction's feature vector to the
Markov model (cluster) Houdini should use for it at run time.

The implementation supports numeric features with binary threshold splits,
treats ``None`` as a distinct "missing" value (routed to its own branch, like
the ISNULL features in Table 1 require), and prunes by minimum leaf size and
maximum depth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import log2
from typing import Sequence


@dataclass
class _Leaf:
    label: int
    counts: Counter = field(default_factory=Counter)

    def predict(self, _features) -> int:
        return self.label


@dataclass
class _Split:
    feature_index: int
    threshold: float
    below: "_Leaf | _Split"
    above: "_Leaf | _Split"
    missing: "_Leaf | _Split"

    def predict(self, features) -> int:
        value = features[self.feature_index]
        if value is None:
            return self.missing.predict(features)
        if value <= self.threshold:
            return self.below.predict(features)
        return self.above.predict(features)


def _entropy(labels: Sequence[int]) -> float:
    counts = Counter(labels)
    total = len(labels)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * log2(probability)
    return entropy


class DecisionTreeClassifier:
    """A small C4.5-style classifier over numeric/missing features."""

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-3,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self._root: _Leaf | _Split | None = None
        self.feature_names: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def fit(
        self,
        rows: Sequence[Sequence[float | None]],
        labels: Sequence[int],
        feature_names: Sequence[str] | None = None,
    ) -> "DecisionTreeClassifier":
        if len(rows) != len(labels):
            raise ValueError("rows and labels must have the same length")
        if not rows:
            raise ValueError("cannot fit a decision tree on an empty data set")
        self.feature_names = tuple(feature_names or ())
        self._root = self._build(list(rows), list(labels), depth=0)
        return self

    def predict(self, features: Sequence[float | None]) -> int:
        if self._root is None:
            raise ValueError("classifier has not been fitted")
        return self._root.predict(list(features))

    # ------------------------------------------------------------------
    def _build(self, rows, labels, depth: int):
        majority = Counter(labels).most_common(1)[0][0]
        leaf = _Leaf(label=majority, counts=Counter(labels))
        if (
            depth >= self.max_depth
            or len(set(labels)) == 1
            or len(rows) < 2 * self.min_samples_leaf
        ):
            return leaf
        best = self._best_split(rows, labels)
        if best is None:
            return leaf
        feature_index, threshold, gain = best
        if gain < self.min_gain:
            return leaf
        below_rows, below_labels = [], []
        above_rows, above_labels = [], []
        missing_rows, missing_labels = [], []
        for row, label in zip(rows, labels):
            value = row[feature_index]
            if value is None:
                missing_rows.append(row)
                missing_labels.append(label)
            elif value <= threshold:
                below_rows.append(row)
                below_labels.append(label)
            else:
                above_rows.append(row)
                above_labels.append(label)
        if not below_rows or not above_rows:
            return leaf
        below = self._build(below_rows, below_labels, depth + 1)
        above = self._build(above_rows, above_labels, depth + 1)
        if missing_rows:
            missing = self._build(missing_rows, missing_labels, depth + 1)
        else:
            missing = leaf
        return _Split(
            feature_index=feature_index,
            threshold=threshold,
            below=below,
            above=above,
            missing=missing,
        )

    def _best_split(self, rows, labels):
        base_entropy = _entropy(labels)
        best_gain = 0.0
        best: tuple[int, float, float] | None = None
        n_features = len(rows[0])
        total = len(labels)
        for feature_index in range(n_features):
            values = sorted({
                row[feature_index] for row in rows if row[feature_index] is not None
            })
            if len(values) < 2:
                continue
            thresholds = [
                (values[i] + values[i + 1]) / 2.0 for i in range(len(values) - 1)
            ]
            for threshold in thresholds:
                below = [l for row, l in zip(rows, labels)
                         if row[feature_index] is not None and row[feature_index] <= threshold]
                above = [l for row, l in zip(rows, labels)
                         if row[feature_index] is not None and row[feature_index] > threshold]
                missing = [l for row, l in zip(rows, labels) if row[feature_index] is None]
                if len(below) < self.min_samples_leaf or len(above) < self.min_samples_leaf:
                    continue
                weighted = (
                    len(below) / total * _entropy(below)
                    + len(above) / total * _entropy(above)
                    + len(missing) / total * _entropy(missing)
                )
                gain = base_entropy - weighted
                if gain > best_gain:
                    best_gain = gain
                    best = (feature_index, threshold, gain)
        return best

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Render the tree as indented text (used by examples)."""
        if self._root is None:
            return "<unfitted tree>"
        lines: list[str] = []
        self._describe_node(self._root, 0, lines)
        return "\n".join(lines)

    def _feature_name(self, index: int) -> str:
        if index < len(self.feature_names):
            return self.feature_names[index]
        return f"feature[{index}]"

    def _describe_node(self, node, depth: int, lines: list[str]) -> None:
        indent = "  " * depth
        if isinstance(node, _Leaf):
            lines.append(f"{indent}-> cluster {node.label} {dict(node.counts)}")
            return
        lines.append(f"{indent}{self._feature_name(node.feature_index)} <= {node.threshold:g}?")
        self._describe_node(node.below, depth + 1, lines)
        lines.append(f"{indent}{self._feature_name(node.feature_index)} > {node.threshold:g}?")
        self._describe_node(node.above, depth + 1, lines)
