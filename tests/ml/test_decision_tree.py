"""Tests for the information-gain decision tree."""

import pytest

from repro.ml import DecisionTreeClassifier


class TestDecisionTree:
    def test_simple_threshold_split(self):
        rows = [[float(i)] for i in range(20)]
        labels = [0 if i < 10 else 1 for i in range(20)]
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(rows, labels, ["x"])
        assert tree.predict([3.0]) == 0
        assert tree.predict([15.0]) == 1

    def test_two_feature_interaction(self):
        rows = []
        labels = []
        for a in range(6):
            for b in range(6):
                rows.append([float(a), float(b)])
                labels.append(0 if a < 3 else (1 if b < 3 else 2))
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(rows, labels, ["a", "b"])
        assert tree.predict([1.0, 5.0]) == 0
        assert tree.predict([5.0, 1.0]) == 1
        assert tree.predict([5.0, 5.0]) == 2

    def test_missing_values_routed_to_missing_branch(self):
        rows = [[float(i)] for i in range(10)] + [[None]] * 10
        labels = [0] * 5 + [1] * 5 + [2] * 10
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(rows, labels)
        assert tree.predict([None]) == 2

    def test_pure_labels_yield_leaf(self):
        tree = DecisionTreeClassifier().fit([[1.0], [2.0], [3.0]], [1, 1, 1])
        assert tree.predict([99.0]) == 1

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().predict([1.0])

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1.0]], [0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([], [])

    def test_describe_mentions_feature_names(self):
        rows = [[float(i)] for i in range(20)]
        labels = [0 if i < 10 else 1 for i in range(20)]
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(rows, labels, ["ARRAYLENGTH(ids)"])
        assert "ARRAYLENGTH(ids)" in tree.describe()
