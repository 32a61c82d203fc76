"""Gini impurity, the classification criterion of paper Appendix A."""
import numpy as np
import pytest

from repro.core.split import gini_impurity


class TestGiniImpurity:
    def test_pure_node(self):
        assert gini_impurity(np.array([[10.0, 0.0]]))[0] == 0.0

    def test_uniform_node(self):
        assert gini_impurity(np.array([[5.0, 5.0]]))[0] == pytest.approx(0.5)

    def test_empty_node(self):
        assert gini_impurity(np.array([[0.0, 0.0]]))[0] == 0.0

    def test_three_classes(self):
        g = gini_impurity(np.array([[1.0, 1.0, 1.0]]))[0]
        assert g == pytest.approx(1 - 3 * (1 / 9))
