"""Tree structure, predicate algebra and the three prediction paths."""
import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.core.tree import DecisionTree, Node, Pred, TreeEnsemble


@pytest.fixture()
def small_tree():
    """      f <= 5
            /      \\
        g = 'a'     p=3.0
        /    \\
     p=1.0   p=2.0
    """
    root = Node(0)
    root.split_feature, root.split_value, root.split_numeric = "f", 5, True
    mid = Node(1, preds=[Pred("f", 5, True, True)])
    mid.split_feature, mid.split_value, mid.split_numeric = "g", "a", False
    mid.left = Node(2, preds=mid.preds + [Pred("g", "a", False, True)], prediction=1.0)
    mid.right = Node(
        2, preds=mid.preds + [Pred("g", "a", False, False)], prediction=2.0
    )
    root.left = mid
    root.right = Node(1, preds=[Pred("f", 5, True, False)], prediction=3.0)
    return DecisionTree(root)


@pytest.fixture()
def frame():
    return pd.DataFrame(
        {"f": [1, 4, 6, 9], "g": ["a", "b", "a", "b"], "y": [1.0, 2.0, 3.0, 3.0]}
    )


class TestPred:
    def test_mask_matches_sql(self, spark, frame):
        df = spark.createDataFrame(frame)
        for pred in [
            Pred("f", 5, True, True),
            Pred("f", 5, True, False),
            Pred("g", "a", False, True),
            Pred("g", "a", False, False),
        ]:
            via_col = sorted(r["f"] for r in df.filter(pred.col()).collect())
            via_mask = sorted(frame.loc[pred.mask(frame), "f"].tolist())
            assert via_col == via_mask

    def test_partition_property(self, frame):
        """σ and ¬σ partition every frame."""
        p = Pred("f", 5, True, True)
        n = Pred("f", 5, True, False)
        assert (p.mask(frame) ^ n.mask(frame)).all()


class TestTreeStructure:
    def test_leaves(self, small_tree):
        assert [l.prediction for l in small_tree.leaves()] == [1.0, 2.0, 3.0]
        assert small_tree.n_leaves() == 3

    def test_referenced_features(self, small_tree):
        assert small_tree.referenced_features() == ["f", "g"]

    def test_to_dict_roundtrip_structure(self, small_tree):
        d = small_tree.to_dict()
        assert d["feature"] == "f" and d["right"] == {"leaf": 3.0}
        assert d["left"]["feature"] == "g"

    def test_leaf_predicates_are_exhaustive(self, small_tree, frame):
        """Leaf σ's are mutually exclusive and collectively exhaustive."""
        hits = np.zeros(len(frame), dtype=int)
        for leaf in small_tree.leaves():
            m = np.ones(len(frame), dtype=bool)
            for p in leaf.preds:
                m &= p.mask(frame)
            hits += m.astype(int)
        assert (hits == 1).all()


class TestPrediction:
    def test_predict_np(self, small_tree, frame):
        np.testing.assert_allclose(
            small_tree.predict_np(frame), [1.0, 2.0, 3.0, 3.0]
        )

    def test_predict_expr_matches_np(self, spark, small_tree, frame):
        df = spark.createDataFrame(frame)
        got = (
            df.withColumn("p", small_tree.predict_expr())
            .orderBy("f")
            .select("p")
            .toPandas()["p"]
            .to_numpy()
        )
        np.testing.assert_allclose(got, small_tree.predict_np(frame))

    def test_single_leaf_tree(self, frame):
        t = DecisionTree(Node(0, prediction=7.0))
        np.testing.assert_allclose(t.predict_np(frame), 7.0)


class TestEnsemble:
    def test_boosting_prediction(self, small_tree, frame):
        ens = TreeEnsemble(
            trees=[small_tree, small_tree], base_score=10.0, learning_rate=0.5
        )
        expect = 10.0 + 0.5 * 2 * small_tree.predict_np(frame)
        np.testing.assert_allclose(ens.predict_np(frame), expect)

    def test_averaging_prediction(self, small_tree, frame):
        ens = TreeEnsemble(trees=[small_tree, small_tree], average=True)
        np.testing.assert_allclose(ens.predict_np(frame), small_tree.predict_np(frame))

    def test_empty_ensemble(self, frame):
        ens = TreeEnsemble(base_score=2.5)
        np.testing.assert_allclose(ens.predict_np(frame), 2.5)

    def test_predict_expr_matches_np(self, spark, small_tree, frame):
        ens = TreeEnsemble(trees=[small_tree], base_score=1.0, learning_rate=0.1)
        df = spark.createDataFrame(frame)
        got = (
            df.withColumn("p", ens.predict_expr())
            .orderBy("f")
            .toPandas()["p"]
            .to_numpy()
        )
        np.testing.assert_allclose(got, ens.predict_np(frame))

    def test_rmse(self, small_tree, frame):
        ens = TreeEnsemble(trees=[small_tree], average=True)
        pred = ens.predict_np(frame)
        expect = float(np.sqrt(np.mean((frame["y"].to_numpy() - pred) ** 2)))
        assert ens.rmse_np(frame, "y") == pytest.approx(expect)
