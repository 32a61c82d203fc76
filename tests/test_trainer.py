"""Trainer parity: factorized == batched-star == naive == NumPy.

The central correctness claim (paper §5.1: models identical to the
reference library) is checked exactly on the integer-y fixture, where
every semi-ring sum is exact in float64, so all four training paths
must produce bit-identical trees.
"""
import pandas as pd
import pytest

from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import FactorizedTreeTrainer, NaiveTreeTrainer, TrainParams
from repro.baselines.npgbm import NpTreeTrainer

PARAMS = TrainParams(max_leaves=5)


def four_trees(data, params):
    """Train the same tree with all four engines on one star."""
    g = data.graph
    sr = VarianceSemiring(track_q=False)

    fact = FactorizedTreeTrainer(g, sr, params)
    fact.engine.lift_y()
    t_fact = fact.train()
    fact.engine.clear_cache()

    star = StarTreeTrainer(g, params)
    star.set_fact(sr.lift(g.relations["fact"].df, "y"))
    t_star = star.train()

    naive = NaiveTreeTrainer(g, params)
    t_naive = naive.train()
    naive.close()

    wide = data.wide_pandas()
    feats = [f for f, _, _ in g.all_features()]
    numeric = [f for f, _, num in g.all_features() if num]
    npt = NpTreeTrainer(wide, feats, numeric, params)
    t_np = npt.train(wide["y"].to_numpy(dtype="float64"))
    return {"fact": t_fact, "star": t_star, "naive": t_naive, "np": t_np}


@pytest.fixture(scope="module")
def int_trees(star_int):
    return four_trees(star_int, PARAMS)


class TestModelParity:
    @pytest.mark.parametrize("a,b", [("fact", "naive"), ("star", "naive"), ("np", "naive")])
    def test_identical_trees(self, int_trees, a, b):
        assert int_trees[a].to_dict() == int_trees[b].to_dict()

    def test_leaf_count(self, int_trees):
        assert int_trees["fact"].n_leaves() == PARAMS.max_leaves

    def test_predictions_identical(self, int_trees, star_int):
        wide = star_int.wide_pandas()
        import numpy as np

        np.testing.assert_array_equal(
            int_trees["fact"].predict_np(wide), int_trees["np"].predict_np(wide)
        )

    def test_reg_lambda_parity(self, star_int):
        """Every trainer's leaves are ``s/(c+λ)`` (Appendix B)."""
        trees = four_trees(star_int, TrainParams(max_leaves=5, reg_lambda=2.0))
        d = trees["naive"].to_dict()
        assert trees["fact"].to_dict() == trees["star"].to_dict() == d
        assert trees["np"].to_dict() == d

    def test_categorical_string_parity(self, star_strings):
        """Quotes and backslashes in categorical split values survive
        every trainer's predicate path."""
        trees = four_trees(star_strings, TrainParams(max_leaves=5))
        d = trees["naive"].to_dict()
        assert trees["fact"].to_dict() == trees["star"].to_dict() == d
        assert trees["np"].to_dict() == d
        values = set()
        stack = [trees["fact"].root]
        while stack:
            n = stack.pop()
            if not n.is_leaf:
                values.add(n.split_value)
                stack += [n.left, n.right]
        assert {"O'Brien", 'say "hi"', "back\\slash"} <= values


class TestFactorizedModes:
    def test_batch_mode_same_model(self, star_int):
        """LMFAO-like batch mode (no cross-node cache) must still train
        the identical model — caching is performance-only."""
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        small = TrainParams(max_leaves=3)
        jb = FactorizedTreeTrainer(g, sr, small, mode="joinboost")
        jb.engine.lift_y()
        t1 = jb.train()
        jb.engine.clear_cache()
        ba = FactorizedTreeTrainer(g, sr, small, mode="batch")
        ba.engine.lift_y()
        t2 = ba.train()
        ba.engine.clear_cache()
        assert t1.to_dict() == t2.to_dict()

    @pytest.mark.parametrize("max_leaves", [1, 2])
    def test_leaf_budget_absorptions(self, star_int, max_leaves):
        """Nodes the tree can never split run no per-feature absorptions:
        only the root's total for one leaf, plus the root's features for
        two (its children are final leaves)."""
        g = star_int.graph
        tr = FactorizedTreeTrainer(
            g, VarianceSemiring(track_q=False), TrainParams(max_leaves=max_leaves)
        )
        tr.engine.lift_y()
        tree = tr.train()
        tr.engine.clear_cache()
        assert tree.n_leaves() == max_leaves
        n_feats = len(g.all_features())
        assert tr.engine.stats.absorption_queries == 1 + (max_leaves - 1) * n_feats

    @pytest.mark.parametrize(
        "mode,census", [("joinboost", (15, 72, 21)), ("batch", (18, 70, 21))]
    )
    def test_message_census(self, star_int, mode, census):
        """(message queries, cache hits, absorptions) per mode: batch
        drops the cache once per split node, the root's total shares it
        with the root's features, and both children of a split share it."""
        tr = FactorizedTreeTrainer(
            star_int.graph, VarianceSemiring(track_q=False),
            TrainParams(max_leaves=4), mode=mode,
        )
        tr.engine.lift_y()
        tr.engine.stats.reset()
        tr.train()
        tr.engine.clear_cache()
        st = tr.engine.stats
        assert (
            st.message_queries, st.message_cache_hits, st.absorption_queries
        ) == census

    def test_unknown_mode(self, star_int):
        with pytest.raises(ValueError, match="unknown mode"):
            FactorizedTreeTrainer(star_int.graph, mode="nope")

    def test_sql_splits_same_model(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        p = TrainParams(max_leaves=3, sql_splits=True)
        t_sql = FactorizedTreeTrainer(g, sr, p)
        t_sql.engine.lift_y()
        tree_sql = t_sql.train()
        t_sql.engine.clear_cache()
        p2 = TrainParams(max_leaves=3)
        t_np = FactorizedTreeTrainer(g, sr, p2)
        t_np.engine.lift_y()
        tree_np = t_np.train()
        t_np.engine.clear_cache()
        assert tree_sql.to_dict() == tree_np.to_dict()

    def test_parallel_same_model(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        p = TrainParams(max_leaves=4, n_jobs=4)
        tr = FactorizedTreeTrainer(g, sr, p)
        tr.engine.lift_y()
        t_par = tr.train()
        tr.engine.clear_cache()
        tr2 = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr2.engine.lift_y()
        t_ser = tr2.train()
        tr2.engine.clear_cache()
        assert t_par.to_dict() == t_ser.to_dict()

    def test_feature_subset_respected(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr.engine.lift_y()
        tree = tr.train(features=["fa", "fc"])
        tr.engine.clear_cache()
        assert set(tree.referenced_features()) <= {"fa", "fc"}

    def test_cross_node_cache_hits(self, star_int):
        """Paper §5.5.1: growing children reuses parent-node messages."""
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=4))
        tr.engine.lift_y()
        tr.engine.stats.reset()
        tr.train()
        tr.engine.clear_cache()
        assert tr.engine.stats.message_cache_hits > 0


class TestChainTraining:
    def test_chain_parity_with_naive(self, chain_graph):
        p = TrainParams(max_leaves=3)
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(chain_graph, sr, p)
        tr.engine.lift_y()
        t1 = tr.train()
        tr.engine.clear_cache()
        nv = NaiveTreeTrainer(chain_graph, p)
        t2 = nv.train()
        nv.close()
        d1, d2 = t1.to_dict(), t2.to_dict()
        # float y: allow leaf-value jitter, structures must agree

        def strip(d):
            if "leaf" in d:
                return {"leaf": round(d["leaf"], 4)}
            return {
                "feature": d["feature"],
                "value": d["value"],
                "left": strip(d["left"]),
                "right": strip(d["right"]),
            }

        assert strip(d1) == strip(d2)

    def test_star_trainer_rejects_chain(self, chain_graph):
        with pytest.raises(ValueError, match="not adjacent"):
            StarTreeTrainer(chain_graph, PARAMS)


class TestDepthAndGainLimits:
    def test_max_depth_one(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=8, max_depth=1))
        tr.engine.lift_y()
        tree = tr.train()
        tr.engine.clear_cache()
        assert tree.n_leaves() == 2

    def test_min_gain_blocks_all(self, star_int):
        g = star_int.graph
        sr = VarianceSemiring(track_q=False)
        tr = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=8, min_gain=1e18))
        tr.engine.lift_y()
        tree = tr.train()
        tr.engine.clear_cache()
        assert tree.n_leaves() == 1
        assert tree.root.prediction is not None

    def test_splittable_rule(self):
        p = TrainParams(max_leaves=4, max_depth=3, min_child=5)
        assert p.splittable(3, 2, 11)
        assert not p.splittable(4, 2, 11)  # leaf budget spent
        assert not p.splittable(3, 3, 11)  # at max_depth
        assert not p.splittable(3, 2, 10)  # c must exceed 2·min_child

    def test_root_at_twice_min_child_stays_leaf(self):
        """Deliberate: the root obeys the children's ``c > 2·min_child``
        rule, so a root with exactly ``2·min_child`` rows is not searched
        even though a 2/2 split would be admissible."""
        wide = pd.DataFrame({"x": [0, 0, 1, 1], "y": [0.0, 0.0, 10.0, 10.0]})
        y = wide["y"].to_numpy()
        tree = NpTreeTrainer(wide, ["x"], ["x"], TrainParams(min_child=2)).train(y)
        assert tree.n_leaves() == 1
        split = NpTreeTrainer(wide, ["x"], ["x"], TrainParams(min_child=1.9)).train(y)
        assert split.n_leaves() == 2
