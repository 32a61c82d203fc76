"""Residual updates (paper §§4.1, 5.3, 5.4): push-down and strategies."""
import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.core.residual import (
    SnowflakeResidualUpdater,
    leaf_condition,
    push_keys_to,
)
from repro.core.semiring import PREFIX, VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import TrainParams
from repro.core.tree import DecisionTree, Node, Pred


@pytest.fixture(scope="module")
def fav_tree(favorita_tiny):
    """One 4-leaf tree trained on the tiny Favorita star."""
    g = favorita_tiny.graph
    sr = VarianceSemiring(track_q=False)
    st = StarTreeTrainer(g, TrainParams(max_leaves=4))
    st.set_fact(sr.lift(g.relations["sales"].df, "y"))
    return st.train()


class TestPushDown:
    def test_push_one_hop(self, favorita_tiny):
        g = favorita_tiny.graph
        preds = [Pred("f_store", 500, True, True)]
        key, values = push_keys_to(g, "sales", "stores", preds)
        assert key == "store_id"
        dim = favorita_tiny.dims["stores"]
        expect = set(dim.loc[dim["f_store"] <= 500, "store_id"])
        assert set(values) == expect

    def test_push_with_pandas_tables(self, favorita_tiny):
        g = favorita_tiny.graph
        preds = [Pred("f_item", 300, True, False)]
        k1, v1 = push_keys_to(g, "sales", "items", preds)
        k2, v2 = push_keys_to(
            g, "sales", "items", preds, tables=favorita_tiny.dims
        )
        assert k1 == k2 and set(v1) == set(v2)

    def test_push_two_hops(self, chain_graph):
        """customer predicate → orders keys → lineitem keys (§4.1 chain)."""
        preds = [Pred("c_acctbal", 0.0, True, False)]  # c_acctbal > 0
        key, values = push_keys_to(chain_graph, "lineitem", "customer", preds)
        assert key == "l_orderkey"
        wide = chain_graph.materialize().toPandas()
        expect = set(wide.loc[wide["c_acctbal"] > 0, "l_orderkey"])
        # the pushed keys are a *filter*: they may include orders with no
        # lineitems (harmless), but must cover exactly the matching fact rows
        assert expect <= set(values)
        fact = chain_graph.relations["lineitem"].df
        n = fact.filter(F.col(key).isin(list(values))).count()
        assert n == int((wide["c_acctbal"] > 0).sum())

    def test_leaf_condition_matches_wide_semantics(self, favorita_tiny, fav_tree):
        """Fact rows matching the pushed condition == wide rows matching
        the original leaf predicate (1-1 fact↔R⋈ on snowflakes)."""
        g = favorita_tiny.graph
        wide = favorita_tiny.wide_pandas()
        fact_df = g.relations["sales"].df
        total = 0
        for leaf in fav_tree.leaves():
            cond = leaf_condition(g, "sales", leaf, favorita_tiny.dims)
            n_fact = fact_df.filter(cond).count()
            m = np.ones(len(wide), dtype=bool)
            for p in leaf.preds:
                m &= p.mask(wide)
            assert n_fact == int(m.sum())
            total += n_fact
        assert total == len(wide)  # leaves partition the fact


def _make_updater(favorita_tiny, strategy, payload=(), dim_pandas=None):
    g = favorita_tiny.graph
    fact_df = g.relations["sales"].df
    needed = ["store_id", "item_id", "date_id"]
    return SnowflakeResidualUpdater(
        graph=g,
        fact="sales",
        fact_df=fact_df,
        y="y",
        base_score=0.0,
        strategy=strategy,
        learning_rate=0.1,
        payload_cols=payload,
        needed_cols=needed,
        dim_pandas=dim_pandas,
    )


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["naive", "create", "swap"])
    def test_residual_matches_oracle(self, favorita_tiny, fav_tree, strategy):
        """After one update, per-row residual == y − lr·p(leaf)."""
        upd = _make_updater(favorita_tiny, strategy, dim_pandas=favorita_tiny.dims)
        upd.update(fav_tree)
        got = (
            upd.current.select("store_id", "item_id", "date_id", PREFIX + "s")
            .toPandas()
            .sort_values(["store_id", "item_id", "date_id", PREFIX + "s"])
            .reset_index(drop=True)
        )
        wide = favorita_tiny.wide_pandas()
        expect_s = wide["y"].to_numpy() - 0.1 * fav_tree.predict_np(wide)
        expect = (
            pd.DataFrame(
                {
                    "store_id": wide["store_id"],
                    "item_id": wide["item_id"],
                    "date_id": wide["date_id"],
                    PREFIX + "s": expect_s,
                }
            )
            .sort_values(["store_id", "item_id", "date_id", PREFIX + "s"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expect, check_dtype=False, atol=1e-9)
        upd.close()

    def test_strategies_agree(self, favorita_tiny, fav_tree):
        results = {}
        for strategy in ("naive", "create", "swap"):
            upd = _make_updater(favorita_tiny, strategy, dim_pandas=favorita_tiny.dims)
            upd.update(fav_tree)
            results[strategy] = (
                upd.current.select(PREFIX + "s")
                .toPandas()[PREFIX + "s"]
                .sort_values()
                .to_numpy()
            )
            upd.close()
        np.testing.assert_allclose(results["naive"], results["create"], atol=1e-9)
        np.testing.assert_allclose(results["create"], results["swap"], atol=1e-9)

    def test_swap_sheds_payload(self, favorita_tiny, spark):
        """swap carries only needed columns; create keeps the payload."""
        g = favorita_tiny.graph
        fact_df = g.relations["sales"].df.withColumn("payload_0", F.lit(1.0))
        kw = dict(
            graph=g, fact="sales", fact_df=fact_df, y="y", base_score=0.0,
            payload_cols=["payload_0"],
            needed_cols=["store_id", "item_id", "date_id"],
        )
        swap = SnowflakeResidualUpdater(strategy="swap", **kw)
        create = SnowflakeResidualUpdater(strategy="create", **kw)
        assert "payload_0" not in swap.current.columns
        assert "payload_0" in create.current.columns
        swap.close()
        create.close()

    def test_initial_residual_is_centred_y(self, favorita_tiny):
        g = favorita_tiny.graph
        upd = SnowflakeResidualUpdater(
            graph=g, fact="sales", fact_df=g.relations["sales"].df, y="y",
            base_score=100.0, strategy="swap",
            needed_cols=["store_id", "item_id", "date_id"],
        )
        s = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
        expect = favorita_tiny.fact["y"].sum() - 100.0 * len(favorita_tiny.fact)
        assert s == pytest.approx(expect, rel=1e-9)
        upd.close()

    def test_rmse_matches_numpy(self, favorita_tiny, fav_tree):
        upd = _make_updater(favorita_tiny, "swap", dim_pandas=favorita_tiny.dims)
        upd.update(fav_tree)
        wide = favorita_tiny.wide_pandas()
        resid = wide["y"].to_numpy() - 0.1 * fav_tree.predict_np(wide)
        assert upd.rmse() == pytest.approx(float(np.sqrt((resid**2).mean())), rel=1e-9)
        upd.close()

    def test_unknown_strategy(self, favorita_tiny):
        with pytest.raises(ValueError, match="unknown strategy"):
            _make_updater(favorita_tiny, "set")

    def test_single_leaf_tree_constant_shift(self, favorita_tiny):
        tree = DecisionTree(Node(0, prediction=5.0))
        for strategy in ("naive", "create", "swap"):
            upd = _make_updater(favorita_tiny, strategy)
            before = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
            upd.update(tree)
            after = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
            n = len(favorita_tiny.fact)
            assert after == pytest.approx(before - 0.1 * 5.0 * n, rel=1e-9)
            upd.close()

    def test_update_timing_recorded(self, favorita_tiny, fav_tree):
        upd = _make_updater(favorita_tiny, "swap", dim_pandas=favorita_tiny.dims)
        upd.update(fav_tree)
        assert upd.last_update_seconds > 0
        upd.close()
