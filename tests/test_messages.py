"""Message-passing engine vs the DuckDB oracle (paper §3.1, §3.3, 5.5.1).

Every aggregate the engine produces factorized (never materializing
``R⋈``) is checked against plain SQL over the materialized join run in
DuckDB — a wrong ⊗/⊕ rewrite or a dropped message fails loudly.
"""
import pandas as pd
import pytest

from repro.core.join_graph import JoinGraph
from repro.core.messages import MessageEngine
from repro.core.semiring import PREFIX, VarianceSemiring
from repro.core.tree import Pred
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def fav_engine(favorita_tiny):
    eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=True))
    eng.lift_y()
    yield eng
    eng.clear_cache()


@pytest.fixture(scope="module")
def chain_engine(chain_graph):
    eng = MessageEngine(chain_graph, VarianceSemiring(track_q=True))
    eng.lift_y()
    yield eng
    eng.clear_cache()


class TestPaperExample1:
    """The worked example of Figure 1: γ(R ⋈ S ⋈ T) = (8, 16, 36)."""

    @pytest.fixture(scope="class")
    def example_graph(self, spark):
        g = JoinGraph()
        g.add_relation(
            "R",
            spark.createDataFrame([(1, 2), (1, 3), (2, 1), (2, 2)], "A int, B int"),
            y="B",
        )
        g.add_relation(
            "S",
            spark.createDataFrame([(1, 2), (2, 1), (2, 3)], "A int, C int"),
            features=["C"],
        )
        g.add_relation(
            "T",
            spark.createDataFrame([(1, 1), (1, 2), (2, 2)], "A int, D int"),
            features=["D"],
        )
        # star around the shared key A (the paper's R-S-T join graph);
        # neither side is key-unique, so these are general M-N edges
        g.add_edge("R", "S", ["A"], n_to_one=False)
        g.add_edge("R", "T", ["A"], n_to_one=False)
        return g

    def test_total_aggregate(self, example_graph):
        eng = MessageEngine(example_graph, VarianceSemiring(track_q=True))
        eng.lift_y()
        c, s, q = eng.total({})
        assert (c, s, q) == (8.0, 16.0, 36.0)
        assert q - s * s / c == pytest.approx(4.0)  # variance = 4
        eng.clear_cache()

    def test_group_by_c(self, example_graph):
        eng = MessageEngine(example_graph, VarianceSemiring(track_q=True))
        eng.lift_y()
        out = (
            eng.aggregate_feature("C", {})
            .toPandas()
            .sort_values("C")
            .reset_index(drop=True)
        )
        # From Fig 1b: C=1 rows are (1,1,1)+(1,2,4); C=2 rows 4 of B∈{2,2,3,3};
        # C=3 rows (1,1,1)+(1,2,4)
        assert out[PREFIX + "c"].tolist() == [2.0, 4.0, 2.0]
        assert out[PREFIX + "s"].tolist() == [3.0, 10.0, 3.0]
        eng.clear_cache()


class TestStarAggregates:
    def test_total_matches_oracle(self, fav_engine, favorita_tiny):
        c, s, q = fav_engine.total({})
        wide = favorita_tiny.wide_pandas()
        assert c == pytest.approx(len(wide))
        assert s == pytest.approx(wide["y"].sum(), rel=1e-9)
        assert q == pytest.approx((wide["y"] ** 2).sum(), rel=1e-9)

    @pytest.mark.parametrize("feature", ["f_store", "f_item", "f_oil", "f_trans", "f_date"])
    def test_feature_aggregate_matches_duckdb(self, fav_engine, favorita_tiny, feature):
        out = fav_engine.aggregate_feature(feature, {}).select(
            feature, PREFIX + "c", PREFIX + "s"
        )
        assert_equivalent(
            out,
            f"SELECT {feature}, CAST(COUNT(*) AS DOUBLE) AS __c, SUM(y) AS __s "
            f"FROM wide GROUP BY {feature}",
            wide=favorita_tiny.wide_pandas(),
        )

    def test_filtered_aggregate_matches_duckdb(self, fav_engine, favorita_tiny):
        ctx = {"stores": (Pred("f_store", 500, True, True),)}
        out = fav_engine.aggregate_feature("f_item", ctx).select(
            "f_item", PREFIX + "c", PREFIX + "s"
        )
        assert_equivalent(
            out,
            "SELECT f_item, CAST(COUNT(*) AS DOUBLE) AS __c, SUM(y) AS __s "
            "FROM wide WHERE f_store <= 500 GROUP BY f_item",
            wide=favorita_tiny.wide_pandas(),
        )

    def test_two_filters_two_relations(self, fav_engine, favorita_tiny):
        ctx = {
            "stores": (Pred("f_store", 500, True, True),),
            "items": (Pred("f_item", 200, True, False),),
        }
        c, s, q = fav_engine.total(ctx)
        wide = favorita_tiny.wide_pandas()
        sel = wide[(wide["f_store"] <= 500) & (wide["f_item"] > 200)]
        assert c == pytest.approx(len(sel))
        assert s == pytest.approx(sel["y"].sum(), rel=1e-9)


class TestChainAggregates:
    """Multi-hop message passing (lineitem → orders → customer)."""

    def test_total(self, chain_engine, chain_graph):
        wide = chain_graph.materialize().toPandas()
        c, s, q = chain_engine.total({})
        assert c == pytest.approx(len(wide))
        assert s == pytest.approx(wide["l_quantity"].sum(), rel=1e-9)

    def test_two_hop_feature(self, chain_engine, chain_graph):
        out = chain_engine.aggregate_feature("c_mktsegment", {}).select(
            "c_mktsegment", PREFIX + "c", PREFIX + "s"
        )
        assert_equivalent(
            out,
            "SELECT c_mktsegment, CAST(COUNT(*) AS DOUBLE) AS __c, "
            "SUM(l_quantity) AS __s FROM wide GROUP BY c_mktsegment",
            wide=chain_graph.materialize().toPandas(),
        )

    def test_predicate_on_middle_relation(self, chain_engine, chain_graph):
        ctx = {"orders": (Pred("o_totalprice", 250000, True, True),)}
        c, s, _ = chain_engine.total(ctx)
        wide = chain_graph.materialize().toPandas()
        sel = wide[wide["o_totalprice"] <= 250000]
        assert c == pytest.approx(len(sel))
        assert s == pytest.approx(sel["l_quantity"].sum(), rel=1e-9)

    def test_predicate_on_far_relation_groupby_near(self, chain_engine, chain_graph):
        """Filter on customer while grouping by a lineitem feature —
        the filter travels two hops as a semi-join message."""
        ctx = {"customer": (Pred("c_acctbal", 0, True, False),)}
        out = chain_engine.aggregate_feature("l_discount", ctx).select(
            "l_discount", PREFIX + "c", PREFIX + "s"
        )
        assert_equivalent(
            out,
            "SELECT l_discount, CAST(COUNT(*) AS DOUBLE) AS __c, "
            "SUM(l_quantity) AS __s FROM wide WHERE c_acctbal > 0 "
            "GROUP BY l_discount",
            wide=chain_graph.materialize().toPandas(),
        )


class TestCacheBehaviour:
    def test_identity_message_dropped(self, favorita_tiny):
        """Unfiltered, unannotated dimension subtrees emit no message
        (paper Appendix D identity-path optimization)."""
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        eng.lift_y()
        m = eng.message("stores", "sales", {})
        assert m is None
        eng.clear_cache()

    def test_semi_join_message_when_filtered(self, favorita_tiny):
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        eng.lift_y()
        ctx = {"stores": (Pred("f_store", 500, True, True),)}
        m = eng.message("stores", "sales", ctx)
        assert m is not None
        # key-only message: a filter, not an annotated aggregate
        assert PREFIX + "c" not in m.columns
        eng.clear_cache()

    def test_cache_hit_same_context(self, favorita_tiny):
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        eng.lift_y()
        eng.stats.reset()
        eng.message("sales", "stores", {})
        before = eng.stats.message_queries
        eng.message("sales", "stores", {})
        assert eng.stats.message_queries == before
        assert eng.stats.message_cache_hits >= 1
        eng.clear_cache()

    def test_cross_node_sharing(self, favorita_tiny):
        """Paper §5.5.1: a predicate on `items` must not invalidate the
        message sales → stores computed for the parent node, because
        `items` is not in the subtree behind sales→stores… it is! For a
        star, the fact's subtree contains every other dim, so instead we
        check the dim-side direction: messages from other unfiltered
        dims stay cached (dropped-identity entries are also cached)."""
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        eng.lift_y()
        ctx = {"items": (Pred("f_item", 500, True, True),)}
        eng.stats.reset()
        eng.aggregate_feature("f_store", {})
        n0 = eng.stats.message_queries
        eng.aggregate_feature("f_store", ctx)
        # the oil/holiday/transactions identity messages stay cached;
        # only the new items semi-join message and the fact-side message
        # (whose subtree holds `items`) run
        assert eng.stats.message_queries == n0 + 2
        eng.clear_cache()

    def test_set_annotation_invalidates(self, favorita_tiny):
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        eng.lift_y()
        eng.stats.reset()
        eng.message("sales", "stores", {})
        n0 = eng.stats.message_queries
        eng.lift_y()  # re-annotate the fact → fact-side messages stale
        eng.message("sales", "stores", {})
        assert eng.stats.message_queries == n0 + 1
        eng.clear_cache()


class TestEngineValidation:
    def test_unknown_relation_annotation(self, favorita_tiny):
        eng = MessageEngine(favorita_tiny.graph, VarianceSemiring(track_q=False))
        with pytest.raises(ValueError, match="unknown relation"):
            eng.set_annotation("nope", None)
