"""Comparator implementations: NumPy library, pipeline, MADLib-like."""
import numpy as np
import pytest

from repro.baselines.madlib_like import MadlibLikeTrainer
from repro.baselines.materialize import (
    MemoryGateError,
    estimate_wide_bytes,
    export_load,
)
from repro.baselines.npgbm import NpGBM, NpRandomForest, NpTreeTrainer
from repro.core.trainer import TrainParams

P = TrainParams(max_leaves=4)


class TestNpLibrary:
    def test_gbm_reduces_rmse(self, favorita_tiny):
        wide = favorita_tiny.wide_pandas()
        feats = [f for f, _, _ in favorita_tiny.graph.all_features()]
        res = NpGBM(wide, feats, feats, "y", n_iters=5, learning_rate=0.3,
                    params=P, track_rmse=True).fit()
        assert res.logs[-1].rmse < res.logs[0].rmse < float(wide["y"].std())

    def test_gbm_update_time_recorded(self, favorita_tiny):
        wide = favorita_tiny.wide_pandas()
        feats = [f for f, _, _ in favorita_tiny.graph.all_features()]
        res = NpGBM(wide, feats, feats, "y", n_iters=1, params=P).fit()
        assert res.logs[0].update_seconds >= 0

    def test_rf_runs(self, favorita_tiny):
        wide = favorita_tiny.wide_pandas()
        feats = [f for f, _, _ in favorita_tiny.graph.all_features()]
        ens, times, wall = NpRandomForest(
            wide, feats, feats, "y", n_trees=3, row_fraction=0.5, params=P
        ).fit()
        assert len(ens.trees) == 3 and wall > 0

    def test_rf_parallel_same_models(self, favorita_tiny):
        wide = favorita_tiny.wide_pandas()
        feats = [f for f, _, _ in favorita_tiny.graph.all_features()]
        kw = dict(n_trees=3, row_fraction=0.5, params=P, seed=2)
        a, _, _ = NpRandomForest(wide, feats, feats, "y", n_jobs=1, **kw).fit()
        b, _, _ = NpRandomForest(wide, feats, feats, "y", n_jobs=3, **kw).fit()
        for t1, t2 in zip(a.trees, b.trees):
            assert t1.to_dict() == t2.to_dict()

    def test_tree_respects_max_leaves(self, favorita_tiny):
        wide = favorita_tiny.wide_pandas()
        feats = [f for f, _, _ in favorita_tiny.graph.all_features()]
        tree = NpTreeTrainer(wide, feats, feats, P).train(wide["y"].to_numpy())
        assert tree.n_leaves() <= P.max_leaves


class TestPipeline:
    def test_export_load_roundtrip(self, favorita_tiny):
        res = export_load(favorita_tiny.graph)
        wide = favorita_tiny.wide_pandas()
        assert res.n_rows == len(wide)
        assert set(res.pdf.columns) == set(wide.columns)
        assert res.materialize_export_seconds > 0 and res.load_seconds > 0
        assert res.total_seconds == pytest.approx(
            res.materialize_export_seconds + res.load_seconds
        )
        # values survive the CSV round trip
        assert res.pdf["y"].sum() == pytest.approx(wide["y"].sum(), rel=1e-6)

    def test_estimate_scales_with_rows(self, favorita_tiny):
        est = estimate_wide_bytes(favorita_tiny.graph)
        assert est > len(favorita_tiny.fact) * 8  # at least one col worth

    def test_memory_gate_blocks(self, favorita_tiny):
        with pytest.raises(MemoryGateError, match="cannot materialize"):
            export_load(favorita_tiny.graph, memory_budget_bytes=1024)

    def test_memory_gate_galaxy_join_rows(self, imdb_tiny):
        """The galaxy gate uses the analytic |R⋈|, not base-table sizes."""
        est = estimate_wide_bytes(imdb_tiny.graph, join_rows=imdb_tiny.join_rows)
        est_base = estimate_wide_bytes(
            imdb_tiny.graph, join_rows=len(imdb_tiny.tables["cast_info"])
        )
        assert est > est_base


class TestMadlibLike:
    def test_trains_valid_tree(self, star_int):
        tr = MadlibLikeTrainer(star_int.graph, TrainParams(max_leaves=3),
                               max_candidates=4)
        tree = tr.train()
        assert 1 <= tree.n_leaves() <= 3
        tr.close()

    def test_query_explosion(self, star_int):
        """The defining inefficiency: #queries ≈ nodes × features ×
        candidates — one aggregate per candidate split."""
        tr = MadlibLikeTrainer(star_int.graph, TrainParams(max_leaves=2),
                               max_candidates=3)
        tr.train()
        n_feats = len(star_int.graph.all_features())
        # 1 totals + root best (n_feats × 3); the only split's children
        # are final leaves, so they are never evaluated
        assert tr.queries_issued >= 1 + 3 * n_feats
        tr.close()

    def test_model_quality_reasonable(self, star_int):
        """Slow, not wrong: the tree still reduces variance."""
        tr = MadlibLikeTrainer(star_int.graph, TrainParams(max_leaves=3),
                               max_candidates=6)
        tree = tr.train()
        wide = star_int.wide_pandas()
        resid = wide["y"].to_numpy() - tree.predict_np(wide)
        assert float(np.sqrt((resid**2).mean())) < float(wide["y"].std())
        tr.close()
