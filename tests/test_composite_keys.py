"""Composite (two-column) join keys: handled by the general engine,
rejected up front where a path supports single-column keys only."""
import pytest

from repro.baselines.npgbm import NpTreeTrainer
from repro.core.gbm import GradientBoosting
from repro.core.rf import RandomForest
from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import FactorizedTreeTrainer, TrainParams

P = TrainParams(max_leaves=4)


def test_star_trainer_rejects(composite_key):
    with pytest.raises(ValueError, match="composite join key"):
        StarTreeTrainer(composite_key.graph, P)


def test_factorized_matches_library(composite_key):
    """The general engine joins and groups on both key columns."""
    g = composite_key.graph
    tr = FactorizedTreeTrainer(g, VarianceSemiring(track_q=False), P)
    tr.engine.lift_y()
    tree = tr.train()
    tr.engine.clear_cache()
    wide = composite_key.wide_pandas()
    ref = NpTreeTrainer(wide, ["x", "d"], ["x", "d"], P).train(
        wide["y"].to_numpy(dtype="float64")
    )
    assert tree.to_dict() == ref.to_dict()


def test_random_forest_fast_falls_back(composite_key):
    kw = dict(n_trees=2, row_fraction=0.8, feature_fraction=1.0, params=P, seed=1)
    fast = RandomForest(composite_key.graph, fast=True, **kw).fit()
    general = RandomForest(composite_key.graph, fast=False, **kw).fit()
    for t1, t2 in zip(fast.ensemble.trees, general.ensemble.trees):
        assert t1.to_dict() == t2.to_dict()


def test_gradient_boosting_fails_at_construction(composite_key):
    with pytest.raises(NotImplementedError, match="multi-column join keys"):
        GradientBoosting(composite_key.graph, n_iters=1, params=P)
