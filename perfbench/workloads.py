"""The three fit workloads: how each builds its data, fits and is checked.

Every workload goes through the public API only: a ``repro.data``
builder makes the tables and the ``JoinGraph``, then
``GradientBoosting.fit()`` or ``RandomForest.fit()`` trains on it. The
checks run outside the timed region and compare each returned model with
an answer computed independently over the materialized join in pandas.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines.npgbm import NpGBM
from repro.core.gbm import GradientBoosting
from repro.core.rf import RandomForest
from repro.core.trainer import TrainParams
from repro.data.favorita import favorita
from repro.data.imdb import imdb

#: RF tree threads, as in the paper's inter-query parallelism setting
N_JOBS = min(4, os.cpu_count() or 1)

# Favorita-lite: 60k fact rows, 5 dimensions, 13 features (paper Fig 8)
FAVORITA = dict(sf=0.02, n_extra_features=8)
GBM_FAV = dict(n_iters=1, learning_rate=0.1, leaves=4)
RF_FAV = dict(n_trees=4, row_fraction=0.1, feature_fraction=0.8, leaves=3)
#: the forest's own sampling seed is a model setting, fixed: the workload
#: seed only makes the data, so every seed trains trees on the same
#: feature subsets and fits do comparable work
RF_SEED = 0
# IMDB-lite galaxy: 200 movies, |R⋈| ≈ 120k from ≈11k base rows (Fig 14)
IMDB = dict(n_movies=200, mean_cast=30.0, mean_companies=20.0)
GBM_IMDB = dict(n_iters=1, learning_rate=0.3, leaves=2)


@dataclass
class Fit:
    """One returned model plus what the checks and traces need of it."""

    result: object  # GradientBoostingResult / RandomForestResult
    model: object  # the GradientBoosting / RandomForest instance
    #: the rmse the program itself holds after a boosting fit: read off
    #: the residual column (star) or the engine's (C, S, Q) (galaxy)
    own_rmse: Optional[float] = None

    @property
    def ensemble(self):
        return self.result.ensemble


@dataclass
class Workload:
    name: str
    build: Callable  # (spark, seed) -> data
    fit: Callable  # (data) -> Fit
    reference: Callable  # (data) -> what check compares against
    check: Callable  # (reference, Fit) -> (rmse on R⋈, [failure messages])
    after_fit: Callable = lambda f: None  # untimed: read Spark state, free caches


def _trees_match(a, b, rel: float = 1e-9) -> bool:
    """Same splits, leaf values equal to ``rel``: ``to_dict()`` parity
    without its 9th-decimal rounding, which float sums taken in a
    different order can tip either way."""

    def rec(x, y) -> bool:
        if ("leaf" in x) != ("leaf" in y):
            return False
        if "leaf" in x:
            return abs(x["leaf"] - y["leaf"]) <= rel * max(1.0, abs(y["leaf"]))
        return all(x[k] == y[k] for k in ("feature", "value", "numeric")) and (
            rec(x["left"], y["left"]) and rec(x["right"], y["right"])
        )

    return rec(a.to_dict(), b.to_dict())


def _features(graph) -> List[str]:
    return [f for f, _, _ in graph.all_features()]


def _release(f: Fit) -> None:
    """Unpersist what a boosting fit leaves cached, so fits do not pile up."""
    f.model._updater.close()
    engine = getattr(f.model, "_engine", None)
    if engine is not None:
        engine.clear_cache()


# ----------------------------------------------------------------------
# favorita_gbm
# ----------------------------------------------------------------------
def _fav_build(spark, seed: int):
    return favorita(spark, seed=seed, **FAVORITA)


def _fav_gbm_fit(data) -> Fit:
    p = GBM_FAV
    gb = GradientBoosting(
        data.graph, n_iters=p["n_iters"], learning_rate=p["learning_rate"],
        params=TrainParams(max_leaves=p["leaves"]), strategy="swap",
    )
    return Fit(gb.fit(), gb)


def _fav_gbm_after_fit(f: Fit) -> None:
    # the rmse of the residuals the updater wrote to the fact
    f.own_rmse = f.model._updater.rmse()
    _release(f)


def _fav_gbm_reference(data):
    p = GBM_FAV
    wide = data.wide_pandas()
    feats = _features(data.graph)
    ref = NpGBM(
        wide, feats, feats, "y", n_iters=p["n_iters"],
        learning_rate=p["learning_rate"], params=TrainParams(max_leaves=p["leaves"]),
    ).fit().ensemble
    return wide, ref


def _fav_gbm_check(reference, f: Fit):
    wide, ref = reference
    trees = f.ensemble.trees
    errors = []
    if len(trees) != len(ref.trees) or not all(
        _trees_match(a, b) for a, b in zip(trees, ref.trees)
    ):
        errors.append("trees differ from NpGBM's on the materialized join")
    rmse = f.ensemble.rmse_np(wide, "y")
    if not abs(rmse - f.own_rmse) <= 1e-9 * abs(rmse):
        errors.append(f"rmse {rmse} on R⋈ but {f.own_rmse} from the residual column")
    return rmse, errors


# ----------------------------------------------------------------------
# favorita_rf
# ----------------------------------------------------------------------
def _fav_rf_fit(data) -> Fit:
    p = RF_FAV
    rf = RandomForest(
        data.graph, n_trees=p["n_trees"], row_fraction=p["row_fraction"],
        feature_fraction=p["feature_fraction"],
        params=TrainParams(max_leaves=p["leaves"]), n_jobs=N_JOBS, seed=RF_SEED,
    )
    return Fit(rf.fit(), rf)


def _fav_rf_reference(data):
    wide = data.wide_pandas()
    mean_rmse = float(np.sqrt(np.mean((wide["y"] - wide["y"].mean()) ** 2)))
    return {"wide": wide, "mean_rmse": mean_rmse}


def _fav_rf_check(reference, f: Fit):
    p = RF_FAV
    trees = f.ensemble.trees
    dicts = [t.to_dict() for t in trees]
    # the first fit checked is the one every later fit must reproduce
    first = reference.setdefault("first", dicts)
    errors = []
    if len(trees) != p["n_trees"] or any(t.n_leaves() > p["leaves"] for t in trees):
        errors.append(f"{len(trees)} trees with {[t.n_leaves() for t in trees]} leaves")
    if dicts != first:
        errors.append("ensemble differs from the first fit with the same seed")
    rmse = f.ensemble.rmse_np(reference["wide"], "y")
    if not rmse < reference["mean_rmse"]:
        errors.append(f"rmse {rmse} not below the mean predictor's {reference['mean_rmse']}")
    return rmse, errors


# ----------------------------------------------------------------------
# imdb_galaxy_gbm
# ----------------------------------------------------------------------
def _imdb_build(spark, seed: int):
    return imdb(spark, seed=seed, **IMDB)


def _imdb_fit(data) -> Fit:
    p = GBM_IMDB
    gb = GradientBoosting(
        data.graph, n_iters=p["n_iters"], learning_rate=p["learning_rate"],
        params=TrainParams(max_leaves=p["leaves"]),
    )
    return Fit(gb.fit(), gb)


def _imdb_after_fit(f: Fit) -> None:
    # the model's rmse read off the engine's global (C, S, Q) aggregate
    c, _, q = f.model._engine.total({})
    f.own_rmse = (q / c) ** 0.5
    _release(f)


def _imdb_reference(data):
    return data.wide_pandas()


def _imdb_check(wide, f: Fit):
    rmse = f.ensemble.rmse_np(wide, "rating")
    errors = []
    if not abs(rmse - f.own_rmse) <= 1e-6 * abs(rmse):
        errors.append(f"rmse {rmse} on R⋈ but {f.own_rmse} from (C, S, Q)")
    if len(f.ensemble.trees) != GBM_IMDB["n_iters"]:
        errors.append(f"{len(f.ensemble.trees)} trees")
    return rmse, errors


#: why each workload is here: the "why" fields of BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("favorita_gbm", _fav_build, _fav_gbm_fit, _fav_gbm_reference,
                 _fav_gbm_check, _fav_gbm_after_fit),
        Workload("favorita_rf", _fav_build, _fav_rf_fit, _fav_rf_reference, _fav_rf_check),
        Workload("imdb_galaxy_gbm", _imdb_build, _imdb_fit, _imdb_reference,
                 _imdb_check, _imdb_after_fit),
    )
}
