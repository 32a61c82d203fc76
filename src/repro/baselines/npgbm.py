"""In-memory tree-training library — the LightGBM/XGBoost stand-in.

LightGBM, XGBoost and Sklearn are not installable in this offline
container, so the "specialized ML library" comparator is implemented
from scratch: a vectorized NumPy histogram-style GBDT over a single
materialized wide table, the same computational shape as LightGBM
(per-node grouped (count, sum) aggregation per feature + in-place
parallel residual writes to a C-contiguous array).

Algorithmic identity with the factorized trainer is deliberate and
*tested*: both use the same best-split scorer
(:func:`repro.core.split.best_split_np`), the same best-first growth,
the same tie-breaks and leaf values — so on identical data they grow
identical trees, reproducing the paper's "JoinBoost … returns models
identical to LightGBM" (§5.1) and making the time comparison purely
about *where* the aggregation work runs.

The wall-clock comparison charges this baseline its "0th iteration":
join materialization + CSV export + load (see
:mod:`repro.baselines.materialize`), exactly as the paper does.
"""
from __future__ import annotations

import heapq
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from ..core.semiring import PREFIX
from ..core.split import Split, best_split_np, pick
from ..core.tree import DecisionTree, Node, Pred, TreeEnsemble
from ..core.trainer import TrainParams


def _node_stats(
    pdf: pd.DataFrame, target: np.ndarray, idx: np.ndarray, feature: str
) -> pd.DataFrame:
    """(value, count, sum-of-target) for the rows at ``idx`` — the same
    per-feature-value aggregate message passing produces."""
    vals = pdf[feature].to_numpy()[idx]
    t = target[idx]
    df = pd.DataFrame({feature: vals, "t": t})
    g = df.groupby(feature, sort=False)["t"].agg(["count", "sum"]).reset_index()
    g.columns = [feature, PREFIX + "c", PREFIX + "s"]
    g[PREFIX + "c"] = g[PREFIX + "c"].astype("float64")
    return g


class NpTreeTrainer:
    """Best-first regression tree over an in-memory wide table."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        features: Sequence[str],
        numeric: Sequence[str],
        params: Optional[TrainParams] = None,
    ) -> None:
        self.pdf = pdf
        self.features = list(features)
        self.numeric = frozenset(numeric)
        self.params = params or TrainParams()

    def _best(
        self, target: np.ndarray, idx: np.ndarray, c0: float, s0: float,
        features: Sequence[str],
    ) -> Optional[Split]:
        p = self.params
        out: Optional[Split] = None
        for f in features:
            stats = _node_stats(self.pdf, target, idx, f)
            s = best_split_np(
                stats, f, f in self.numeric, c0, s0,
                reg_lambda=p.reg_lambda, min_child=p.min_child,
            )
            if s is None or s.gain < p.min_gain:
                continue
            out = pick(out, s)
        return out

    def train(
        self, target: np.ndarray, features: Optional[Sequence[str]] = None
    ) -> DecisionTree:
        p = self.params
        feats = list(features) if features is not None else self.features
        idx0 = np.arange(len(self.pdf))
        c0, s0 = float(len(idx0)), float(target.sum())
        root = Node(0, prediction=p.leaf_value(c0, s0))
        tree = DecisionTree(root)
        sp = self._best(target, idx0, c0, s0, feats) if p.splittable(1, 0, c0) else None
        pq: List[Tuple[float, int, Node, np.ndarray, float, float, Split]] = []
        counter = itertools.count()
        if sp is not None:
            heapq.heappush(pq, (-sp.gain, next(counter), root, idx0, c0, s0, sp))
        n_leaves = 1
        while pq and n_leaves < p.max_leaves:
            _, _, node, idx, c_t, s_t, split = heapq.heappop(pq)
            n_leaves += 1
            node.split_feature = split.feature
            node.split_value = split.value
            node.split_numeric = split.numeric
            lpred = Pred(split.feature, split.value, split.numeric, True)
            mask = lpred.mask(self.pdf.iloc[idx])
            for left in (True, False):
                cidx = idx[mask] if left else idx[~mask]
                c = split.c_left if left else c_t - split.c_left
                s = split.s_left if left else s_t - split.s_left
                child = Node(
                    node.depth + 1,
                    preds=node.preds
                    + [Pred(split.feature, split.value, split.numeric, left)],
                    prediction=p.leaf_value(c, s),
                )
                if left:
                    node.left = child
                else:
                    node.right = child
                if p.splittable(n_leaves, child.depth, c):
                    csp = self._best(target, cidx, c, s, feats)
                    if csp is not None:
                        heapq.heappush(
                            pq, (-csp.gain, next(counter), child, cidx, c, s, csp)
                        )
            node.prediction = None
        return tree


@dataclass
class NpIterationLog:
    tree_seconds: float
    update_seconds: float
    rmse: Optional[float] = None


@dataclass
class NpFitResult:
    ensemble: TreeEnsemble
    logs: List[NpIterationLog] = field(default_factory=list)

    def total_seconds(self, upto: Optional[int] = None) -> float:
        logs = self.logs if upto is None else self.logs[:upto]
        return sum(l.tree_seconds + l.update_seconds for l in logs)


class NpGBM:
    """Gradient boosting over the materialized wide table (rmse loss)."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        features: Sequence[str],
        numeric: Sequence[str],
        y: str,
        n_iters: int = 10,
        learning_rate: float = 0.1,
        params: Optional[TrainParams] = None,
        track_rmse: bool = False,
    ) -> None:
        self.pdf = pdf
        self.y = y
        self.n_iters = n_iters
        self.lr = learning_rate
        self.track_rmse = track_rmse
        self.trainer = NpTreeTrainer(pdf, features, numeric, params)

    def fit(self) -> NpFitResult:
        yv = self.pdf[self.y].to_numpy(dtype="float64")
        base = float(yv.mean())
        residual = yv - base  # the C-array LightGBM writes in place
        ens = TreeEnsemble(base_score=base, learning_rate=self.lr)
        logs: List[NpIterationLog] = []
        for _ in range(self.n_iters):
            t0 = time.perf_counter()
            tree = self.trainer.train(residual)
            t1 = time.perf_counter()
            # residual update: in-place vectorized write — the paper's
            # LightGBM reference behaviour (red line in Fig 5)
            residual -= self.lr * tree.predict_np(self.pdf)
            t2 = time.perf_counter()
            ens.trees.append(tree)
            logs.append(
                NpIterationLog(
                    t1 - t0,
                    t2 - t1,
                    float(np.sqrt(np.mean(residual**2))) if self.track_rmse else None,
                )
            )
        return NpFitResult(ens, logs)


class NpRandomForest:
    """Bagged trees over the materialized wide table."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        features: Sequence[str],
        numeric: Sequence[str],
        y: str,
        n_trees: int = 8,
        row_fraction: float = 0.1,
        feature_fraction: float = 0.8,
        params: Optional[TrainParams] = None,
        n_jobs: int = 1,
        seed: int = 0,
    ) -> None:
        self.pdf = pdf
        self.features = list(features)
        self.numeric = list(numeric)
        self.y = y
        self.n_trees = n_trees
        self.row_fraction = row_fraction
        self.feature_fraction = feature_fraction
        self.params = params or TrainParams()
        self.n_jobs = n_jobs
        self.seed = seed

    def _one(self, i: int) -> Tuple[DecisionTree, float]:
        rng = np.random.default_rng(self.seed + i)
        t0 = time.perf_counter()
        n = len(self.pdf)
        idx = rng.choice(n, size=max(1, int(n * self.row_fraction)), replace=False)
        sub = self.pdf.iloc[np.sort(idx)].reset_index(drop=True)
        k = max(1, int(round(len(self.features) * self.feature_fraction)))
        feats = sorted(rng.choice(self.features, size=k, replace=False).tolist())
        trainer = NpTreeTrainer(sub, feats, self.numeric, self.params)
        tree = trainer.train(sub[self.y].to_numpy(dtype="float64"))
        return tree, time.perf_counter() - t0

    def fit(self) -> Tuple[TreeEnsemble, List[float], float]:
        t0 = time.perf_counter()
        if self.n_jobs > 1:
            with ThreadPoolExecutor(self.n_jobs) as ex:
                results = list(ex.map(self._one, range(self.n_trees)))
        else:
            results = [self._one(i) for i in range(self.n_trees)]
        wall = time.perf_counter() - t0
        ens = TreeEnsemble(trees=[t for t, _ in results], average=True)
        return ens, [s for _, s in results], wall
