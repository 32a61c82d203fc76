"""MADLib-style non-factorized trainer (paper §6.4, Fig 16b comparator).

MADLib (a PostgreSQL extension) is not installable here; its two
performance-relevant properties are reproduced instead, per the paper's
own diagnosis ("lack of factorized ML and an inefficient
implementation"):

* **no factorization** — the join is fully materialized before
  training, and
* **inefficient execution** — every candidate split is evaluated by its
  own filter + aggregate query over the wide table (no per-feature
  grouped aggregation, no work sharing, no prefix sums), which is the
  query pattern a UDF-per-split-candidate implementation induces.

The paper could only run MADLib on 10k rows (it times out on the full
data); the T10 harness does the same.
"""
from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from ..core.join_graph import JoinGraph
from ..core.split import Split, better, pick
from ..core.trainer import TrainParams
from ..core.tree import DecisionTree, Node, Pred


class MadlibLikeTrainer:
    """Decision-tree training, one aggregation query per candidate split."""

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
        max_candidates: int = 8,
    ) -> None:
        self.graph = graph
        self.params = params or TrainParams()
        self.max_candidates = max_candidates
        self._ids = itertools.count()
        self.wide = graph.materialize().cache()
        self.wide.count()
        self.queries_issued = 0

    def _candidates(self, feature: str) -> List:
        """Evenly spaced candidate split values over the feature domain."""
        rows = (
            self.wide.select(feature)
            .distinct()
            .orderBy(feature)
            .collect()
        )
        vals = [r[0] for r in rows]
        if len(vals) <= self.max_candidates:
            return vals[:-1]  # last value has an empty right side
        idx = np.linspace(0, len(vals) - 2, self.max_candidates).astype(int)
        return [vals[i] for i in idx]

    def _eval_candidate(
        self,
        base: DataFrame,
        feature: str,
        value,
        numeric: bool,
        c_tot: float,
        s_tot: float,
    ) -> Optional[Split]:
        y = self.graph.y_column
        pred = Pred(feature, value, numeric, True)
        row = (
            base.filter(pred.col())
            .agg(F.count(F.lit(1)).alias("c"), F.sum(F.col(y)).alias("s"))
            .collect()[0]
        )
        self.queries_issued += 1
        c_l = float(row["c"] or 0)
        s_l = float(row["s"] or 0.0)
        p = self.params
        if c_l < p.min_child or c_tot - c_l < p.min_child:
            return None
        lam = p.reg_lambda
        gain = (
            (s_l / (c_l + lam)) * s_l
            + ((s_tot - s_l) / (c_tot - c_l + lam)) * (s_tot - s_l)
            - (s_tot / (c_tot + lam)) * s_tot
        )
        return Split(feature, value, numeric, gain, c_l, s_l)

    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        p = self.params
        y = self.graph.y_column
        feats = [
            (f, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]
        cand_cache = {f: self._candidates(f) for f, _ in feats}

        def totals(df: DataFrame) -> Tuple[float, float]:
            row = df.agg(
                F.count(F.lit(1)).alias("c"), F.sum(F.col(y)).alias("s")
            ).collect()[0]
            self.queries_issued += 1
            return float(row["c"] or 0), float(row["s"] or 0.0)

        def best(df: DataFrame, c0: float, s0: float) -> Optional[Split]:
            out: Optional[Split] = None
            for f, num in feats:
                for v in cand_cache[f]:
                    s = self._eval_candidate(df, f, v, num, c0, s0)
                    if s is None or s.gain < p.min_gain:
                        continue
                    out = pick(out, s)
            return out

        c0, s0 = totals(self.wide)
        root = Node(next(self._ids), 0, prediction=(s0 / c0 if c0 else 0.0))
        tree = DecisionTree(root)
        sp = best(self.wide, c0, s0) if p.splittable(1, 0, c0) else None
        pq: List[Tuple[float, int, Node, DataFrame, float, float, Split]] = []
        counter = itertools.count()
        if sp is not None:
            heapq.heappush(pq, (-sp.gain, next(counter), root, self.wide, c0, s0, sp))
        n_leaves = 1
        while pq and n_leaves < p.max_leaves:
            _, _, node, df, c_t, s_t, split = heapq.heappop(pq)
            n_leaves += 1
            node.split_feature = split.feature
            node.split_value = split.value
            node.split_numeric = split.numeric
            for left in (True, False):
                pr = Pred(split.feature, split.value, split.numeric, left)
                cdf = df.filter(pr.col())
                c = split.c_left if left else c_t - split.c_left
                s = split.s_left if left else s_t - split.s_left
                child = Node(
                    next(self._ids),
                    node.depth + 1,
                    preds=node.preds + [pr],
                    prediction=(s / c if c else 0.0),
                )
                if left:
                    node.left = child
                else:
                    node.right = child
                if p.splittable(n_leaves, child.depth, c):
                    csp = best(cdf, c, s)
                    if csp is not None:
                        heapq.heappush(
                            pq, (-csp.gain, next(counter), child, cdf, c, s, csp)
                        )
            node.prediction = None
        return tree

    def close(self) -> None:
        self.wide.unpersist()
