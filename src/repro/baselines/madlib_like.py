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

from typing import Iterator, List, Optional, Sequence

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from ..core.join_graph import JoinGraph
from ..core.split import Split
from ..core.trainer import TrainParams, grow
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
        feats = [
            (f, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]
        cand_cache = {f: self._candidates(f) for f, _ in feats}

        def candidates(node: Node, c: float, s: float) -> Iterator[Optional[Split]]:
            df = self.wide
            for pred in node.preds:
                df = df.filter(pred.col())
            for f, num in feats:
                for v in cand_cache[f]:
                    yield self._eval_candidate(df, f, v, num, c, s)

        y = F.col(self.graph.y_column)
        row = self.wide.agg(
            F.count(F.lit(1)).alias("c"), F.sum(y).alias("s")
        ).collect()[0]
        self.queries_issued += 1
        c0, s0 = float(row["c"] or 0), float(row["s"] or 0.0)
        return grow(self.params, c0, s0, candidates)

    def close(self) -> None:
        self.wide.unpersist()
