"""Batched star-schema trainer — LMFAO-style aggregate batching on Spark.

The fully general :class:`~repro.core.trainer.FactorizedTreeTrainer`
issues one Spark query per message and per feature absorption, exactly
mirroring the paper's query census (Fig 9). That fidelity is kept for
tests and the LMFAO ablation, but Spark's fixed per-query cost (~0.5s
of scheduling per job, vs ~10ms for DuckDB) would swamp the actual
aggregation work at laptop scale. This module is the batched
counterpart the paper itself describes ("rewrites the tree node split
algorithm into a batch of group-by aggregations", §1; LMFAO's batch of
queries, §3.3): for one tree node, **all** messages from the fact are
one ``GROUPING SETS`` aggregation —

    SELECT k₁, …, k_m, grouping_id(), SUM(c), SUM(s)
    FROM   σ_node(F)
    GROUP BY GROUPING SETS ((k₁), …, (k_m), ())

where ``k_i`` are the fact-side join keys (plus fact-local feature
columns) and the empty set yields the node totals. Absorption — joining
each per-key message with its (tiny, driver-resident) dimension table
and grouping by the feature — runs vectorized on the driver, the
paper's own "Pandas dataframe backend" (§5.1 lists dataframes as a
supported backend). Aggregation pushdown is identical: the fact is
aggregated by join key *before* any contact with the dimensions, and
``R⋈`` is never materialized.

Requirements (checked at init): a snowflake star where every feature
relation is the fact itself or directly adjacent to it, every
fact–dimension edge joins on a single key column, and only the fact
carries annotations. Deeper snowflakes and galaxy schemas use the
general engine.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import Column, DataFrame

from .join_graph import JoinGraph
from .messages import Context, node_context
from .semiring import PREFIX
from .split import Split, best_split_np
from .trainer import TrainParams, grow
from .tree import DecisionTree, Node


def _ctx_key(ctx: Context) -> frozenset:
    return frozenset((r, p) for r, preds in ctx.items() for p in preds)


class StarTreeTrainer:
    """Factorized tree training on star schemas, one Spark job per evaluated node."""

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
    ) -> None:
        graph.validate_tree()
        if not graph.is_snowflake():
            raise ValueError("StarTreeTrainer requires a snowflake schema")
        self.graph = graph
        self.params = params or TrainParams()
        self.hub = next(iter(graph.clusters()))
        for e in graph.edges:
            if e.many == self.hub and len(e.keys) > 1:
                raise ValueError(
                    f"composite join key {e.keys} on edge {e.many}-{e.one}: "
                    "the star path groups and filters the fact on one key "
                    "column — use FactorizedTreeTrainer"
                )
        # feature → (fact-side grouping column, dim name or None)
        self.feature_col: Dict[str, Tuple[str, Optional[str]]] = {}
        for f, rel, num in graph.all_features():
            if rel == self.hub:
                self.feature_col[f] = (f, None)
            else:
                edge = next(
                    (
                        e
                        for e in graph.edges
                        if e.many == self.hub and e.one == rel
                    ),
                    None,
                )
                if edge is None:
                    raise ValueError(
                        f"feature relation {rel!r} is not adjacent to the "
                        f"fact {self.hub!r} — use FactorizedTreeTrainer"
                    )
                self.feature_col[f] = (edge.keys[0], rel)
        # dimensions live on the driver: they are small by the paper's
        # own premise (<2MB each for Favorita)
        self.dim_pandas: Dict[str, pd.DataFrame] = {
            name: rel.df.toPandas()
            for name, rel in graph.relations.items()
            if name != self.hub
        }
        self.fact: Optional[DataFrame] = None
        self._memo: Dict[frozenset, pd.DataFrame] = {}
        self.jobs_run = 0

    def clone(self) -> "StarTreeTrainer":
        """A cheap copy sharing the (read-only) driver-side dimensions.

        Used by the random forest to give each thread-parallel tree its
        own fact annotation and stats memo without re-collecting dims.
        """
        new = StarTreeTrainer.__new__(StarTreeTrainer)
        new.__dict__ = {**self.__dict__}
        new.fact = None
        new._memo = {}
        new.jobs_run = 0
        return new

    # -- annotation -----------------------------------------------------
    def set_fact(self, annotated: DataFrame) -> None:
        """Install the annotated fact (``__c``, ``__s`` columns present)."""
        self.fact = annotated
        self._memo.clear()

    # -- node evaluation -------------------------------------------------
    def _fact_filter(self, ctx: Context) -> Column:
        cond = F.lit(True)
        for rel, preds in sorted(ctx.items()):
            if rel == self.hub:
                for p in preds:
                    cond = cond & p.col()
            else:
                pdf = self.dim_pandas[rel]
                mask = np.ones(len(pdf), dtype=bool)
                for p in preds:
                    mask &= p.mask(pdf)
                edge = next(
                    e for e in self.graph.edges
                    if e.many == self.hub and e.one == rel
                )
                keys = pdf.loc[mask, edge.keys[0]].tolist()
                cond = cond & F.col(edge.keys[0]).isin(keys)
        return cond

    def _node_stats(self, ctx: Context, cols: Sequence[str]) -> pd.DataFrame:
        """The node's batched message table (memoized per context)."""
        key = _ctx_key(ctx)
        if key in self._memo:
            return self._memo[key]
        assert self.fact is not None, "set_fact() before training"
        df = self.fact.filter(self._fact_filter(ctx))
        sets = [[c] for c in cols] + [[]]
        out = (
            df.groupingSets(sets, *cols)
            .agg(
                F.sum(PREFIX + "c").alias(PREFIX + "c"),
                F.sum(PREFIX + "s").alias(PREFIX + "s"),
                F.grouping_id().alias("__gid"),
            )
            .toPandas()
        )
        self.jobs_run += 1
        self._memo[key] = out
        return out

    def _derive_sibling(
        self,
        parent_ctx: Context,
        left_ctx: Context,
        right_ctx: Context,
        cols: Sequence[str],
    ) -> None:
        """Right-child stats by subtraction: parent − left (driver-side).

        The split partitions ``R⋈``, so every per-key semi-ring sum of
        the right child is exactly the parent's minus the left child's —
        LightGBM's histogram-subtraction trick, here saving one Spark
        job per split. The result is installed into the memo so
        the right child's split search never issues a query.
        """
        parent = self._node_stats(parent_ctx, cols)
        left = self._node_stats(left_ctx, cols)
        on = ["__gid"] + list(cols)
        merged = parent.merge(left, on=on, how="left", suffixes=("", "_l"))
        for comp in ("c", "s"):
            lcol = PREFIX + comp + "_l"
            merged[lcol] = merged[lcol].fillna(0.0)
            merged[PREFIX + comp] = merged[PREFIX + comp] - merged[lcol]
        out = merged[[*on, PREFIX + "c", PREFIX + "s"]]
        out = out[out[PREFIX + "c"] > 0.5].reset_index(drop=True)
        self._memo[_ctx_key(right_ctx)] = out

    def _grouping_cols(self, features: Sequence[str]) -> List[str]:
        return sorted({self.feature_col[f][0] for f in features})

    def _totals(self, stats: pd.DataFrame, cols: Sequence[str]) -> Tuple[float, float]:
        gid_all = (1 << len(cols)) - 1
        row = stats[stats["__gid"] == gid_all]
        if row.empty or row[PREFIX + "c"].iloc[0] is None:
            return 0.0, 0.0
        return float(row[PREFIX + "c"].iloc[0] or 0), float(row[PREFIX + "s"].iloc[0] or 0)

    def _feature_stats(
        self, stats: pd.DataFrame, cols: Sequence[str], feature: str
    ) -> pd.DataFrame:
        col, dim = self.feature_col[feature]
        i = list(cols).index(col)
        gid = ((1 << len(cols)) - 1) ^ (1 << (len(cols) - 1 - i))
        slice_ = stats[stats["__gid"] == gid][[col, PREFIX + "c", PREFIX + "s"]]
        if dim is None:
            return slice_.rename(columns={col: feature}) if col != feature else slice_
        pdf = self.dim_pandas[dim][[col, feature]]
        merged = slice_.merge(pdf, on=col, how="inner")
        return (
            merged.groupby(feature, sort=False)[[PREFIX + "c", PREFIX + "s"]]
            .sum()
            .reset_index()
        )

    # -- growth -----------------------------------------------------------
    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        p = self.params
        self._memo.clear()
        allowed = [
            (f, num)
            for f, _, num in self.graph.all_features()
            if features is None or f in features
        ]
        cols = self._grouping_cols([f for f, _ in allowed])

        def candidates(node: Node, c: float, s: float) -> Iterator[Optional[Split]]:
            ctx = node_context(self.graph, node.preds)
            right = bool(node.preds) and not node.preds[-1].left
            if right and _ctx_key(ctx) not in self._memo:
                # right child: derive stats from parent − left instead
                # of running another Spark job
                up = node.preds[:-1]
                left = up + [replace(node.preds[-1], left=True)]
                self._derive_sibling(
                    node_context(self.graph, up),
                    node_context(self.graph, left),
                    ctx,
                    cols,
                )
            stats = self._node_stats(ctx, cols)
            for f, num in allowed:
                yield best_split_np(
                    self._feature_stats(stats, cols, f), f, num, c, s,
                    reg_lambda=p.reg_lambda, min_child=p.min_child,
                )

        c0, s0 = self._totals(self._node_stats({}, cols), cols)
        return grow(p, c0, s0, candidates)
