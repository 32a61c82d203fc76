"""Factorized decision-tree training — paper Algorithm 1 + Sections 3.3, 5.5.

:func:`grow` is Algorithm 1's best-first growth (priority queue on
criteria reduction), written once for every Spark trainer: each trainer
supplies only the per-feature best splits of a node, from statistics
filtered by the node's path predicates.

:class:`FactorizedTreeTrainer` grows one tree over a :class:`JoinGraph`,
evaluating every candidate split from semi-ring aggregates produced by
the :class:`MessageEngine` — ``R⋈`` is never materialized.

Three modes reproduce the paper's Fig 16a ablation:

* ``joinboost`` — message passing with the cross-node message cache
  (Section 5.5.1): after a split on relation ``R``, every message whose
  subtree excludes ``R`` is reused by both children.
* ``batch``     — LMFAO-equivalent: messages shared between the
  group-by queries *within* one node, but the cache is dropped between
  nodes (no parent→child sharing).
* ``naive``     — no factorization: the join is materialized once and
  every node/feature query is a filter + group-by over the wide table
  (:class:`NaiveTreeTrainer`).

Split finding per feature uses the collected ``(value, c, s)`` stats
with the NumPy scorer by default (the "dataframe backend"), or the
pure-Spark-SQL window-function scorer when ``sql_splits=True``
(fidelity mode; both are tested to agree).

Inter-query parallelism (Section 5.5.3): with ``n_jobs > 1`` the
per-feature absorption queries of a node run on a thread pool —
Spark schedules concurrent jobs from threads — while message creation
is serialized under a lock (messages are the shared upstream
dependency, mirroring the paper's dependency-aware FIFO scheduler).
"""
from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import pyspark.sql.functions as F

from .join_graph import JoinGraph
from .messages import Context, MessageEngine, node_context
from .semiring import PREFIX, VarianceSemiring
from .split import Split, best_split_np, best_split_sql, pick
from .tree import DecisionTree, Node, Pred


@dataclass
class TrainParams:
    """LightGBM-style training parameters (paper §5.1 API compatibility)."""

    max_leaves: int = 8
    max_depth: int = 32
    min_gain: float = 1e-12  # α: minimum criteria reduction to split
    min_child: float = 1.0  # minimum c (count / hessian) per leaf
    reg_lambda: float = 0.0  # β in Appendix B
    n_jobs: int = 1
    sql_splits: bool = False

    def splittable(self, n_leaves: int, depth: int, c: float) -> bool:
        """Is a new node worth a best-split search?

        ``n_leaves`` is the tree's leaf count once the node exists.
        Growth pops a node only while the tree has fewer than
        ``max_leaves`` leaves, and the count never falls, so a node born
        with the budget spent is never split: its best split would be
        thrown away (LightGBM's leaf-wise loop searches only while
        ``split < num_leaves - 1`` for the same reason).
        """
        return (
            n_leaves < self.max_leaves
            and depth < self.max_depth
            and c > 2 * self.min_child
        )

    def leaf_value(self, c: float, s: float) -> float:
        """Optimal leaf value ``Σs / (Σc + β)`` (Appendix B)."""
        denom = c + self.reg_lambda
        return 0.0 if denom == 0 else s / denom


#: ``candidates(node, c, s)``: one best split (or None) per feature
Candidates = Callable[[Node, float, float], Iterable[Optional[Split]]]


def grow(
    params: TrainParams, c0: float, s0: float, candidates: Candidates
) -> DecisionTree:
    """Best-first tree growth (Algorithm 1), shared by every Spark trainer.

    ``c0``/``s0`` are the root's totals. A trainer supplies only
    ``candidates``, called once for each node that
    :meth:`TrainParams.splittable` admits; the node carries its depth and
    path predicates (``node.preds``), from which the trainer builds its
    statistics. Children's totals come from the parent's split, so only
    split search touches data.
    """
    p = params
    heap: List[Tuple[float, int, Node, float, float, Split]] = []
    tie = itertools.count()
    n_leaves = 1

    def visit(node: Node, c: float, s: float) -> None:
        node.prediction = p.leaf_value(c, s)
        if not p.splittable(n_leaves, node.depth, c):
            return
        best: Optional[Split] = None
        for split in candidates(node, c, s):
            if split is not None and split.gain >= p.min_gain:
                best = pick(best, split)
        if best is not None:
            heapq.heappush(heap, (-best.gain, next(tie), node, c, s, best))

    root = Node(0)
    visit(root, c0, s0)
    while heap and n_leaves < p.max_leaves:
        _, _, node, c, s, split = heapq.heappop(heap)
        n_leaves += 1
        node.split_feature = split.feature
        node.split_value = split.value
        node.split_numeric = split.numeric
        node.prediction = None
        for left in (True, False):
            pred = Pred(split.feature, split.value, split.numeric, left)
            child = Node(node.depth + 1, preds=node.preds + [pred])
            if left:
                node.left = child
                visit(child, split.c_left, split.s_left)
            else:
                node.right = child
                visit(child, c - split.c_left, s - split.s_left)
    return DecisionTree(root)


class FactorizedTreeTrainer:
    """Grow decision trees over normalized data via message passing."""

    def __init__(
        self,
        graph: JoinGraph,
        semiring: Optional[VarianceSemiring] = None,
        params: Optional[TrainParams] = None,
        mode: str = "joinboost",
    ) -> None:
        if mode not in ("joinboost", "batch"):
            raise ValueError(f"unknown mode {mode!r} (naive uses NaiveTreeTrainer)")
        self.graph = graph
        self.semiring = semiring or VarianceSemiring(track_q=False)
        self.params = params or TrainParams()
        self.mode = mode
        self.engine = MessageEngine(graph, self.semiring)
        self._msg_lock = threading.Lock()

    # -- split evaluation ----------------------------------------------
    def _eval_feature(
        self,
        feature: str,
        numeric: bool,
        context: Context,
        c_total: float,
        s_total: float,
    ) -> Optional[Split]:
        stats_df = self.engine.aggregate_feature(feature, context)
        kw = dict(
            c_total=c_total,
            s_total=s_total,
            reg_lambda=self.params.reg_lambda,
            min_child=self.params.min_child,
        )
        if self.params.sql_splits:
            return best_split_sql(stats_df, feature, numeric, **kw)
        return best_split_np(stats_df.toPandas(), feature, numeric, **kw)

    def _warm_messages(
        self, context: Context, allowed: Sequence[Tuple[str, str, bool]]
    ) -> None:
        """Serially materialize every message a node's batch will need.

        This is the single-writer side of the scheduler: messages are
        the shared dependencies, so they are created under the lock and
        the per-feature absorptions can then fan out on threads.
        """
        roots = {rel for _, rel, _ in allowed}
        with self._msg_lock:
            for root in roots:
                for src, dst, _ in self.graph.message_schedule(root):
                    self.engine.message(src, dst, context)

    def _splits(
        self,
        context: Context,
        c_total: float,
        s_total: float,
        allowed: Sequence[Tuple[str, str, bool]],
    ) -> List[Optional[Split]]:
        """GetBestSplit (Algorithm 1, L11-16): one split per allowed feature."""
        self._warm_messages(context, allowed)
        if self.params.n_jobs > 1:
            with ThreadPoolExecutor(self.params.n_jobs) as ex:
                return list(
                    ex.map(
                        lambda fr: self._eval_feature(
                            fr[0], fr[2], context, c_total, s_total
                        ),
                        allowed,
                    )
                )
        return [
            self._eval_feature(f, num, context, c_total, s_total)
            for f, _, num in allowed
        ]

    # -- growth ---------------------------------------------------------
    def train(
        self, features: Optional[Sequence[str]] = None, cpt: bool = False
    ) -> DecisionTree:
        """Train one tree (Algorithm 1).

        ``cpt=True`` applies Clustered Predicate Trees (Section 4.2.2):
        after the root split, candidate features are restricted to the
        cluster containing the root split's relation, and the chosen
        cluster fact is recorded on the tree for residual updates.
        """
        graph = self.graph
        all_feats = [
            (f, r, num)
            for f, r, num in graph.all_features()
            if features is None or f in features
        ]

        # batch mode drops the cache once per split node: the root's
        # total and features share it, and so do the two children
        shared: Optional[tuple] = None

        def candidates(node: Node, c: float, s: float) -> List[Optional[Split]]:
            nonlocal shared
            parent = tuple(node.preds[:-1]) if node.preds else None
            if self.mode == "batch" and parent != shared:
                self.engine.clear_cache()
                shared = parent
            allowed = all_feats
            if cpt and node.preds:
                # the root split's relation locks the tree's cluster
                fact = graph.cluster_of_feature(node.preds[0].feature)[0]
                members = graph.clusters()[fact]
                allowed = [(f, r, num) for f, r, num in all_feats if r in members]
            return self._splits(node_context(graph, node.preds), c, s, allowed)

        if self.mode == "batch":
            self.engine.clear_cache()
        c0, s0, *_ = self.engine.total({})
        tree = grow(self.params, c0, s0, candidates)
        if cpt and not tree.root.is_leaf:
            tree.cluster = graph.cluster_of_feature(tree.root.split_feature)[0]
        return tree


class NaiveTreeTrainer:
    """Non-factorized comparator: materialize ``R⋈`` and query it.

    Used for the paper's Fig 16a "Naive" variant: the join result is
    computed (and cached) once, then every tree-node/feature candidate
    is a plain filter + group-by aggregation over the wide table — no
    message passing, no sharing.
    """

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
    ) -> None:
        self.graph = graph
        self.params = params or TrainParams()
        self.wide = graph.materialize().cache()
        self.wide.count()

    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        p = self.params
        y = F.col(self.graph.y_column)
        feats = [
            (f, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]

        def candidates(node: Node, c: float, s: float) -> Iterable[Optional[Split]]:
            base = self.wide
            for pred in node.preds:
                base = base.filter(pred.col())
            for f, num in feats:
                stats = (
                    base.groupBy(f)
                    .agg(
                        F.count(F.lit(1)).cast("double").alias(PREFIX + "c"),
                        F.sum(y).alias(PREFIX + "s"),
                    )
                    .toPandas()
                )
                yield best_split_np(
                    stats, f, num, c, s,
                    reg_lambda=p.reg_lambda, min_child=p.min_child,
                )

        row = self.wide.agg(
            F.count(F.lit(1)).alias("c"), F.sum(y).alias("s")
        ).collect()[0]
        return grow(p, float(row["c"] or 0), float(row["s"] or 0.0), candidates)

    def close(self) -> None:
        self.wide.unpersist()
