"""Span recorder and the wrappers that time calls into each layer.

The program itself carries no tracing, so the benchmark times the calls
it makes into each ``repro.core`` module and into PySpark from outside:
while tracing is on, :meth:`Tracer.install` replaces chosen methods and
module-level functions with thin wrappers (the same monkeypatching the
T3 census harness uses) that record one span per call. Spans are kept in
memory and reduced to per-layer metrics by :func:`layer_metrics` once a
fit returns.

A span records its layer name, start, end and the span that was
open on the same thread when it started (its parent). Spans named
``spark.*`` mark the PySpark boundary: only the outermost one on a
thread is recorded (``toPandas`` may call ``collect`` internally), and
they are not subtracted when a layer's self time is computed, because
Spark work done on behalf of a layer is that layer's cost.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder and the wrappers that feed it.

    :meth:`install` wraps the layer entry points, :meth:`start` and
    :meth:`stop` bracket the calls to record; thread-safe.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.engines: list = []
        self.message_queries = self.message_hits = self.eager_queries = 0
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[tuple] = []

    def start(self) -> None:
        self.spans, self.engines, self.enabled = [], [], True

    def stop(self) -> None:
        """Stop recording; snapshot the message census of the engines seen."""
        self.enabled = False
        self.message_queries = sum(e.stats.message_queries for e in self.engines)
        self.message_hits = sum(e.stats.message_cache_hits for e in self.engines)
        self.eager_queries = sum(e.stats.message_queries for e in self.engines if e.eager)

    def _stack(self) -> List[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn: Callable, args, kwargs, before=None, after=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        boundary = name.startswith("spark.")
        if boundary and any(s.name.startswith("spark.") for s in stack):
            return fn(*args, **kwargs)
        span = Span(name, 0.0, stack[-1] if stack else None)
        if before is not None:
            before(span, args, kwargs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if after is not None:
            after(span, out, args)
        return out

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, before, after)

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap the layer entry points; idempotent."""
        if self._installed:
            return
        from pyspark.sql.classic.column import Column
        from pyspark.sql.classic.dataframe import DataFrame
        from repro.core import gbm, messages, residual, rf, star_trainer, trainer

        w = self._wrap
        # repro.core.gbm
        w(gbm.GradientBoosting, "fit", "gbm.fit")
        # repro.core.star_trainer
        w(star_trainer.StarTreeTrainer, "train", "star_trainer.train")
        w(
            star_trainer.StarTreeTrainer, "_node_stats", "star_trainer.node_stats",
            before=lambda sp, a, kw: sp.attrs.__setitem__(
                "miss", float(star_trainer._ctx_key(a[1]) not in a[0]._memo)
            ),
        )
        w(star_trainer.StarTreeTrainer, "_derive_sibling", "star_trainer.derive")
        w(star_trainer.StarTreeTrainer, "_fact_filter", "star_trainer.fact_filter")
        w(star_trainer.StarTreeTrainer, "_feature_stats", "star_trainer.absorb")
        # repro.core.split, looked up by name in the modules that call it
        w(star_trainer, "best_split_np", "split.scan")
        w(trainer, "best_split_np", "split.scan")
        w(trainer, "best_split_sql", "split.scan")
        # repro.core.residual
        w(residual, "leaf_condition", "residual.leaf_condition")
        w(residual.SnowflakeResidualUpdater, "update", "residual.update")
        w(residual.GalaxyAnnotationUpdater, "update", "residual.galaxy_update")
        # repro.core.messages
        w(
            messages.MessageEngine, "__init__", "messages.init",
            after=lambda sp, out, a: self.engines.append(a[0]),
        )
        w(messages.MessageEngine, "message", "messages.message")
        w(messages.MessageEngine, "total", "messages.total")
        # repro.core.trainer
        w(trainer.FactorizedTreeTrainer, "train", "trainer.train")
        w(trainer.FactorizedTreeTrainer, "_eval_feature", "trainer.eval_feature")
        # repro.core.rf
        w(rf.RandomForest, "_train_one", "rf.tree")
        # the PySpark boundary
        rows = lambda sp, out, a: sp.attrs.__setitem__("rows", float(len(out)))  # noqa: E731
        w(DataFrame, "toPandas", "spark.collect", after=rows)
        w(DataFrame, "collect", "spark.collect", after=rows)
        w(DataFrame, "count", "spark.materialize")
        w(
            Column, "isin", "spark.isin",
            before=lambda sp, a, kw: sp.attrs.__setitem__(
                "literals", float(_n_literals(a[1:]))
            ),
        )

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)


def _n_literals(cols) -> int:
    if len(cols) == 1 and isinstance(cols[0], (list, set, tuple)):
        return len(cols[0])
    return len(cols)


# ----------------------------------------------------------------------
# reduction to per-layer metrics
# ----------------------------------------------------------------------
def _self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    kids = [c for c in children.get(id(span), ()) if not c.name.startswith("spark.")]
    return span.dur - sum(c.dur for c in kids)


def layer_metrics(tracer: Tracer, n_jobs: int) -> Dict[str, float]:
    """Per-layer totals of the fit just traced (times in seconds)."""
    spans = tracer.spans
    by: Dict[str, List[Span]] = {}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def tot(name: str) -> float:
        return sum(s.dur for s in by.get(name, ()))

    def n(name: str) -> float:
        return float(len(by.get(name, ())))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0.0) for s in by.get(name, ()))

    m: Dict[str, float] = {}

    # repro.core.gbm: fit = prefit + trees + updates + unaccounted
    fits = by.get("gbm.fit", [])
    trees = [s for s in by.get("star_trainer.train", []) + by.get("trainer.train", [])
             if _under(s, "gbm.fit")]
    updates = [s for s in by.get("residual.update", []) + by.get("residual.galaxy_update", [])
               if _under(s, "gbm.fit")]
    fit_s = sum(s.dur for s in fits)
    prefit = sum(min((t.start for t in trees), default=f.end) - f.start for f in fits)
    m["gbm.prefit_s"] = prefit
    m["gbm.tree_s"] = sum(s.dur for s in trees)
    m["gbm.update_s"] = sum(s.dur for s in updates)
    m["gbm.unaccounted_s"] = (fit_s - prefit - m["gbm.tree_s"] - m["gbm.update_s"]) if fits else 0.0

    # repro.core.star_trainer
    lookups = by.get("star_trainer.node_stats", [])
    misses = [s for s in lookups if s.attrs.get("miss")]
    m["star_trainer.node_jobs"] = float(len(misses))
    m["star_trainer.node_stats_s"] = sum(s.dur for s in lookups)
    m["star_trainer.fact_filter_s"] = tot("star_trainer.fact_filter")
    m["star_trainer.absorb_s"] = tot("star_trainer.absorb")
    # every node's stats come from one GROUPING SETS job or from parent −
    # sibling; the memo's other hits re-read a node already counted
    derived = n("star_trainer.derive")
    nodes = len(misses) + derived
    m["star_trainer.memo_hit_ratio"] = derived / nodes if nodes else 0.0

    # repro.core.split
    m["split.calls"] = n("split.scan")
    m["split.scan_s"] = tot("split.scan")

    # repro.core.residual
    m["residual.leaf_conditions"] = n("residual.leaf_condition")
    m["residual.leaf_condition_s"] = tot("residual.leaf_condition")
    m["residual.update_exec_s"] = sum(
        u.dur - sum(c.dur for c in children.get(id(u), ()) if c.name == "residual.leaf_condition")
        for u in by.get("residual.update", [])
    )
    m["residual.galaxy_update_s"] = tot("residual.galaxy_update")

    # repro.core.messages
    calls = n("messages.message")
    m["messages.queries"] = float(tracer.message_queries)
    m["messages.cache_hit_ratio"] = tracer.message_hits / calls if calls else 0.0
    m["messages.message_s"] = sum(_self_time(s, children) for s in by.get("messages.message", []))
    m["messages.total_s"] = tot("messages.total")

    # repro.core.trainer
    m["trainer.eval_feature_calls"] = n("trainer.eval_feature")
    m["trainer.eval_feature_s"] = tot("trainer.eval_feature")
    m["trainer.train_s"] = tot("trainer.train")

    # repro.core.rf
    rtrees = by.get("rf.tree", [])
    m["rf.tree_s"] = sum(s.dur for s in rtrees)
    m["rf.tree_max_s"] = max((s.dur for s in rtrees), default=0.0)
    if rtrees:
        phase = max(s.end for s in rtrees) - min(s.start for s in rtrees)
        m["rf.parallel_efficiency"] = m["rf.tree_s"] / (phase * min(n_jobs, len(rtrees)))
    else:
        m["rf.parallel_efficiency"] = 0.0

    # the PySpark boundary (spark.jobs is counted by the caller)
    m["spark.collect_calls"] = n("spark.collect")
    m["spark.collect_s"] = tot("spark.collect")
    m["spark.collect_rows"] = attr("spark.collect", "rows")
    m["spark.materialize_calls"] = n("spark.materialize")
    m["spark.materialize_s"] = tot("spark.materialize")
    m["spark.isin_literals"] = attr("spark.isin", "literals")
    return m


def cross_check(tracer: Tracer, m: Dict[str, float]) -> List[str]:
    """Exact relations between the layer counts and the PySpark boundary.

    Each memo-missing ``_node_stats`` call collects its GROUPING SETS
    result once, and each message an eager engine computes is forced by
    one ``count()``; returns a message for every relation that fails.
    """

    def under(boundary: str, layer: str) -> int:
        return sum(
            1 for s in tracer.spans
            if s.name == boundary and s.parent is not None and s.parent.name == layer
        )

    errors = []
    collects = under("spark.collect", "star_trainer.node_stats")
    if collects != m["star_trainer.node_jobs"]:
        errors.append(
            f"star_trainer.node_jobs={m['star_trainer.node_jobs']:g} but "
            f"{collects} GROUPING SETS collects"
        )
    counts = under("spark.materialize", "messages.message")
    if counts != tracer.eager_queries:
        errors.append(
            f"{tracer.eager_queries} messages computed eagerly but {counts} forced by count()"
        )
    return errors


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False
