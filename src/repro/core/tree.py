"""Decision tree model structure shared by all trainers (paper §3.2).

A :class:`DecisionTree` is the *output* of training: a binary tree of
selection predicates with leaf predictions. It is engine-agnostic — the
factorized Spark trainer, the naive materialized trainer and the NumPy
baseline all emit this structure, which lets the parity tests assert
"returns models identical to LightGBM" (paper §5.1) by direct
comparison of ``to_dict()``.

Prediction is offered three ways:

* :meth:`predict_expr` — one ``CASE WHEN`` Catalyst expression over the
  (possibly joined) feature columns: the pure-SQL inference path and the
  building block for snowflake residual updates;
* :meth:`predict_np` — vectorized NumPy over a pandas wide table;
* :meth:`leaves` — the leaf (predicate, prediction) list used by the
  update-relation / semi-join machinery of Section 4.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
from pyspark.sql import Column
import pyspark.sql.functions as F


@dataclass(frozen=True)
class Pred:
    """One edge predicate: ``feature <= value`` (numeric, left side),
    ``feature > value`` (numeric, right), ``== value`` / ``!= value``
    (categorical)."""

    feature: str
    value: object
    numeric: bool
    left: bool  # True ⇒ σ side of the parent split, False ⇒ ¬σ

    def col(self) -> Column:
        c = F.col(self.feature)
        if self.numeric:
            return c <= F.lit(self.value) if self.left else c > F.lit(self.value)
        return c == F.lit(self.value) if self.left else c != F.lit(self.value)

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        v = pdf[self.feature].to_numpy()
        if self.numeric:
            return v <= self.value if self.left else v > self.value
        return v == self.value if self.left else v != self.value


@dataclass
class Node:
    """Tree node; ``split`` is None for leaves."""

    depth: int
    preds: List[Pred] = field(default_factory=list)  # path conjunction from root
    prediction: Optional[float] = None
    split_feature: Optional[str] = None
    split_value: Optional[object] = None
    split_numeric: bool = False
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split_feature is None


@dataclass
class DecisionTree:
    """A trained tree; also records which CPT cluster it used (galaxy)."""

    root: Node
    cluster: Optional[str] = None

    # -- structure ------------------------------------------------------
    def leaves(self) -> List[Node]:
        out: List[Node] = []

        def rec(n: Node) -> None:
            if n.is_leaf:
                out.append(n)
            else:
                rec(n.left)  # type: ignore[arg-type]
                rec(n.right)  # type: ignore[arg-type]

        rec(self.root)
        return out

    def n_leaves(self) -> int:
        return len(self.leaves())

    def referenced_features(self) -> List[str]:
        feats = set()

        def rec(n: Node) -> None:
            if not n.is_leaf:
                feats.add(n.split_feature)
                rec(n.left)  # type: ignore[arg-type]
                rec(n.right)  # type: ignore[arg-type]

        rec(self.root)
        return sorted(feats)  # type: ignore[arg-type]

    def to_dict(self) -> Dict:
        """Canonical structure for model-parity assertions."""

        def rec(n: Node) -> Dict:
            if n.is_leaf:
                return {"leaf": round(float(n.prediction), 9)}
            return {
                "feature": n.split_feature,
                "value": n.split_value,
                "numeric": n.split_numeric,
                "left": rec(n.left),  # type: ignore[arg-type]
                "right": rec(n.right),  # type: ignore[arg-type]
            }

        return rec(self.root)

    # -- prediction -----------------------------------------------------
    def predict_expr(self) -> Column:
        """``CASE WHEN <leaf σ> THEN p …`` over joined feature columns."""

        def rec(n: Node) -> Column:
            if n.is_leaf:
                return F.lit(float(n.prediction))
            lpred = Pred(n.split_feature, n.split_value, n.split_numeric, True)
            return F.when(lpred.col(), rec(n.left)).otherwise(rec(n.right))

        return rec(self.root)

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        out = np.empty(len(pdf), dtype="float64")

        def rec(n: Node, idx: np.ndarray) -> None:
            if n.is_leaf:
                out[idx] = float(n.prediction)
                return
            lpred = Pred(n.split_feature, n.split_value, n.split_numeric, True)
            m = lpred.mask(pdf.iloc[idx])
            rec(n.left, idx[m])
            rec(n.right, idx[~m])

        rec(self.root, np.arange(len(pdf)))
        return out


@dataclass
class TreeEnsemble:
    """Boosted or bagged ensemble with a shared base score."""

    trees: List[DecisionTree] = field(default_factory=list)
    base_score: float = 0.0
    learning_rate: float = 1.0
    average: bool = False  # True for random forests

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        if not self.trees:
            return np.full(len(pdf), self.base_score)
        preds = np.stack([t.predict_np(pdf) for t in self.trees])
        if self.average:
            return self.base_score + preds.mean(axis=0)
        return self.base_score + self.learning_rate * preds.sum(axis=0)

    def predict_expr(self) -> Column:
        expr: Column = F.lit(float(self.base_score))
        if not self.trees:
            return expr
        total = self.trees[0].predict_expr()
        for t in self.trees[1:]:
            total = total + t.predict_expr()
        if self.average:
            return expr + total / F.lit(float(len(self.trees)))
        return expr + F.lit(float(self.learning_rate)) * total

    def rmse_np(self, pdf: pd.DataFrame, y: str) -> float:
        e = pdf[y].to_numpy(dtype="float64") - self.predict_np(pdf)
        return float(np.sqrt(np.mean(e * e)))
