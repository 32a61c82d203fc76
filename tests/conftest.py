"""Shared fixtures: tiny datasets reused across the whole test session.

Scale discipline: unit tests run at SF≈0.002 (≈6k fact rows) so the
whole suite stays minutes, while the DuckDB oracle still exercises real
shuffle joins (broadcast disabled by the session fixture; the star fast
path re-broadcasts per-query where documented).
"""
import os

# Smaller shuffle fan-out for tiny test data — must be set before the
# root conftest's session fixture builds the SparkSession.
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import numpy as np
import pandas as pd
import pytest

from repro.core.join_graph import JoinGraph
from repro.data.favorita import favorita
from repro.data.imdb import imdb
from repro.data.star import DimSpec, StarData, build_star


@pytest.fixture(scope="session")
def favorita_tiny(spark):
    """Float-y Favorita-lite: 6k fact rows, 5 predictive features."""
    return favorita(spark, sf=0.002, n_extra_features=0, seed=7)


@pytest.fixture(scope="session")
def star_int(spark):
    """Star schema with an *integer* target and zero noise.

    Integer y ⇒ every semi-ring sum is exact in float64 ⇒ all trainers
    (factorized, star-batched, naive, NumPy) are bit-identical — the
    fixture behind the exact model-parity tests.
    """
    dims = [
        DimSpec("da", "ka", 40, "fa", 1),
        DimSpec("db", "kb", 25, "fb", 0),
        DimSpec("dc", "kc", 15, "fc", 0),
    ]

    def target(f):
        return (2 * f["fa"] + 3 * f["fb"] - f["fc"]).astype("float64")

    return build_star(
        spark, "fact", 4000, dims, target, noise_sigma=0.0, seed=11
    )


@pytest.fixture(scope="session")
def composite_key(spark):
    """Two-relation star whose dimension joins the fact on ``(k1, k2)``.

    ``d`` depends on both key columns, so grouping or filtering the fact
    on ``k1`` alone gives wrong per-value stats. Integer y keeps every
    trainer's sums exact.
    """
    rng = np.random.default_rng(17)
    dim = pd.DataFrame(
        [(a, b) for a in range(4) for b in range(5)], columns=["k1", "k2"]
    )
    dim["d"] = rng.permutation(len(dim)).astype("int64")
    n = 300
    fact = pd.DataFrame(
        {
            "k1": rng.integers(0, 4, n),
            "k2": rng.integers(0, 5, n),
            "x": rng.integers(0, 10, n),
        }
    )
    d = fact.merge(dim, on=["k1", "k2"], how="left")["d"]
    fact["y"] = (3 * d + fact["x"]).astype("float64")
    g = JoinGraph()
    g.add_relation(
        "fact", spark.createDataFrame(fact), features=["x"], numeric=["x"], y="y"
    )
    g.add_relation("dim", spark.createDataFrame(dim), features=["d"], numeric=["d"])
    g.add_edge("fact", "dim", ["k1", "k2"])
    return StarData("fact", fact, {"dim": dim}, g)


@pytest.fixture(scope="session")
def star_strings(spark):
    """Star whose dimension feature is a string with quotes and a backslash.

    Categorical splits on ``name`` reach every trainer's predicate path
    (Spark filters, driver-side masks, pandas group-bys); integer y keeps
    the sums exact, so all trainers must grow identical trees.
    """
    rng = np.random.default_rng(23)
    names = ["O'Brien", 'say "hi"', "back\\slash", "plain"]
    dim = pd.DataFrame(
        {"k": np.arange(12, dtype="int64"), "name": [names[i % 4] for i in range(12)]}
    )
    n = 400
    fact = pd.DataFrame(
        {"k": rng.integers(0, 12, n), "x": rng.integers(0, 10, n)}
    )
    level = {"O'Brien": 100, 'say "hi"': 40, "back\\slash": 10, "plain": 0}
    fact["y"] = (
        fact["k"].map(dim.set_index("k")["name"]).map(level) + fact["x"]
    ).astype("float64")
    g = JoinGraph()
    g.add_relation(
        "fact", spark.createDataFrame(fact), features=["x"], numeric=["x"], y="y"
    )
    g.add_relation("dim", spark.createDataFrame(dim), features=["name"])
    g.add_edge("fact", "dim", ["k"])
    return StarData("fact", fact, {"dim": dim}, g)


@pytest.fixture(scope="session")
def chain_graph(spark):
    """A 3-deep snowflake chain (lineitem → orders → customer) from the
    provided TPC-H-lite generators; exercises multi-hop messages and
    predicate push-down through an intermediate dimension."""
    from repro import synth_data

    li = synth_data.lineitem(spark, sf=0.002, seed=3)
    o = synth_data.orders(spark, sf=0.002, seed=4).withColumnRenamed(
        "o_orderkey", "l_orderkey"
    )
    c = synth_data.customer(spark, sf=0.002, seed=5).withColumnRenamed(
        "c_custkey", "o_custkey"
    )
    g = JoinGraph()
    g.add_relation(
        "lineitem",
        li.select("l_orderkey", "l_quantity", "l_discount"),
        features=["l_discount"],
        numeric=["l_discount"],
        y="l_quantity",
    )
    g.add_relation(
        "orders",
        o.select("l_orderkey", "o_custkey", "o_totalprice"),
        features=["o_totalprice"],
        numeric=["o_totalprice"],
    )
    g.add_relation(
        "customer",
        c.select("o_custkey", "c_acctbal", "c_mktsegment"),
        features=["c_acctbal", "c_mktsegment"],
        numeric=["c_acctbal"],
    )
    g.add_edge("lineitem", "orders", ["l_orderkey"])
    g.add_edge("orders", "customer", ["o_custkey"])
    return g


@pytest.fixture(scope="session")
def imdb_tiny(spark):
    """Galaxy schema small enough to materialize for oracles."""
    return imdb(spark, n_movies=60, mean_cast=4.0, mean_companies=2.0, seed=13)
