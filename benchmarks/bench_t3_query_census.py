"""T3 (paper Fig 9): query census of one boosting iteration."""
from repro.experiments.tables import t3_query_census


def test_t3_query_census(spark, run_table):
    res = run_table(t3_query_census, spark, sf=0.005)
    by_kind = {r["query_kind"]: r for r in res.rows}
    # 8 leaves take 7 splits; the root and the children of the first 6
    # splits are evaluated (the last split's children can never split):
    # 13 nodes x 13 features of split queries, plus the root's total
    assert by_kind["split"]["count"] == 1 + 13 * 13
    assert by_kind["message"]["count"] > 0
