"""Pattern canonicalisation, label encoding, feature matrix."""
from __future__ import annotations

import numpy as np
import pytest

from repro.mining.patterns import canon_pattern, feature_matrix
from repro.mining.spark_fpm import MINED_SCHEMA
from repro.recipedb.vocab import REGIONS


def test_canon_pattern_sorts():
    assert canon_pattern(["soy sauce", "add"]) == "add + soy sauce"
    assert canon_pattern(("b", "a")) == canon_pattern(("a", "b"))


def test_canon_pattern_single():
    assert canon_pattern(["butter"]) == "butter"


def test_feature_matrix_deterministic(spark, mined_small):
    X1, p1 = feature_matrix(mined_small, REGIONS)
    X2, p2 = feature_matrix(mined_small, REGIONS)
    assert p1 == p2
    assert np.array_equal(X1, X2)


def test_feature_matrix_universe_dense_sorted_unique(spark, mined_small):
    X, patterns = feature_matrix(mined_small, REGIONS)
    assert patterns == sorted(set(patterns))  # labels 0..P-1 in pattern order
    assert (X.sum(axis=0) > 0).all()  # every label is some cuisine's pattern


def test_feature_matrix_nonzeros_equal_mined_rows(spark, mined_small, mined_small_pdf):
    X, _ = feature_matrix(mined_small, REGIONS)
    assert np.count_nonzero(X) == len(mined_small_pdf)


def test_feature_matrix_order_matches_spark_order_by(spark):
    """Columns follow Spark's string order (UTF-8 bytes, i.e. code points),
    also for items like real recipe data: accents, apostrophes, case pairs
    and a non-BMP character."""
    items = [
        ["crème fraîche"],
        ["baker's yeast", "jalapeño"],
        ["Zest"],
        ["zest", "creme"],
        ["🌶 chili", "jalapeño"],
        ["ﬁnes herbes"],  # U+FB01 sorts after U+1F336 in UTF-16, before it in UTF-8
        ["jalapeno", "crème fraîche"],
        ["épice", "baker's yeast", "Zest"],
    ]
    regions = ["A", "B"]
    mined = spark.createDataFrame(
        [(regions[k % 2], sorted(its), 1, 0.5) for k, its in enumerate(items)],
        MINED_SCHEMA,
    )
    _, patterns = feature_matrix(mined, regions)
    mined.createOrReplaceTempView("unicode_mined")
    spark_order = [
        r["pattern"]
        for r in spark.sql(
            "SELECT DISTINCT array_join(array_sort(items), ' + ') AS pattern "
            "FROM unicode_mined ORDER BY pattern"
        ).collect()
    ]
    assert patterns == spark_order


def test_feature_matrix_rejects_empty(spark, mined_small):
    with pytest.raises(ValueError, match="no mined patterns"):
        feature_matrix(mined_small.limit(0), REGIONS)


def test_feature_matrix_binary_and_shaped(spark, mined_small):
    X, patterns = feature_matrix(mined_small, REGIONS)
    assert X.shape == (26, len(patterns))
    assert set(np.unique(X)) <= {0.0, 1.0}
    assert len(patterns) == len(set(patterns))
    assert patterns == sorted(patterns)


def test_feature_matrix_matches_membership(spark, mined_small, mined_small_pdf):
    X, patterns = feature_matrix(mined_small, REGIONS)
    col = {p: j for j, p in enumerate(patterns)}
    pdf = mined_small_pdf.copy()
    pdf["pattern"] = pdf["items"].map(canon_pattern)
    for region in ["Korean", "US", "Northern Africa"]:
        i = REGIONS.index(region)
        mined_set = set(pdf[pdf["region"] == region]["pattern"])
        on = {patterns[j] for j in np.nonzero(X[i])[0]}
        assert on == mined_set
    # row sums = per-region pattern counts
    counts = pdf.groupby("region").size()
    for region in REGIONS:
        assert X[REGIONS.index(region)].sum() == counts[region]


def test_feature_matrix_region_order(spark, mined_small):
    X1, _ = feature_matrix(mined_small, REGIONS)
    rev = list(reversed(REGIONS))
    X2, _ = feature_matrix(mined_small, rev)
    assert np.array_equal(X1[0], X2[-1])
