"""Spark job-count gate for the pipelines on cached mined input.

The feature matrix is one collect, so it and the two pipelines built on it
each run exactly one Spark job. ``table1`` runs four: two for the pattern
count per region and two for the one scan of the recipes that measures the
named patterns' supports and the recipe counts. Job counts repeat exactly
on any machine, unlike wall time, so they make a regression gate.
"""
from __future__ import annotations

import pytest

from repro.core.elbow import elbow
from repro.core.fihc import fihc
from repro.core.table1 import table1
from repro.mining.patterns import feature_matrix
from repro.recipedb.vocab import REGIONS


def _spark_jobs(spark, group: str, fn) -> int:
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # The status tracker is filled by the listener bus, asynchronously.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


# name -> (call, Spark jobs it runs on cached mined input)
CALLS = {
    "feature_matrix": (lambda recipes, mined: feature_matrix(mined, REGIONS), 1),
    "fihc": (lambda recipes, mined: fihc(recipes, mined=mined), 1),
    "elbow": (lambda recipes, mined: elbow(recipes, mined=mined), 1),
    "table1": (lambda recipes, mined: table1(recipes, mined=mined), 4),
}


@pytest.mark.parametrize("name", CALLS)
def test_spark_jobs_on_cached_mined(spark, recipes_small, mined_small, name):
    call, expected = CALLS[name]
    jobs = _spark_jobs(spark, f"job-gate-{name}", lambda: call(recipes_small, mined_small))
    assert jobs == expected, f"{name} ran {jobs} Spark jobs on cached mined input"
