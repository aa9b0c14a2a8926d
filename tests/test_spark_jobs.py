"""Spark job-count gate for the FIHC feature path.

On cached mined input the feature matrix is one collect, so it and the two
pipelines built on it each run exactly one Spark job. Job counts repeat
exactly on any machine, unlike wall time, so they make a regression gate.
"""
from __future__ import annotations

import pytest

from repro.core.elbow import elbow
from repro.core.fihc import fihc
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


CALLS = {
    "feature_matrix": lambda recipes, mined: feature_matrix(mined, REGIONS),
    "fihc": lambda recipes, mined: fihc(recipes, mined=mined),
    "elbow": lambda recipes, mined: elbow(recipes, mined=mined),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_spark_job_on_cached_mined(spark, recipes_small, mined_small, name):
    call = CALLS[name]
    jobs = _spark_jobs(spark, f"job-gate-{name}", lambda: call(recipes_small, mined_small))
    assert jobs == 1, f"{name} ran {jobs} Spark jobs on cached mined input"
