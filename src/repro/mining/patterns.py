"""Pattern post-processing (paper Section VI-A).

The paper turns each mined frozenset into a sorted, concatenated "string
pattern", builds the unique pattern universe over all 26 cuisines, label
encodes it (patterns are categorical), and vectorises each cuisine over
the encoded universe. The mined result is ~1.5k rows at support 0.2, so
:func:`feature_matrix` collects it once and does the rest on the driver:

* :func:`canon_pattern` — canonical string per mined itemset;
* label encoding — the universe is the sorted set of those strings and a
  pattern's label is its index in it (a deterministic LabelEncoder);
* the cuisine × pattern binary incidence matrix that feeds ``pdist`` +
  HAC. (The paper's prose is ambiguous about the vector values; binary
  membership of the label-encoded pattern universe is the reading
  consistent with using Jaccard alongside Euclidean/Cosine.)
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

SEPARATOR = " + "


def canon_pattern(items) -> str:
    """Canonical string form of an itemset (sorted, ' + '-joined)."""
    return SEPARATOR.join(sorted(items))


def feature_matrix(
    mined: DataFrame, regions: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Binary cuisine × pattern incidence matrix, from one Spark job.

    Rows follow ``regions`` order; columns follow label order, i.e. the
    sorted pattern strings. Python sorts strings by code point and Spark by
    UTF-8 bytes; the two orders agree, so the columns are those a Spark
    ``ORDER BY`` of the patterns gives.
    """
    rows = mined.select("region", "items").collect()
    if not rows:
        raise ValueError("no mined patterns to vectorise")
    strings = [canon_pattern(r["items"]) for r in rows]
    patterns = sorted(set(strings))
    label = {p: j for j, p in enumerate(patterns)}
    row_of = {r: i for i, r in enumerate(regions)}
    mat = np.zeros((len(regions), len(patterns)), dtype=np.float64)
    mat[[row_of[r["region"]] for r in rows], [label[s] for s in strings]] = 1.0
    return mat, patterns
