"""Condensed pairwise distances (scipy.spatial.distance.pdist replacement).

The paper feeds a condensed distance matrix (``pdist``) into HAC using
three metrics (Section VI-A). The printed equations (3)–(5) are typos —
Jaccard written as union/intersection, cosine written as a similarity,
"Euclidean" missing the difference — so we implement the standard
definitions their scipy pipeline would have computed:

    euclidean(x, y) = ||x - y||_2
    cosine(x, y)    = 1 - x.y / (||x|| ||y||)
    jaccard(x, y)   = 1 - |x ∧ y| / |x ∨ y|     (binary vectors)

A cuisine that mines no pattern at a high support has an all-zero row,
where cosine and Jaccard are undefined. Both keep the row: it is at
distance 1 from every non-zero row and 0 from another zero row, so the
tree still has all 26 leaves for the comparison with geography.

A Spark cross-join implementation is provided as well and cross-checked in
tests; at 26 cuisines the NumPy path is authoritative.
"""
from __future__ import annotations

import numpy as np

METRICS = ("euclidean", "cosine", "jaccard")


def condensed_index(n: int, i: int, j: int) -> int:
    """Index of pair (i < j) in the condensed vector of an n×n matrix."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i} j={j} n={n}")
    return n * i - (i * (i + 1)) // 2 + (j - i - 1)


def squareform(condensed: np.ndarray, n: int) -> np.ndarray:
    """Condensed vector -> symmetric square matrix with zero diagonal."""
    if len(condensed) != n * (n - 1) // 2:
        raise ValueError("condensed length does not match n")
    sq = np.zeros((n, n), dtype=np.float64)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            sq[i, j] = sq[j, i] = condensed[k]
            k += 1
    return sq


def _euclidean(X: np.ndarray) -> np.ndarray:
    sq = (X**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _cosine(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0
    # Dividing a zero row by 1 instead of 0 gives it similarity 0, hence
    # distance 1, to every row; entries between non-zero rows are unchanged.
    safe = np.where(zero, 1.0, norms)
    sim = (X @ X.T) / np.outer(safe, safe)
    np.clip(sim, -1.0, 1.0, out=sim)
    d = 1.0 - sim
    d[np.outer(zero, zero)] = 0.0  # two zero vectors: define distance 0
    return d


def _jaccard(X: np.ndarray) -> np.ndarray:
    B = (X != 0).astype(np.float64)
    inter = B @ B.T
    row = B.sum(axis=1)
    union = row[:, None] + row[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        d = 1.0 - inter / union
    d[union == 0] = 0.0  # two all-zero vectors: define distance 0
    return d


def pdist(X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Condensed pairwise distances over the rows of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    if metric == "euclidean":
        sq = _euclidean(X)
    elif metric == "cosine":
        sq = _cosine(X)
    elif metric == "jaccard":
        sq = _jaccard(X)
    else:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    n = X.shape[0]
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    k = 0
    for i in range(n):
        out[k : k + n - 1 - i] = sq[i, i + 1 :]
        k += n - 1 - i
    return out


def pdist_spark(spark, X: np.ndarray, labels: list[str], metric: str = "euclidean"):
    """The same condensed distances computed as a Spark cross-join over a
    (label, vector) DataFrame — demonstrates the distributed formulation
    and cross-checks the NumPy path in tests.

    Returns a DataFrame (label_i, label_j, distance) for i < j in ``labels``
    order.
    """
    import pandas as pd
    from pyspark.sql import functions as F

    idx = {lab: k for k, lab in enumerate(labels)}
    pdf = pd.DataFrame(
        {"label": labels, "vec": [X[i].tolist() for i in range(len(labels))]}
    )
    df = spark.createDataFrame(pdf)
    a = df.select(
        F.col("label").alias("label_i"), F.col("vec").alias("vec_i")
    )
    b = df.select(
        F.col("label").alias("label_j"), F.col("vec").alias("vec_j")
    )
    pairs = a.crossJoin(b)
    # Keep i < j in `labels` order via a rank lookup map literal.
    rank = F.create_map(
        *[x for lab, k in idx.items() for x in (F.lit(lab), F.lit(k))]
    )
    pairs = pairs.filter(rank[F.col("label_i")] < rank[F.col("label_j")])
    zipped = F.arrays_zip("vec_i", "vec_j")
    if metric == "euclidean":
        dist = F.sqrt(
            F.aggregate(
                zipped,
                F.lit(0.0),
                lambda acc, x: acc + (x["vec_i"] - x["vec_j"]) ** 2,
            )
        )
    elif metric == "cosine":
        dot = F.aggregate(
            zipped, F.lit(0.0), lambda acc, x: acc + x["vec_i"] * x["vec_j"]
        )
        ni = F.sqrt(
            F.aggregate(F.col("vec_i"), F.lit(0.0), lambda acc, v: acc + v * v)
        )
        nj = F.sqrt(
            F.aggregate(F.col("vec_j"), F.lit(0.0), lambda acc, v: acc + v * v)
        )
        dist = F.lit(1.0) - dot / (ni * nj)
    elif metric == "jaccard":
        inter = F.aggregate(
            zipped,
            F.lit(0.0),
            lambda acc, x: acc
            + F.when((x["vec_i"] != 0) & (x["vec_j"] != 0), 1.0).otherwise(0.0),
        )
        union = F.aggregate(
            zipped,
            F.lit(0.0),
            lambda acc, x: acc
            + F.when((x["vec_i"] != 0) | (x["vec_j"] != 0), 1.0).otherwise(0.0),
        )
        dist = F.when(union == 0, F.lit(0.0)).otherwise(F.lit(1.0) - inter / union)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return pairs.select("label_i", "label_j", dist.alias("distance"))
