"""K-means (Lloyd's algorithm with k-means++ seeding) and the elbow
analysis of paper Section VI-B / Figure 1.

The paper applies K-means to the categorical pattern features, computes
WCSS over a range of k, and reports that the elbow method "fails to
determine the number of appropriate clusters" — no sharp knee. We
reproduce the WCSS curve and quantify knee sharpness so the claim becomes
a number (see ``knee_strength``).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def _kpp_init(D: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """k-means++ seeding: iteratively pick rows ∝ squared distance to the
    nearest row already picked. ``D`` holds the pairwise squared distances."""
    n = len(D)
    picked = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = D[:, picked].min(axis=1)
        total = d2.sum()
        if total <= 0:
            picked.append(int(rng.integers(n)))
            continue
        picked.append(int(rng.choice(n, p=d2 / total)))
    return picked


def _assign(
    G: np.ndarray, g: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Nearest centre of each row, its squared distance, and the WCSS.

    Centre c is the mean of the rows in ``M[c]`` (a set S), so the squared
    distance of row i to it is
    ``(|S|²·G_ii − 2·|S|·Σ_{j∈S} G_ij + Σ_{j,l∈S} G_jl) / |S|²``. For
    integer ``G`` the numerator is an exact integer: each distance is the
    exact value rounded once, and the WCSS is summed per centre as
    rationals and rounded once, so exact ties stay ties.
    """
    s = M.sum(axis=1)
    MG = M @ G
    num = g[:, None] * s**2 - 2.0 * s * MG.T + (MG * M).sum(axis=1)
    d2 = num / s**2
    labels = d2.argmin(axis=1)
    wcss = sum(
        Fraction(num[labels == c, c].sum()) / Fraction(s[c] ** 2)
        for c in np.unique(labels)
    )
    return labels, d2[np.arange(len(g)), labels], float(wcss)


def kmeans(
    X: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 5,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``n_init`` Lloyd's iterations.

    Runs on the Gram matrix ``G = X Xᵀ`` (kernel k-means with a linear
    kernel): each centre is the set of rows it averages, kept as a row of a
    k × n 0/1 membership matrix, so a step costs O(n²k) whatever the width
    of ``X``. For integer ``X`` (the binary pattern features) every Gram
    entry is exact. Returns (labels, centers, wcss) for the restart with
    lowest WCSS.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    G = X @ X.T
    g = np.diag(G)
    # Pairwise squared distances; clipped at 0 against rounding for real X.
    D = np.maximum(g[:, None] + g[None, :] - 2.0 * G, 0.0)
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(n_init):
        M = np.zeros((k, n))
        M[np.arange(k), _kpp_init(D, k, rng)] = 1.0
        prev = np.inf
        for _ in range(max_iter):
            labels, fit, wcss = _assign(G, g, M)
            M = (labels == np.arange(k)[:, None]).astype(np.float64)
            # Re-seed an empty cluster at the worst-fit point.
            M[~M.any(axis=1), fit.argmax()] = 1.0
            if prev - wcss <= tol:
                break
            prev = wcss
        labels, _, wcss = _assign(G, g, M)
        if best is None or wcss < best[2]:
            best = (labels, M, wcss)
    assert best is not None
    labels, M, wcss = best
    return labels, (M @ X) / M.sum(axis=1)[:, None], wcss


def wcss_curve(
    X: np.ndarray, ks: range | list[int], *, seed: int = 0, n_init: int = 5
) -> list[tuple[int, float]]:
    """WCSS for each k — the data behind the paper's Figure 1."""
    return [(k, kmeans(X, k, seed=seed + k, n_init=n_init)[2]) for k in ks]


def _knee_distances(
    curve: list[tuple[int, float]],
) -> tuple[np.ndarray, np.ndarray] | None:
    """(ks, distance of each normalised point to the chord), or None for a
    curve that does not fall.

    Normalises the curve to the unit square and measures each point's
    perpendicular distance to the chord between its endpoints (the
    "kneedle" construction).
    """
    ks = np.array([k for k, _ in curve], dtype=np.float64)
    ws = np.array([w for _, w in curve], dtype=np.float64)
    span = ws[0] - ws[-1]
    if span <= 0:
        return None
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (ws - ws[-1]) / span
    # Distance from (x, y) to the chord y = 1 - x, i.e. x + y - 1 = 0.
    return ks, np.abs(x + y - 1.0) / np.sqrt(2.0)


def knee_strength(curve: list[tuple[int, float]]) -> float:
    """Sharpness of the elbow in a WCSS curve, in [0, 1]: the largest
    distance to the chord (see ``_knee_distances``).

    A crisp elbow (e.g. WCSS collapsing at the true k) scores well above
    0.5; a smooth convex decay — the paper's "no sharp edge or elbow like
    structure" — scores low.
    """
    if len(curve) < 3:
        raise ValueError("need at least 3 points to measure a knee")
    knee = _knee_distances(curve)
    return 0.0 if knee is None else float(knee[1].max())


def knee_k(curve: list[tuple[int, float]]) -> int:
    """The k at which the knee (if any) occurs."""
    knee = _knee_distances(curve)
    if knee is None:
        return int(curve[0][0])
    ks, dist = knee
    return int(ks[int(dist.argmax())])
