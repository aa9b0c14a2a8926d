"""K-means + elbow substrate.

The Gram-matrix k-means is checked against a direct Lloyd oracle that
works on the coordinates, and, where exact ties abound, against Lloyd's in
exact rational arithmetic.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.cluster.kmeans import kmeans, knee_k, knee_strength, wcss_curve


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0, 0], [10, 10], [20, 0]], dtype=float)
    X = np.vstack(
        [c + rng.normal(0, 0.5, (30, 2)) for c in centers]
    )
    return X


def test_k1_center_is_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    labels, centers, wcss = kmeans(X, 1, seed=0)
    assert np.allclose(centers[0], [2.0, 0.0])
    assert wcss == pytest.approx(8.0)  # 4 + 0 + 4
    assert set(labels) == {0}


def test_k_equals_n_zero_wcss():
    X = np.array([[0.0], [5.0], [9.0]])
    _, _, wcss = kmeans(X, 3, seed=0)
    assert wcss == pytest.approx(0.0)


def test_recovers_blobs(blobs):
    labels, centers, wcss = kmeans(blobs, 3, seed=1)
    # Each blob of 30 points must land in one cluster.
    for g in range(3):
        seg = labels[g * 30 : (g + 1) * 30]
        assert len(set(seg)) == 1
    assert wcss < 100


def test_deterministic(blobs):
    r1 = kmeans(blobs, 3, seed=5)
    r2 = kmeans(blobs, 3, seed=5)
    assert np.array_equal(r1[0], r2[0])
    assert r1[2] == r2[2]


def test_k_bounds(blobs):
    with pytest.raises(ValueError):
        kmeans(blobs, 0)
    with pytest.raises(ValueError):
        kmeans(blobs, len(blobs) + 1)


def test_wcss_nonincreasing_in_k(blobs):
    curve = wcss_curve(blobs, range(1, 8), seed=0, n_init=8)
    ws = [w for _, w in curve]
    # modulo tiny local-optimum noise, WCSS decreases with k
    for a, b in zip(ws, ws[1:]):
        assert b <= a * 1.05


def test_sharp_elbow_detected(blobs):
    """3 well-separated blobs -> crisp elbow at k=3."""
    curve = wcss_curve(blobs, range(1, 9), seed=0, n_init=8)
    assert knee_strength(curve) > 0.5
    assert knee_k(curve) == 3


def test_smooth_curve_no_elbow():
    """Smooth exponential decay -> low knee strength (the paper's Fig 1
    situation)."""
    curve = [(k, float(np.exp(-0.25 * k))) for k in range(1, 11)]
    assert knee_strength(curve) < 0.35


def test_linear_curve_zero_knee():
    curve = [(k, 10.0 - k) for k in range(1, 11)]
    assert knee_strength(curve) == pytest.approx(0.0, abs=1e-9)


def test_flat_curve():
    curve = [(k, 1.0) for k in range(1, 6)]
    assert knee_strength(curve) == 0.0


def test_flat_curve_knee_at_first_k():
    assert knee_k([(k, 1.0) for k in range(2, 6)]) == 2


def test_knee_needs_three_points():
    with pytest.raises(ValueError):
        knee_strength([(1, 2.0), (2, 1.0)])


def test_empty_cluster_reseeded():
    # Duplicate points force potential empty clusters; must not crash.
    X = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    labels, centers, wcss = kmeans(X, 3, seed=0)
    assert wcss >= 0.0


def _direct_kmeans(X, k, *, seed=0, n_init=5, max_iter=100, tol=1e-8):
    """Oracle: the same Lloyd's / k-means++ on the coordinates, with a
    k × n × P difference array per step."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = [X[rng.integers(n)]]
        for _ in range(1, k):
            d2 = ((X[:, None, :] - np.asarray(centers)[None]) ** 2).sum(-1).min(1)
            total = d2.sum()
            pick = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
            centers.append(X[pick])
        centers = np.asarray(centers, dtype=np.float64)
        prev = np.inf
        for _ in range(max_iter):
            d2 = ((X[:, None, :] - centers[None]) ** 2).sum(-1)
            labels = d2.argmin(1)
            fit = d2[np.arange(n), labels]
            wcss = float(fit.sum())
            for c in range(k):
                mask = labels == c
                centers[c] = X[mask].mean(0) if mask.any() else X[fit.argmax()]
            if prev - wcss <= tol:
                break
            prev = wcss
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(-1)
        labels = d2.argmin(1)
        wcss = float(d2[np.arange(n), labels].sum())
        if best is None or wcss < best[1]:
            best = (labels, wcss)
    return best


def _exact_kmeans(X, k, *, seed=0, n_init=5, max_iter=100, tol=1e-8):
    """Oracle: the same algorithm in rational arithmetic for integer X, so
    an exact tie (in argmin, worst fit or best restart) goes to the lowest
    index as specified, never to rounding noise."""
    rows = [[int(v) for v in row] for row in X]
    n = len(rows)
    rng = np.random.default_rng(seed)

    def sq(x, c):
        return sum((a - b) ** 2 for a, b in zip(x, c))

    def assign(centers):
        d2 = [[sq(x, c) for c in centers] for x in rows]
        labels = [min(range(k), key=lambda c: (d[c], c)) for d in d2]
        return labels, [d[c] for d, c in zip(d2, labels)]

    best = None
    for _ in range(n_init):
        picked = [int(rng.integers(n))]
        for _ in range(1, k):
            d2 = np.array([min(sq(rows[i], rows[j]) for j in picked) for i in range(n)], float)
            total = d2.sum()
            picked.append(
                int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
            )
        centers = [[Fraction(v) for v in rows[j]] for j in picked]
        prev = None
        for _ in range(max_iter):
            labels, fit = assign(centers)
            wcss = sum(fit)
            worst = max(range(n), key=lambda i: (fit[i], -i))
            for c in range(k):
                members = [rows[i] for i in range(n) if labels[i] == c] or [rows[worst]]
                centers[c] = [Fraction(sum(col), len(members)) for col in zip(*members)]
            if prev is not None and prev - wcss <= Fraction(tol):
                break
            prev = wcss
        labels, fit = assign(centers)
        if best is None or sum(fit) < best[1]:
            best = (np.array(labels), sum(fit))
    return best


def _binary(P: int, seed: int) -> np.ndarray:
    """26 × P binary matrix; seed 1 adds duplicate rows, seed 2 duplicates
    and an all-zero row, and seed 3 keeps only three distinct rows, so
    k-means++ runs out of distinct points (the ``total <= 0`` draw) and
    Lloyd's meets empty clusters."""
    rng = np.random.default_rng(seed)
    X = (rng.random((26, P)) < rng.uniform(0.05, 0.4)).astype(np.float64)
    if seed in (1, 2):
        X[[5, 10]] = X[3]
        X[20] = X[21]
    if seed == 2:
        X[7] = 0.0
    if seed == 3:
        X = X[np.arange(26) % 3]
    return X


@pytest.mark.parametrize(
    "P, seed", [(50, 0), (50, 1), (50, 2), (2000, 0), (2000, 1), (2000, 2), (40, 3)]
)
def test_gram_matches_direct_oracle(P, seed):
    X = _binary(P, seed)
    for k in range(1, 11):
        labels, _, wcss = kmeans(X, k, seed=seed + k)
        want_labels, want_wcss = _direct_kmeans(X, k, seed=seed + k)
        assert np.array_equal(labels, want_labels), k
        assert wcss == pytest.approx(want_wcss, rel=1e-12, abs=1e-12), k


@pytest.mark.parametrize("seed", [19, 26, 37])
def test_gram_breaks_exact_ties_like_exact_arithmetic(seed):
    """Five columns make exact ties between different centres and between
    restarts common; the labels equal exact-arithmetic Lloyd's and the
    WCSS is its value rounded once. (On these seeds the direct oracle's
    rounding noise breaks a tie the other way at one k.)"""
    X = _binary(5, seed)
    for k in range(1, 11):
        labels, _, wcss = kmeans(X, k, seed=seed + k)
        want_labels, want_wcss = _exact_kmeans(X, k, seed=seed + k)
        assert np.array_equal(labels, want_labels), k
        assert wcss == float(want_wcss), k


@pytest.mark.parametrize("seed", [0, 2])
def test_centers_are_cluster_means(seed):
    X = _binary(300, seed)
    for k in range(1, 11):
        labels, centers, _ = kmeans(X, k, seed=k)
        assert centers.shape == (k, X.shape[1])
        for c in np.unique(labels):
            assert np.array_equal(centers[c], X[labels == c].mean(0)), (k, c)
