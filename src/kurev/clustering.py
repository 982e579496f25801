"""Expertise-profile clustering: PCA, k-means, silhouette-driven K choice.

Everything is implemented over numpy directly so the exact conventions
(median silhouette, largest qualifying K, type-7 quartiles) are pinned
down and testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError


class PcaReducer:
    """Principal-component projection keeping ≥ the requested variance."""

    def __init__(self, variance_threshold: float = 0.95):
        self.variance_threshold = variance_threshold

    def fit(self, data) -> "PcaReducer":
        X = np.asarray(data, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise DegenerateDataError("PCA needs a 2-D matrix with at least 2 rows")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        if not np.any(np.abs(centered) > 1e-15):
            raise DegenerateDataError("all rows identical; no variance to analyze")
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        var = s**2
        ratios = var / var.sum()
        cumulative = np.cumsum(ratios)
        m = int(np.searchsorted(cumulative, self.variance_threshold - 1e-12) + 1)
        m = min(m, len(ratios))
        self.components_ = vt[:m]
        self.n_components_ = m
        self.explained_variance_ratio_ = ratios[:m]
        return self

    def transform(self, data) -> np.ndarray:
        X = np.asarray(data, dtype=float)
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)

    def inverse_transform(self, reduced) -> np.ndarray:
        return np.asarray(reduced, dtype=float) @ self.components_ + self.mean_


def pca_reduce(matrix, variance_threshold: float = 0.95) -> np.ndarray:
    return PcaReducer(variance_threshold).fit_transform(matrix)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of A to every row of B."""
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)


# Rows of X per block of the distance matrix: a block's difference tensor
# holds CHUNK_ROWS·n·d floats, so the build needs O(n²) memory, not O(n²·d).
CHUNK_ROWS = 64


def _sq_distance_matrix(X: np.ndarray) -> np.ndarray:
    """n×n squared Euclidean distances, bit-identical to ``_sq_dists(X, X)``."""
    n = X.shape[0]
    sq = np.empty((n, n))
    for start in range(0, n, CHUNK_ROWS):
        sq[start : start + CHUNK_ROWS] = _sq_dists(X[start : start + CHUNK_ROWS], X)
    return sq


def _distance_matrix(X: np.ndarray) -> np.ndarray:
    """n×n Euclidean distances, bit-identical to ``sqrt(_sq_dists(X, X))``."""
    sq = _sq_distance_matrix(X)
    return np.sqrt(sq, out=sq)


def _seed_rows(sq_matrix: np.ndarray, ks, rngs) -> list[np.ndarray]:
    """k-means++ seeding of every K in ascending ``ks`` at once.

    Returns each K's centre rows. ``rngs[i]`` is K ``ks[i]``'s own generator,
    and each K gets the rows it would get alone. Draw j is one array step
    over the Ks that still need a centre: each one's row of ``d2`` keeps the
    smaller of its distances and the newest centre's, the row sums are the
    totals, and each row's cumulative sum of ``d2 / total``, divided by its
    last entry, is compared with one ``random()`` of that K's generator. The
    drawn row is the count of entries at most that number. That is how
    ``Generator.choice(n, p=d2 / total)`` draws (``cdf = p.cumsum();
    cdf /= cdf[-1]``, then ``searchsorted`` to the right). A K whose total
    is 0 draws ``integers(n)``; a NaN or infinite total goes to ``choice``,
    which raises ``ValueError`` for it.
    """
    n = sq_matrix.shape[0]
    ks = np.asarray(ks)
    chosen = np.empty((len(ks), ks.max()), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = np.full((len(ks), n), np.inf)  # squared distance to the nearest centre
    for j in range(1, ks.max()):
        first = int(np.searchsorted(ks, j, side="right"))  # ks[first:] draw j
        live = d2[first:]
        # the matrix is exactly symmetric, so a centre's distances are its
        # contiguous row
        np.minimum(live, sq_matrix[chosen[first:, j - 1]], out=live)
        totals = live.sum(axis=1)
        drawn = (totals > 0) & (totals < np.inf)
        for i in np.flatnonzero(~drawn):
            rng = rngs[first + i]
            chosen[first + i, j] = (
                rng.integers(n) if totals[i] <= 0 else rng.choice(n, p=live[i] / totals[i])
            )
        rows = np.flatnonzero(drawn)
        cdf = np.cumsum(live[rows] / totals[rows, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[first + i].random() for i in rows])
        chosen[first + rows, j] = (cdf <= u[:, None]).sum(axis=1)
    return [chosen[i, :k] for i, k in enumerate(ks)]


class KMeans:
    """Lloyd's algorithm with seeded k-means++ initialization.

    Each step's means add every cluster's rows in index order, as a boolean
    mask's mean does: one ``bincount`` for all clusters, or with d == 1,
    where numpy sums a lone column pairwise, one sorted run per cluster.

    ``sq_matrix`` is the points' n×n squared distance matrix, as
    ``select_k`` builds it once for every K; without it ``fit`` builds it.
    ``rows`` are the seeded centres' row indices, as ``select_k`` seeds every
    K at once; without them ``fit`` seeds from ``seed``.
    """

    def __init__(self, n_clusters: int, seed: int = 0, max_iter: int = 300):
        self.n_clusters = n_clusters
        self.seed = seed
        self.max_iter = max_iter

    def _init_centers(
        self, X: np.ndarray, rng: np.random.Generator, sq_matrix=None
    ) -> np.ndarray:
        """k-means++ seeding; returns the row indices of the chosen centres."""
        if sq_matrix is None:
            sq_matrix = _sq_distance_matrix(X)
        return _seed_rows(sq_matrix, [self.n_clusters], [rng])[0]

    def fit(self, data, sq_matrix=None, rows=None) -> "KMeans":
        X = np.asarray(data, dtype=float)
        n, d = X.shape
        k = self.n_clusters
        if not 1 <= k <= n:
            raise ValueError(f"n_clusters={k} outside 1..{n}")
        if sq_matrix is None:
            sq_matrix = _sq_distance_matrix(X)
        if rows is None:
            rows = self._init_centers(X, np.random.default_rng(self.seed), sq_matrix)
        centers = X[rows]
        # d2 holds the distances to `assigned`, the centres before this step's
        # repairs and mean updates: first the seeded rows' matrix columns, then
        # each step recomputes only the columns of the centres that moved
        d2 = sq_matrix[:, rows]
        assigned = centers.copy()
        labels = np.zeros(n, dtype=int)
        self.inertia_history_: list[float] = []
        for _ in range(self.max_iter):
            moved = np.flatnonzero((centers != assigned).any(axis=1))
            d2[:, moved] = _sq_dists(X, centers[moved])
            assigned[moved] = centers[moved]
            new_labels = d2.argmin(axis=1)
            counts = np.bincount(new_labels, minlength=k)
            if not counts.all():
                # repair empties in ascending order with the point farthest
                # from its own centroid; a move that empties a later cluster
                # gets that cluster repaired too, an earlier one stays empty
                for c in range(k):
                    if counts[c] == 0:
                        far = int(d2[np.arange(n), new_labels].argmax())
                        counts[new_labels[far]] -= 1
                        counts[c] = 1
                        new_labels[far] = c
                        centers[c] = X[far]
            inertia = float(((X - centers[new_labels]) ** 2).sum())
            self.inertia_history_.append(inertia)
            converged = len(self.inertia_history_) > 1 and np.array_equal(new_labels, labels)
            labels = new_labels
            # each cluster's sum adds its rows in index order, as a boolean
            # mask's mean does, so a cluster whose members are unchanged gets
            # its mean's bits again. One bincount of the keys label·d + column
            # does that for every cluster (from +0.0: a sum of -0.0s alone
            # comes out +0.0). numpy sums a lone column pairwise instead, so
            # with d == 1 each cluster's rows are one contiguous run summed
            # on its own: sorting the unique keys label·n + index keeps them
            # in index order.
            if d == 1:
                Xs = X[np.argsort(labels * n + np.arange(n)), 0]
                ends = np.cumsum(counts)
                sums = np.array([Xs[end - size : end].sum()
                                 for size, end in zip(counts, ends)])[:, None]
            else:
                keys = (labels[:, None] * d + np.arange(d)).ravel()
                sums = np.bincount(keys, weights=X.ravel(), minlength=k * d).reshape(k, d)
            full = counts > 0
            centers[full] = sums[full] / counts[full, None]
            if converged:
                break
        self.labels_ = labels
        self.cluster_centers_ = centers
        self.inertia_ = float(((X - centers[labels]) ** 2).sum())
        return self


def median_silhouette(data, labels, dists=None) -> float:
    """Median over points of (b−a)/max(a,b); singleton points score 0.

    ``dists`` is the points' n×n distance matrix, as ``select_k`` builds it
    once for every K; without it the matrix is built here.
    """
    X = np.asarray(data, dtype=float)
    uniq, own = np.unique(np.asarray(labels), return_inverse=True)
    if len(uniq) < 2:
        raise DegenerateDataError("silhouette undefined for a single cluster")
    if dists is None:
        dists = _distance_matrix(X)
    sizes = np.bincount(own)
    rows = np.arange(len(X))
    # sums[i, c] adds point i's distances to cluster c in index order. One
    # np.take of the columns sorted by the unique keys cluster·n + index
    # copies them C-contiguous, so each row's run of a cluster's columns sums
    # as a 1-D sum would; an F-ordered copy (fancy or boolean indexing) adds
    # in another order.
    grouped = np.take(dists, np.argsort(own * len(X) + rows), axis=1)
    ends = np.cumsum(sizes)
    sums = np.column_stack([grouped[:, end - size : end].sum(axis=1)
                            for size, end in zip(sizes, ends)])
    own_size = sizes[own]
    a = sums[rows, own] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(len(X))
    np.divide(b - a, denom, out=scores, where=(own_size > 1) & (denom != 0))
    return float(np.median(scores))


@dataclass
class Clustering:
    k: int
    labels: np.ndarray
    median_silhouette: float
    qualified: bool  # median silhouette met the threshold
    curve: list[tuple[int, float]]  # (k, median silhouette) examined


def select_k(
    data,
    k_max: int = 100,
    threshold: float = 0.90,
    seed: int = 0,
) -> Clustering:
    """Largest K in 2..k_max whose median silhouette meets the threshold.

    Falls back (flagged) to the silhouette-maximizing K when none does.
    Every K keeps its own seed, ``seed * 1000003 + K``; the k-means++ draws
    of all of them are taken in lockstep (``_seed_rows``) before the fits.
    """
    X = np.asarray(data, dtype=float)
    n = X.shape[0]
    upper = min(k_max, n)
    if upper < 2:
        raise DegenerateDataError("need at least 2 points to cluster")
    # one n×n matrix serves the whole sweep: squared for the seeding and the
    # fits, then square-rooted in place for the silhouettes
    sq = _sq_distance_matrix(X)
    ks = range(2, upper + 1)
    results = {k: KMeans(k, seed=(seed * 1000003 + k) % 2**32) for k in ks}
    rngs = [np.random.default_rng(model.seed) for model in results.values()]
    for model, rows in zip(results.values(), _seed_rows(sq, ks, rngs)):
        model.fit(X, sq, rows)
    dists = np.sqrt(sq, out=sq)
    curve = [
        (k, median_silhouette(X, model.labels_, dists)) for k, model in results.items()
    ]
    qualifying = [k for k, sil in curve if sil >= threshold]
    if qualifying:
        best_k = max(qualifying)
        qualified = True
    else:
        best_k = max(curve, key=lambda pair: (pair[1], -pair[0]))[0]
        qualified = False
    model = results[best_k]
    sil = dict(curve)[best_k]
    return Clustering(
        k=best_k,
        labels=model.labels_,
        median_silhouette=sil,
        qualified=qualified,
        curve=curve,
    )


def gini(sizes) -> float:
    """Standard Gini index of a positive size distribution."""
    x = np.asarray(list(sizes), dtype=float)
    if x.size == 0:
        raise ValueError("gini requires a non-empty size list")
    if np.any(x < 0):
        raise ValueError("sizes must be non-negative")
    total = x.sum()
    if total == 0 or x.size == 1:
        return 0.0
    diffs = np.abs(x[:, None] - x[None, :]).sum()
    return float(diffs / (2 * x.size * total))


@dataclass(frozen=True)
class DiffValueRecord:
    cluster: int
    ku: int  # 1-based KU index
    diff_value: float
    flagged: bool


def diff_values(p_ku, labels) -> list[DiffValueRecord]:
    """Cluster-vs-dataset median differences per KU, IQR-flagged.

    A record is flagged when the cluster's median for that KU falls
    outside the dataset's [Q1, Q3] (linear-interpolation quartiles).
    """
    X = np.asarray(p_ku, dtype=float)
    labels = np.asarray(labels)
    q1, q3 = np.percentile(X, [25, 75], axis=0)
    overall = np.median(X, axis=0)
    clusters = sorted(set(labels.tolist()))
    medians = [np.median(X[labels == c], axis=0) for c in clusters]
    return [
        DiffValueRecord(
            cluster=int(cluster),
            ku=ku + 1,
            diff_value=float(med[ku]) - float(overall[ku]),
            flagged=not (q1[ku] <= med[ku] <= q3[ku]),
        )
        for ku in range(X.shape[1])
        for cluster, med in zip(clusters, medians)
    ]
