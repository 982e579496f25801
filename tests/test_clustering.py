"""PCA, k-means, silhouette-based K selection, Gini, diff values."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kurev.clustering import (
    CHUNK_ROWS,
    Clustering,
    DegenerateDataError,
    KMeans,
    PcaReducer,
    diff_values,
    gini,
    median_silhouette,
    pca_reduce,
    select_k,
)
from kurev.clustering import _distance_matrix, _seed_rows, _sq_distance_matrix


def blobs(centers, per=10, spread=0.05, seed=99, dims=None):
    rng = np.random.default_rng(seed)
    points = []
    for center in centers:
        c = np.asarray(center, dtype=float)
        if dims is not None:
            c = np.pad(c, (0, dims - len(c)))
        points.append(c + spread * rng.standard_normal((per, len(c))))
    return np.vstack(points)


def test_pca_rank_one_data_needs_one_component():
    t = np.linspace(0, 1, 12)
    direction = np.ones(28)
    data = np.outer(t, direction)
    reducer = PcaReducer(0.95).fit(data)
    assert reducer.n_components_ == 1
    assert reducer.explained_variance_ratio_[0] == pytest.approx(1.0)


def test_pca_isotropic_data_needs_nearly_all_components():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((400, 28))
    reducer = PcaReducer(0.95).fit(data)
    assert 25 <= reducer.n_components_ <= 28


def test_pca_orthonormal_and_exact_reconstruction():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 8))
    reducer = PcaReducer(1.0).fit(data)
    components = reducer.components_
    gram = components @ components.T
    assert np.allclose(gram, np.eye(len(components)), atol=1e-9)
    rebuilt = reducer.inverse_transform(reducer.transform(data))
    assert np.allclose(rebuilt, data, atol=1e-9)


def test_pca_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        PcaReducer().fit(np.zeros((1, 5)))
    with pytest.raises(DegenerateDataError):
        PcaReducer().fit(np.ones((6, 5)))


def test_kmeans_separates_two_pairs():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    model = KMeans(2, seed=1).fit(data)
    assert model.labels_[0] == model.labels_[1]
    assert model.labels_[2] == model.labels_[3]
    assert model.labels_[0] != model.labels_[2]
    assert model.inertia_ == pytest.approx(0.01)


def test_kmeans_objective_never_increases():
    data = blobs([(0, 0), (4, 0), (0, 4)], per=15, spread=0.8, seed=5)
    model = KMeans(3, seed=2).fit(data)
    history = model.inertia_history_
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_handles_identical_points():
    data = np.zeros((6, 3))
    model = KMeans(2, seed=0).fit(data)
    assert model.inertia_ == pytest.approx(0.0)
    assert len(model.labels_) == 6


def test_kmeans_matches_brute_force_optimum():
    # [DERIVED] small instance: compare against the best of many restarts
    data = blobs([(0, 0), (3, 3)], per=6, spread=0.4, seed=21)
    best = min(KMeans(2, seed=s).fit(data).inertia_ for s in range(50))
    model = KMeans(2, seed=0).fit(data)
    assert model.inertia_ <= best * 1.0001 + 1e-9


def test_kmeans_rejects_bad_k():
    with pytest.raises(ValueError):
        KMeans(0).fit(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        KMeans(5).fit(np.zeros((4, 2)))


def test_silhouette_geometry():
    data = np.array([[0.0], [0.0], [10.0], [10.0]])
    labels = np.array([0, 0, 1, 1])
    assert median_silhouette(data, labels) == pytest.approx(1.0)
    mixed = np.array([0, 1, 0, 1])
    assert median_silhouette(data, mixed) < 0.0
    with pytest.raises(DegenerateDataError):
        median_silhouette(data, np.zeros(4, dtype=int))


def test_silhouette_singletons_score_zero():
    data = np.array([[0.0], [0.1], [9.0]])
    labels = np.array([0, 0, 1])
    scores_median = median_silhouette(data, labels)
    # the singleton contributes 0; the median over {≈1, ≈1, 0} is ≈1
    assert scores_median > 0.9


def test_select_k_finds_three_blobs():
    # the policy takes the LARGEST qualifying K, so sub-splitting a tight
    # blob can also qualify; k_max=3 checks exact recovery of the blobs
    data = blobs([(0, 0), (10, 0), (0, 10)], per=8, spread=0.1, seed=13)
    result = select_k(data, k_max=3, seed=0)
    assert isinstance(result, Clustering)
    assert result.qualified is True
    assert result.k == 3
    assert result.median_silhouette >= 0.90
    sizes = np.bincount(result.labels)
    assert sorted(sizes.tolist()) == [8, 8, 8]


def test_select_k_prefers_the_largest_qualifying_k():
    data = blobs([(0, 0), (10, 0), (0, 10)], per=8, spread=0.1, seed=13)
    result = select_k(data, k_max=8, seed=0)
    assert result.qualified is True
    qualifying = [k for k, sil in result.curve if sil >= 0.90]
    assert result.k == max(qualifying) >= 3


def test_select_k_two_blobs():
    data = blobs([(0, 0), (10, 10)], per=10, spread=0.1, seed=17)
    result = select_k(data, k_max=6, seed=0)
    assert result.qualified and result.k == 2


def test_select_k_flags_fallback_when_nothing_qualifies():
    rng = np.random.default_rng(23)
    data = rng.uniform(size=(30, 2))  # no cluster structure
    result = select_k(data, k_max=6, seed=0)
    assert result.qualified is False
    assert result.k == max(result.curve, key=lambda kv: (kv[1], -kv[0]))[0]


def test_select_k_needs_two_points():
    with pytest.raises(DegenerateDataError):
        select_k(np.zeros((1, 2)))


def test_gini_values():
    assert gini([5, 5, 5, 5]) == 0.0
    # [DERIVED] [1, 1, 1, 97]: Σ|xi−xj| = 6·96 = 576; 576 / (2·4·100) = 0.72
    assert gini([1, 1, 1, 97]) == pytest.approx(0.72)
    assert gini([10]) == 0.0
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([-1, 2])


def test_gini_invariances():
    base = [3, 9, 1, 7]
    scaled = [x * 12 for x in base]
    shuffled = [7, 3, 1, 9]
    assert gini(base) == pytest.approx(gini(scaled))
    assert gini(base) == pytest.approx(gini(shuffled))


def test_diff_values_zero_for_homogeneous_clusters():
    p_ku = np.tile(np.linspace(0, 1, 28), (6, 1))
    labels = np.array([0, 0, 0, 1, 1, 1])
    for record in diff_values(p_ku, labels):
        assert record.diff_value == 0.0
        assert record.flagged is False


def test_diff_values_hand_fixture():
    # [DERIVED] one KU column [0, 0, 0, 0, 10, 10]; clusters {0..3}, {4, 5}.
    # Overall median 0, Q1 0, Q3 7.5. Cluster 0 median 0 → diff 0, inside.
    # Cluster 1 median 10 → diff 10, outside [0, 7.5] → flagged.
    p_ku = np.zeros((6, 28))
    p_ku[4, 2] = 10.0
    p_ku[5, 2] = 10.0
    labels = np.array([0, 0, 0, 0, 1, 1])
    records = {(r.cluster, r.ku): r for r in diff_values(p_ku, labels)}
    assert records[(0, 3)].diff_value == pytest.approx(0.0)
    assert records[(0, 3)].flagged is False
    assert records[(1, 3)].diff_value == pytest.approx(10.0)
    assert records[(1, 3)].flagged is True
    assert len(records) == 2 * 28


def test_pca_reduce_wrapper_matches_class():
    rng = np.random.default_rng(31)
    data = rng.standard_normal((20, 6))
    assert np.allclose(pca_reduce(data, 0.9), PcaReducer(0.9).fit_transform(data))


# --- naive oracles: the per-point and per-column forms the stage replaced ---


def naive_median_silhouette(data, labels):
    X = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    dists = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels == labels[i]
        own_size = own.sum()
        if own_size == 1:
            continue
        a = dists[i][own].sum() / (own_size - 1)
        b = min(
            dists[i][labels == other].mean() for other in uniq if other != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(np.median(scores))


def naive_init_centers(X, n_clusters, rng):
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    for _ in range(1, n_clusters):
        d2 = np.min(
            ((X[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(-1), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(n)])
            continue
        centers.append(X[rng.choice(n, p=d2 / total)])
    return np.asarray(centers, dtype=float)


def naive_fit(X, n_clusters, seed, max_iter=300):
    """Lloyd's algorithm with a boolean mask per cluster for both steps.

    Returns (labels, centres, inertia history, inertia, empty-cluster repairs).
    """
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = X[KMeans(n_clusters)._init_centers(X, rng)]
    labels = np.zeros(n, dtype=int)
    history = []
    repairs = 0
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_labels = d2.argmin(axis=1)
        for c in range(n_clusters):
            if not np.any(new_labels == c):
                repairs += 1
                far = int(d2[np.arange(n), new_labels].argmax())
                new_labels[far] = c
                centers[c] = X[far]
        history.append(float(((X - centers[new_labels]) ** 2).sum()))
        converged = np.array_equal(new_labels, labels) and len(history) > 1
        labels = new_labels
        for c in range(n_clusters):
            members = X[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        if converged:
            break
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, history, inertia, repairs


def naive_select_k(X, k_max, threshold, seed):
    """Per-K naive Lloyd and per-point silhouette; (k, labels, curve)."""
    fits, curve = {}, []
    for k in range(2, min(k_max, len(X)) + 1):
        fits[k] = naive_fit(X, k, (seed * 1000003 + k) % 2**32)[0]
        curve.append((k, naive_median_silhouette(X, fits[k])))
    qualifying = [k for k, sil in curve if sil >= threshold]
    if qualifying:
        best = max(qualifying)
    else:
        best = max(curve, key=lambda pair: (pair[1], -pair[0]))[0]
    return best, fits[best], curve


def naive_diff_values(p_ku, labels):
    X = np.asarray(p_ku, dtype=float)
    labels = np.asarray(labels)
    records = []
    for ku in range(X.shape[1]):
        column = X[:, ku]
        q1, q3 = np.percentile(column, [25, 75])
        overall = float(np.median(column))
        for cluster in sorted(set(labels.tolist())):
            med = float(np.median(column[labels == cluster]))
            records.append((int(cluster), ku + 1, med - overall, not (q1 <= med <= q3)))
    return records


def random_cases(count, seed):
    """Seeded (X, labels) pairs with d up to 29, singletons and duplicates."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 30))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        if case % 3 == 0:  # duplicate points: some distance sums are 0
            X[rng.integers(n, size=n // 2)] = X[0]
        if case % 4 == 0:  # integer profiles, as the KU counts are
            X = np.round(X * 3)
        k = int(rng.integers(2, n + 1))  # large k leaves singleton clusters
        labels = rng.integers(0, k, size=n)
        labels[:2] = [0, 1]  # at least two clusters
        yield X, labels


def test_median_silhouette_equals_per_point_oracle():
    for X, labels in random_cases(300, seed=41):
        assert median_silhouette(X, labels) == naive_median_silhouette(X, labels)


def test_silhouette_oracle_covers_singletons_and_duplicates():
    # clusters 0 and 1 coincide, so a == b == 0 for their points (denominator
    # 0); cluster 2 is a singleton
    data = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])
    labels = np.array([0, 0, 1, 1, 2])
    assert median_silhouette(data, labels) == naive_median_silhouette(data, labels)
    assert median_silhouette(data, labels) == 0.0


def test_kmeans_seeding_equals_all_centres_oracle():
    for case, (X, _) in enumerate(random_cases(300, seed=43)):
        k = 1 + case % len(X)
        got = X[KMeans(k)._init_centers(X, np.random.default_rng(case))]
        want = naive_init_centers(X, k, np.random.default_rng(case))
        assert np.array_equal(got, want)


def test_diff_values_equal_per_column_oracle():
    for X, labels in random_cases(200, seed=47):
        got = [
            (r.cluster, r.ku, r.diff_value, r.flagged) for r in diff_values(X, labels)
        ]
        assert got == naive_diff_values(X, labels)


def lloyd_cases(count, seed):
    """Seeded (X, k, max_iter) with d == 1, duplicates, k == n and capped runs."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(2, 41))
        d = 1 if case % 5 == 0 else int(rng.integers(2, 30))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        if case % 3 == 0:  # duplicates: k-means++ repeats a point, empties follow
            X[rng.integers(n, size=n - 1)] = X[0]
        if case % 4 == 0:
            X = np.round(X * 3)
        k = n if case % 7 == 0 else int(rng.integers(1, n + 1))
        max_iter = 1 + case % 3 if case % 6 == 0 else 300
        yield X, k, max_iter


def test_kmeans_fit_equals_mask_loop_oracle():
    repairs = capped = full_k = flat = 0
    for case, (X, k, max_iter) in enumerate(lloyd_cases(300, seed=53)):
        model = KMeans(k, seed=case, max_iter=max_iter).fit(X)
        labels, centers, history, inertia, repaired = naive_fit(X, k, case, max_iter)
        assert np.array_equal(model.labels_, labels)
        assert np.array_equal(model.cluster_centers_, centers)
        assert model.inertia_history_ == history
        assert model.inertia_ == inertia
        repairs += repaired
        capped += len(history) == max_iter < 300
        full_k += k == len(X)
        flat += X.shape[1] == 1
    assert repairs and capped and full_k and flat


def test_kmeans_fit_given_the_squared_matrix_equals_fit_without_it():
    for case, (X, k, max_iter) in enumerate(lloyd_cases(300, seed=71)):
        given = KMeans(k, seed=case, max_iter=max_iter).fit(X, _sq_distance_matrix(X))
        built = KMeans(k, seed=case, max_iter=max_iter).fit(X)
        assert np.array_equal(given.labels_, built.labels_)
        assert np.array_equal(given.cluster_centers_, built.cluster_centers_)
        assert given.inertia_history_ == built.inertia_history_
        assert given.inertia_ == built.inertia_


def test_kmeans_seeding_from_the_squared_matrix_equals_all_centres_oracle():
    for case, (X, _) in enumerate(random_cases(300, seed=73)):
        k = 1 + case % len(X)
        sq = _sq_distance_matrix(X)
        got = X[KMeans(k)._init_centers(X, np.random.default_rng(case), sq)]
        want = naive_init_centers(X, k, np.random.default_rng(case))
        assert np.array_equal(got, want)


class CountingRng:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.integers_calls = 0

    def integers(self, n):
        self.integers_calls += 1
        return self.rng.integers(n)

    def choice(self, n, p):
        return self.rng.choice(n, p=p)


def test_seeding_every_k_at_once_equals_all_centres_oracle():
    zero_totals = 0
    cases = [X for X, _ in random_cases(100, seed=89)]
    rng = np.random.default_rng(97)
    for _ in range(30):  # fewer distinct points than the largest K
        n = int(rng.integers(4, 41))
        pool = np.round(rng.standard_normal((int(rng.integers(1, 4)), 3)) * 3)
        cases.append(pool[rng.integers(len(pool), size=n)])
    for case, X in enumerate(cases):
        ks = range(2, len(X) + 1)
        seeds = [(case * 1000003 + k) % 2**32 for k in ks]  # select_k's
        got = _seed_rows(_sq_distance_matrix(X), ks, [np.random.default_rng(s) for s in seeds])
        for k, rows, seed in zip(ks, got, seeds):
            counting = CountingRng(seed)
            assert np.array_equal(X[rows], naive_init_centers(X, k, counting))
            zero_totals += counting.integers_calls > 1  # a draw from a zero total
    assert zero_totals


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_seeding_refuses_a_point_that_choice_refuses(bad):
    X = np.random.default_rng(101).standard_normal((12, 4))
    X[5, 2] = bad
    with pytest.raises(ValueError):
        KMeans(3)._init_centers(X, np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_k(X, k_max=6, seed=0)


def test_kmeans_fit_given_seeded_rows_equals_fit_without_them():
    for case, (X, k, max_iter) in enumerate(lloyd_cases(300, seed=103)):
        sq = _sq_distance_matrix(X)
        (rows,) = _seed_rows(sq, [k], [np.random.default_rng(case)])
        given = KMeans(k, seed=case, max_iter=max_iter).fit(X, sq, rows)
        built = KMeans(k, seed=case, max_iter=max_iter).fit(X)
        assert np.array_equal(given.labels_, built.labels_)
        assert np.array_equal(given.cluster_centers_, built.cluster_centers_)
        assert given.inertia_history_ == built.inertia_history_
        assert given.inertia_ == built.inertia_


def test_kmeans_repair_that_empties_a_later_cluster_equals_oracle():
    # seed 473 picks -5.4, 1.1, -2.9, -6.7, -6.7; the mean of cluster 0's
    # -5.4s comes out as -5.3999999999999995, so in the third step they all
    # join cluster 4, whose centre is -5.4 exactly, and cluster 0 is empty.
    # Its repair takes point 0 out of cluster 2, and that cluster is then
    # repaired with the same point (cluster 0 stays empty).
    X = np.array([-2.9, -5.4, -5.4, -5.4, 1.1, -5.4, -5.4, -6.7, -5.4, -5.4])[:, None]
    model = KMeans(5, seed=473, max_iter=3).fit(X)
    labels, centers, history, inertia, repairs = naive_fit(X, 5, 473, max_iter=3)
    assert repairs == 4
    assert 0 not in labels
    assert np.array_equal(model.labels_, labels)
    assert np.array_equal(model.cluster_centers_, centers)
    assert model.inertia_history_ == history and model.inertia_ == inertia


def test_select_k_equals_per_k_oracle():
    rng = np.random.default_rng(59)
    cases = [
        blobs([(0, 0), (10, 0), (0, 10)], per=8, spread=0.1, seed=13),
        blobs([(0,), (5,), (9,)], per=6, spread=0.3, seed=3),
        np.round(rng.uniform(size=(30, 4)) * 3),
        rng.standard_normal((CHUNK_ROWS + 3, 5)),
    ]
    for X in cases:
        for seed, k_max, threshold in [(0, 8, 0.90), (2, 12, 0.5)]:
            result = select_k(X, k_max=k_max, threshold=threshold, seed=seed)
            k, labels, curve = naive_select_k(X, k_max, threshold, seed)
            assert result.curve == curve
            assert result.k == k
            assert np.array_equal(result.labels, labels)
            assert result.median_silhouette == dict(curve)[k]


def test_select_k_equals_per_k_oracle_at_the_team_shape():
    # the team benchmark clusters 150 profiles in 18 PCA dimensions with
    # k_max=50. 150 draws from 40 integer rows leave fewer distinct points
    # than the largest K, so seeding repeats points, empty clusters get
    # repaired, and rows drawn once can end up alone in their cluster.
    rng = np.random.default_rng(83)
    groups = rng.standard_normal((7, 18)) * 2
    pool = np.round(groups[rng.integers(7, size=40)] + 0.5 * rng.standard_normal((40, 18)))
    X = pool[rng.integers(40, size=150)]
    result = select_k(X, k_max=50, seed=1)
    k, labels, curve = naive_select_k(X, 50, 0.90, 1)
    assert result.curve == curve
    assert result.k == k
    assert np.array_equal(result.labels, labels)
    assert naive_fit(X, 50, (1000003 + 50) % 2**32)[4] > 0  # repairs
    assert (np.bincount(labels) == 1).any()  # singletons


def test_median_silhouette_with_precomputed_matrix_equals_without():
    for X, labels in random_cases(100, seed=61):
        assert median_silhouette(X, labels, _distance_matrix(X)) == median_silhouette(
            X, labels
        )


def test_chunked_distance_matrix_equals_full_broadcast():
    rng = np.random.default_rng(67)
    for n in (1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1):
        for d in (1, 7, 29):
            X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
            full = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            assert np.array_equal(_distance_matrix(X), full)


def test_select_k_holds_one_distance_matrix():
    # the sweep's squared matrix becomes its Euclidean one in place; the
    # silhouette's column-grouped copy is the only other n×n array
    n = 600
    X = np.random.default_rng(79).standard_normal((n, 3))
    tracemalloc.start()
    try:
        select_k(X, k_max=6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n * 8
