import tracemalloc

import numpy as np
import pytest

import mlpmod.spectral
from mlpmod.correlation import build_correlation_adjacency
from mlpmod.graph import LayeredGraph, ncut
from mlpmod.mlp import MlpArchitecture, init_model
from mlpmod.spectral import (
    KMEANS_MAX_ITERS,
    KMEANS_RESTARTS,
    KMEANS_TOL,
    EigensolverError,
    SpectralConfig,
    TooFewNodesError,
    bipartite_eigenvectors,
    cluster_graph,
    kmeans,
    _kmeans_pp_init,
    kmeans_single,
    normalized_laplacian,
    row_normalize,
    smallest_eigenvectors,
)

from test_graph import (
    LAYER_WIDTHS, naive_ncut, random_adjacency, random_blocks, random_layered, triangle_union,
)

# the residual check's whole message under EIG_TOL = 1e-18, ending in the largest residual
LARGEST_RESIDUAL = r"residuals exceed 1e-18 .*: max \d\.\d{3}e[-+]\d+$"


def planted_graph(rng, block_sizes, within=1.0, cross=0.01,
                  within_density=0.9, cross_density=0.1):
    """Dense blocks, sparse weak cross edges; ring per block keeps degrees > 0."""
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                if rng.random() < within_density:
                    a[i, j] = a[j, i] = within
            elif rng.random() < cross_density:
                a[i, j] = a[j, i] = cross
    start = 0
    for size in block_sizes:
        for step in range(size):
            i = start + step
            j = start + (step + 1) % size
            if i != j:
                a[i, j] = a[j, i] = within
        start += size
    return a, labels


def same_partition(labels_a, labels_b):
    """True when two labelings agree up to a renaming of the labels."""
    mapping = {}
    for x, y in zip(labels_a, labels_b):
        if x in mapping:
            if mapping[x] != y:
                return False
        else:
            mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


# ---------------------------------------------------------------------------
# normalized_laplacian

def test_laplacian_single_edge_closed_form():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lap = normalized_laplacian(a)
    np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    values = np.linalg.eigvalsh(lap)
    np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-12)


def test_laplacian_zero_eigenvalue_multiplicity_counts_components():
    for n_components in (1, 2, 3):
        a = triangle_union(n_components)
        values = np.linalg.eigvalsh(normalized_laplacian(a))
        assert np.sum(np.abs(values) < 1e-10) == n_components


def test_laplacian_symmetry_and_spectrum_range():
    rng = np.random.default_rng(0)
    a = random_adjacency(rng, 8, density=0.9)
    a[a.sum(axis=1) == 0, 0] = a[0, a.sum(axis=1) == 0] = 1.0  # no isolated nodes
    lap = normalized_laplacian(a)
    assert np.max(np.abs(lap - lap.T)) < 1e-12
    values = np.linalg.eigvalsh(lap)
    assert values.min() > -1e-9
    assert values.max() < 2 + 1e-9


def test_laplacian_rejects_zero_degree():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(ValueError, match="zero degree"):
        normalized_laplacian(a)


# ---------------------------------------------------------------------------
# smallest_eigenvectors

def test_eigenvectors_identity_matrix():
    values, vectors = smallest_eigenvectors(np.eye(5), 2)
    np.testing.assert_allclose(values, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-10)


def test_eigenvectors_two_node_closed_form():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    values, vectors = smallest_eigenvectors(lap, 1)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    expected = np.full(2, 1 / np.sqrt(2))
    np.testing.assert_allclose(np.abs(vectors[:, 0]), expected, atol=1e-12)


def test_eigenvectors_null_space_separates_components():
    a = triangle_union(2)
    lap = normalized_laplacian(a)
    values, vectors = smallest_eigenvectors(lap, 2)
    np.testing.assert_allclose(values, [0.0, 0.0], atol=1e-10)
    normalized = row_normalize(vectors)
    np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-12)  # no zero row
    # rows coincide within a component, differ across them
    for block in (normalized[:3], normalized[3:]):
        np.testing.assert_allclose(block, np.tile(block[0], (3, 1)), atol=1e-9)
    assert np.linalg.norm(normalized[0] - normalized[3]) > 0.5


def test_eigenvectors_residual_bound_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_adjacency(rng, 12, density=0.8)
        a[a.sum(axis=1) == 0, 0] = a[0, a.sum(axis=1) == 0] = 1.0
        lap = normalized_laplacian(a)
        values, vectors = smallest_eigenvectors(lap, 4)
        scale = max(1.0, np.linalg.norm(lap))
        residuals = np.linalg.norm(lap @ vectors - vectors * values, axis=0)
        assert np.all(residuals <= 1e-9 * scale)


def test_eigenvectors_rejects_nonsymmetric():
    # eigh reads one triangle; the residual against the full matrix catches it
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(EigensolverError, match="residuals"):
        smallest_eigenvectors(m, 1)


def test_eigenvectors_of_nan_matrix_raise():
    # at this size eigh returns NaN pairs instead of failing to converge
    a, _ = planted_graph(np.random.default_rng(2), [20, 20])
    lap = normalized_laplacian(a)
    lap[0, 1] = lap[1, 0] = np.nan
    with pytest.raises(EigensolverError):
        smallest_eigenvectors(lap, 2)


def test_eigenvectors_k_out_of_range():
    with pytest.raises(ValueError):
        smallest_eigenvectors(np.eye(3), 4)


def test_eigenvectors_residual_failure_names_the_largest(monkeypatch):
    a = triangle_union(2)
    lap = normalized_laplacian(a)
    # an impossible tolerance forces the residual check to reject the pairs
    monkeypatch.setattr(mlpmod.spectral, "EIG_TOL", 1e-18)
    with pytest.raises(EigensolverError, match=LARGEST_RESIDUAL):
        smallest_eigenvectors(lap, 2)


def test_eigenvectors_turn_an_eigh_failure_into_eigensolver_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="dense eigendecomposition failed: Eigenvalues"):
        smallest_eigenvectors(np.eye(3), 2)


def test_eigenvectors_refuse_columns_that_are_not_orthonormal(monkeypatch):
    # a repeated true eigenvector: zero residuals, but a Gram matrix of ones
    repeated = np.tile(np.eye(3)[:, :1], 3)
    monkeypatch.setattr(np.linalg, "eigh", lambda lap: (np.ones(3), repeated))
    with pytest.raises(EigensolverError, match="not orthonormal"):
        smallest_eigenvectors(np.eye(3), 2)


# ---------------------------------------------------------------------------
# row_normalize

def test_row_normalize_three_four():
    normalized = row_normalize(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(normalized, [[0.6, 0.8]], atol=1e-15)


def test_row_normalize_zero_row_flagged():
    # a zero row comes back unchanged, beside a normalized one
    normalized = row_normalize(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(normalized, [[0.0, 0.0], [1.0, 0.0]])


def test_row_normalize_random_norms():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((40, 5))
    m[7] = 0.0
    normalized = row_normalize(m)
    norms = np.linalg.norm(normalized, axis=1)
    for i, norm in enumerate(norms):
        if i == 7:
            assert norm == 0.0
        else:
            assert norm == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# kmeans

def reference_kmeans_single(points, n_clusters, rng):
    """Oracle of kmeans_single: the same seeding, repair and stopping rule,
    with the distances from one (n, k, d) temporary and each centroid from
    its boolean-masked points. Both are summed with ``np.cumsum``, which adds
    in order, as kmeans_single's per-coordinate sum and ``np.bincount`` do;
    ``.sum`` would add pairwise along a contiguous axis of 8 or more."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    centers = _kmeans_pp_init(pts, n_clusters, rng)
    prev_cost = np.inf
    labels = np.zeros(n, dtype=np.int64)
    cost = 0.0
    for _ in range(KMEANS_MAX_ITERS):
        sq = np.cumsum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)[:, :, -1]
        labels = np.argmin(sq, axis=1)
        point_cost = sq[np.arange(n), labels]
        counts = np.bincount(labels, minlength=n_clusters)
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[labels] > 1, point_cost, -np.inf)))
            counts[labels[far]] -= 1
            counts[c] = 1
            labels[far] = c
            centers[c] = pts[far]
            point_cost[far] = 0.0
        cost = float(point_cost.sum())
        assert cost <= prev_cost * (1 + 1e-12) + 1e-12
        new_centers = np.vstack(
            [np.cumsum(pts[labels == c], axis=0)[-1] / counts[c] for c in range(n_clusters)]
        )
        if float(np.max(np.linalg.norm(new_centers - centers, axis=1))) <= KMEANS_TOL:
            break
        centers = new_centers
        prev_cost = cost
    return labels, cost


def assert_kmeans_single_matches_reference(points, k, seed):
    labels, cost = kmeans_single(points, k, np.random.default_rng(seed))
    want_labels, want_cost = reference_kmeans_single(points, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(labels, want_labels)
    assert cost == want_cost


def test_kmeans_single_equals_reference_on_random_points():
    rng = np.random.default_rng(60)
    for trial in range(300):
        d, k = int(rng.integers(1, 11)), int(rng.integers(2, 9))
        n = int(rng.integers(k, 200))
        if trial % 5 == 0:  # few distinct points: the repair path runs
            distinct = rng.standard_normal((int(rng.integers(1, k + 2)), d))
            points = distinct[rng.integers(0, len(distinct), size=n)]
        else:
            points = rng.standard_normal((n, d))
        assert_kmeans_single_matches_reference(points, k, seed=trial)


def test_kmeans_single_equals_reference_on_a_planted_embedding():
    graph, _ = _planted_layered(np.random.default_rng(61), (120, 48, 48, 48, 48, 10), 4)
    embedding = row_normalize(bipartite_eigenvectors(graph, 4)[1])
    for seed in range(20):
        assert_kmeans_single_matches_reference(embedding, 4, seed)


def test_kmeans_single_memory_is_linear_in_k():
    # cluster_graph runs k-means on a k-column embedding, so a temporary of
    # all d x k x n terms would grow as k**2 n: 24 MB here against 240 kB
    n, k = 300, 100
    points = row_normalize(np.random.default_rng(80).standard_normal((n, k)))
    tracemalloc.start()
    try:
        kmeans_single(points, k, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * k * n * 8


@pytest.mark.slow
def test_spearman_build_memory_stays_below_the_full_activation_table():
    # the spearman graph holds two layers' ranks at a time; recording every
    # neuron's activations first holds a 1818 x 10000 float64 table (139 MiB),
    # and record-then-build peaks at 153 MiB
    model = init_model(MlpArchitecture(), np.random.default_rng(0))
    images = np.random.default_rng(1).integers(0, 256, size=(10000, 784), dtype=np.uint8)
    tracemalloc.start()
    try:
        build_correlation_adjacency(model, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(model.architecture.layer_widths) * len(images) * 8


def test_kmeans_square_corners():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels, cost = kmeans(points, 4, seed=0)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert len(set(labels.tolist())) == 4


def test_kmeans_two_separated_clouds():
    rng = np.random.default_rng(3)
    radius = 0.01
    left = rng.normal(0.0, radius, size=(20, 3))
    right = rng.normal(0.0, radius, size=(25, 3)) + 10.0  # separation >= 100x radius
    points = np.vstack([left, right])
    truth = np.array([0] * 20 + [1] * 25)
    labels, _ = kmeans(points, 2, seed=7)
    assert same_partition(truth, labels)


def test_kmeans_duplicate_points_repair():
    # n == k with one duplicate pair forces the empty-cluster repair branch
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    labels, cost = kmeans(points, 4, seed=0)
    assert sorted(np.bincount(labels, minlength=4).tolist()) == [1, 1, 1, 1]
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_kmeans_repair_keeps_every_cluster_it_fills():
    # two distinct points for four clusters: once every point costs 0, a
    # repair that took the farthest point anywhere would empty the cluster
    # the previous repair filled, and a restart would end with an empty
    # cluster (a mean-of-empty-slice warning) and a NaN cost
    points = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    labels, cost = kmeans(points, 4, seed=0)
    assert np.bincount(labels, minlength=4).min() >= 1
    assert cost == 0.0


def _points_with(value):
    points = np.random.default_rng(0).standard_normal((20, 3))
    points[7, 1] = value
    return points


@pytest.mark.parametrize("run", [
    pytest.param(lambda points: kmeans(points, 3, seed=0), id="kmeans"),
    pytest.param(lambda points: kmeans_single(points, 3, np.random.default_rng(0)),
                 id="kmeans_single"),
])
@pytest.mark.parametrize("points, message", [
    pytest.param(np.zeros((2, 2)), "cannot make 3 clusters from 2 points", id="too-few"),
    pytest.param(_points_with(np.nan), r"non-finite values \(NaN or inf\)", id="nan"),
    pytest.param(_points_with(-np.inf), r"non-finite values \(NaN or inf\)", id="inf"),
])
def test_kmeans_refuses_points_it_cannot_cluster(run, points, message):
    with pytest.raises(ValueError, match=message):
        run(points)


def test_kmeans_single_refuses_a_cost_that_increases(monkeypatch):
    # centroids moved off the cluster means raise the next iteration's cost
    column_stack = np.column_stack
    monkeypatch.setattr(
        mlpmod.spectral.np, "column_stack", lambda columns: column_stack(columns) + 5.0
    )
    points = np.random.default_rng(0).standard_normal((40, 3))
    with pytest.raises(ArithmeticError, match="cost increased"):
        kmeans_single(points, 3, np.random.default_rng(1))


def test_kmeans_numbers_clusters_by_their_first_point():
    rng = np.random.default_rng(7)
    centers = np.array([[5.0, 5.0], [-5.0, 5.0], [0.0, -5.0]])
    points = centers[rng.integers(0, 3, size=60)] + 0.1 * rng.standard_normal((60, 2))
    for seed in range(5):
        labels, _ = kmeans(points, 3, seed=seed)
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0) and first[0] == 0


def test_kmeans_keeps_the_earliest_restart_within_rounding(monkeypatch):
    # restart 2 beats restart 0 by more than 1e-12 relative; restarts 1 and 3
    # undercut the best cost so far at rounding level only
    costs = iter([1.0, 1.0 - 1e-14, 0.5, 0.5 * (1 - 1e-13)] + [0.7] * (KMEANS_RESTARTS - 4))

    def scripted_restart(points, k, rng):
        return np.array([1, 0, 0]), next(costs)

    monkeypatch.setattr(mlpmod.spectral, "kmeans_single", scripted_restart)
    labels, cost = kmeans(np.zeros((3, 1)), 2, seed=0)
    assert cost == 0.5
    np.testing.assert_array_equal(labels, [0, 1, 1])


def test_kmeans_deterministic_and_monotone():
    rng = np.random.default_rng(4)
    for trial in range(25):
        points = rng.standard_normal((int(rng.integers(5, 40)), 3))
        k = int(rng.integers(2, 5))
        # kmeans_single raises ArithmeticError if its cost ever increases
        labels_a, cost_a = kmeans(points, k, seed=trial)
        labels_b, cost_b = kmeans(points, k, seed=trial)
        assert cost_a == cost_b
        np.testing.assert_array_equal(labels_a, labels_b)
        assert np.bincount(labels_a, minlength=k).min() >= 1


# ---------------------------------------------------------------------------
# cluster_graph

def test_cluster_graph_four_triangles():
    a = triangle_union(4)
    result = cluster_graph(a, SpectralConfig(k=4, rng_seed=0))
    assert result.ncut_value == pytest.approx(0.0, abs=1e-12)
    assert same_partition(np.repeat(np.arange(4), 3), result.labels)
    assert np.all(result.labels >= 0)


def test_cluster_graph_planted_two_blocks():
    rng = np.random.default_rng(5)
    a, truth = planted_graph(rng, [10, 10], within=1.0, cross=0.01,
                             within_density=0.9, cross_density=0.1)
    result = cluster_graph(a, SpectralConfig(k=2, rng_seed=1))
    assert same_partition(truth, result.labels)
    assert result.ncut_value == pytest.approx(naive_ncut(a, truth, 2), rel=1e-12)


def test_cluster_graph_matches_best_restart_and_reruns_identically():
    # fixed instance: selection is by k-means cost, so the ncut-vs-best-restart
    # ratio is an instance property, not a universal bound
    rng = np.random.default_rng(0)
    a = random_adjacency(rng, 12, density=0.7)
    a[a.sum(axis=1) == 0, 0] = a[0, a.sum(axis=1) == 0] = 1.0
    for k in (2, 3):
        cfg = SpectralConfig(k=k, rng_seed=11)
        result = cluster_graph(a, cfg)
        rerun = cluster_graph(a, cfg)
        np.testing.assert_array_equal(result.labels, rerun.labels)
        assert result.ncut_value == rerun.ncut_value
        # replay the restart stream and score each restart's partition
        from mlpmod.spectral import normalized_laplacian, smallest_eigenvectors
        lap = normalized_laplacian(a)
        _, vectors = smallest_eigenvectors(lap, k)
        embedding = row_normalize(vectors)
        replay_rng = np.random.default_rng(cfg.rng_seed)
        restart_ncuts = []
        for _ in range(KMEANS_RESTARTS):
            labels_r, _ = kmeans_single(embedding, k, replay_rng)
            restart_ncuts.append(ncut(a, labels_r, k))
        assert result.ncut_value <= 1.05 * min(restart_ncuts) + 1e-12


def test_cluster_graph_component_recovery_property():
    rng = np.random.default_rng(7)
    for _ in range(15):
        k = int(rng.integers(2, 5))
        sizes = [int(rng.integers(3, 8)) for _ in range(k)]
        a, truth = planted_graph(rng, sizes, cross_density=0.0)  # exact components
        assert a.shape[0] <= 30
        result = cluster_graph(a, SpectralConfig(k=k, rng_seed=3))
        assert result.ncut_value == pytest.approx(0.0, abs=1e-12)
        assert same_partition(truth, result.labels)


def test_cluster_graph_drops_zero_degree_nodes():
    a = triangle_union(2)
    padded = np.zeros((8, 8))
    padded[:6, :6] = a
    result = cluster_graph(padded, SpectralConfig(k=2, rng_seed=0))
    assert np.flatnonzero(result.labels < 0).tolist() == [6, 7]
    assert result.labels[6] == -1 and result.labels[7] == -1
    assert np.count_nonzero(result.labels >= 0) == 6


def test_cluster_graph_too_few_live_nodes():
    a = np.zeros((5, 5))
    a[0, 1] = a[1, 0] = 1.0
    # the same graph layered: two nodes joined by one edge, and three isolated nodes
    layered = LayeredGraph.from_layers([np.ones((1, 1)), np.zeros((1, 3))])
    for graph in (a, layered):
        with pytest.raises(TooFewNodesError, match="^k=4 exceeds the 2 nodes of nonzero degree$"):
            cluster_graph(graph, SpectralConfig(k=4, rng_seed=0))


def test_cluster_graph_without_edges_is_too_few_nodes():
    # an edgeless graph has no live node at all
    for graph in (np.zeros((5, 5)), LayeredGraph.from_layers([np.zeros((2, 3))])):
        with pytest.raises(TooFewNodesError, match="^k=2 exceeds the 0 nodes of nonzero degree$"):
            cluster_graph(graph, SpectralConfig(k=2, rng_seed=0))


def _with_entry(i, j, value, mirror=True):
    a = triangle_union(2)
    a[i, j] = value
    if mirror:
        a[j, i] = value
    return a


@pytest.mark.parametrize(
    "adjacency, fault",
    [
        pytest.param(_with_entry(3, 5, np.nan), "non-finite", id="nan"),
        pytest.param(_with_entry(0, 4, np.inf), "non-finite", id="inf"),
        pytest.param(_with_entry(0, 1, -1.0), "negative", id="negative"),
        pytest.param(_with_entry(0, 4, 1e-9, mirror=False), "not symmetric", id="asymmetric"),
        pytest.param(np.ones((3, 4)), "square", id="non-square"),
    ],
)
def test_cluster_graph_rejects_invalid_adjacency(adjacency, fault):
    with pytest.raises(ValueError, match=fault):
        cluster_graph(adjacency, SpectralConfig(k=2, rng_seed=0))


def _layered_with_entry(t, i, j, value):
    blocks = [np.ones((3, 4)), np.ones((4, 2))]
    blocks[t][i, j] = value
    return LayeredGraph.from_layers(blocks)


@pytest.mark.parametrize(
    "make_graph, fault",
    [
        pytest.param(lambda: _layered_with_entry(1, 2, 1, np.nan), "non-finite", id="nan"),
        pytest.param(lambda: _layered_with_entry(0, 0, 3, np.inf), "non-finite", id="inf"),
        pytest.param(lambda: _layered_with_entry(1, 0, 0, -1.0), "negative", id="negative"),
        pytest.param(
            lambda: LayeredGraph.from_layers([np.ones((3, 4)), np.ones((2, 4))]),
            r"block 1 has shape \(2, 4\) but block 0 has shape \(3, 4\)",
            id="block-shape",
        ),
    ],
)
def test_cluster_graph_rejects_invalid_layered_graph(make_graph, fault):
    with pytest.raises(ValueError, match=fault):
        cluster_graph(make_graph(), SpectralConfig(k=2, rng_seed=0))


# ---------------------------------------------------------------------------
# the bipartite path against the dense path

def forbid_dense_route(monkeypatch):
    """From here on, forming the n x n matrix of a LayeredGraph or any
    normalized Laplacian fails the test."""
    def forbidden(*args):
        raise AssertionError("the block path took the dense route")
    monkeypatch.setattr(LayeredGraph, "dense", forbidden)
    monkeypatch.setattr(mlpmod.spectral, "normalized_laplacian", forbidden)


def assert_block_path_matches_dense(graph, k, rng_seed=0):
    """Same labels, and ncut, eigenvalues and k-means cost to 1e-10, on a
    graph whose k-th and (k+1)-th eigenvalues differ: only then is the
    k-dimensional eigenspace unique, so that both solvers must find it."""
    sub = graph.subgraph(graph.degrees() > 0)
    lap = normalized_laplacian(sub.dense())
    spectrum = np.linalg.eigvalsh(lap)
    assert spectrum[k] - spectrum[k - 1] > 1e-6, "test graph has no eigengap at k"
    values, vectors = bipartite_eigenvectors(sub, k)
    np.testing.assert_allclose(values, spectrum[:k], rtol=0, atol=1e-10)
    np.testing.assert_allclose(lap @ vectors, vectors * values, rtol=0, atol=1e-10)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-10)
    cfg = SpectralConfig(k=k, rng_seed=rng_seed)
    block, dense = cluster_graph(graph, cfg), cluster_graph(graph.dense(), cfg)
    np.testing.assert_array_equal(block.labels, dense.labels)
    np.testing.assert_array_equal(block.labels < 0, dense.labels < 0)
    assert block.ncut_value == pytest.approx(dense.ncut_value, rel=1e-10, abs=1e-12)
    assert block.kmeans_cost == pytest.approx(dense.kmeans_cost, rel=1e-10, abs=1e-12)
    return block


@pytest.mark.parametrize("widths", LAYER_WIDTHS, ids=str)
@pytest.mark.parametrize("k", [2, 3])
def test_block_path_matches_dense_on_random_layered_graphs(widths, k):
    rng = np.random.default_rng(100 + 10 * len(widths) + k)
    for trial in range(5):
        assert_block_path_matches_dense(random_layered(rng, widths), k, rng_seed=trial)


def _planted_layered(rng, widths, n_modules, cross=0.02):
    modules = [rng.permutation(np.arange(w) % n_modules) for w in widths]
    blocks = [
        rng.uniform(0.5, 1.0, (len(ma), len(mb))) * np.where(ma[:, None] == mb, 1.0, cross)
        for ma, mb in zip(modules, modules[1:])
    ]
    return LayeredGraph.from_layers(blocks), np.concatenate(modules)


@pytest.mark.parametrize("widths", [(40, 16, 16, 16, 16, 8), (24, 12, 12, 8)], ids=str)
def test_block_path_matches_dense_on_planted_modules(widths):
    graph, truth = _planted_layered(np.random.default_rng(len(widths)), widths, 4)
    result = assert_block_path_matches_dense(graph, 4)
    assert same_partition(truth, result.labels)
    assert result.ncut_value == pytest.approx(naive_ncut(graph.dense(), truth, 4), rel=1e-10)


def test_block_path_matches_dense_with_dropped_nodes_and_a_dead_layer():
    # a dead middle layer splits the graph in two components; at k=2 every
    # k-means restart finds them, with costs apart at rounding level only,
    # and the canonical labels still name them alike on both paths
    rng = np.random.default_rng(30)
    widths = (12, 8, 6, 8, 10)
    starts = np.cumsum((0,) + widths)
    for dead_layer, k in ((None, 3), (None, 4), (0, 3), (2, 3), (2, 4), (2, 2)):
        blocks = random_blocks(rng, widths, density=0.8)
        blocks[0][[1, 5], :] = 0.0  # two input nodes lose every edge
        blocks[-1][:, 4] = 0.0      # and so does one output node
        if dead_layer is not None:
            for t in (dead_layer - 1, dead_layer):
                if 0 <= t < len(blocks):
                    blocks[t][:] = 0.0
        result = assert_block_path_matches_dense(LayeredGraph.from_layers(blocks), k)
        assert result.labels[[1, 5, starts[-2] + 4]].tolist() == [-1, -1, -1]
        if dead_layer is not None:
            assert np.all(result.labels[starts[dead_layer] : starts[dead_layer + 1]] == -1)


def test_block_path_with_k_above_the_smaller_side_matches_dense():
    # even side: 3 + 2 nodes, odd side: 6; the 6 smallest eigenpairs need
    # the null space of the scaled block
    rng = np.random.default_rng(40)
    graph = random_layered(rng, (3, 6, 2), density=1.0)
    for k in (5, 6, 7):
        assert_block_path_matches_dense(graph, k)


def test_block_path_with_a_vanishing_kth_singular_value_takes_the_dense_route():
    # widths 7-2-1-5: the 8 x 7 scaled block has rank 3, so s_4 = 0 and the
    # Gram form's S v / s would divide by it; the eigenvalue 1 has
    # multiplicity 9, so the labels are not unique and are not compared
    graph = random_layered(np.random.default_rng(41), (7, 2, 1, 5), density=1.0)
    lap = normalized_laplacian(graph.dense())
    spectrum = np.linalg.eigvalsh(lap)
    assert np.sum(np.abs(spectrum - 1.0) < 1e-10) == 9
    for k in (4, 5):
        values, vectors = bipartite_eigenvectors(graph, k)
        np.testing.assert_allclose(values, spectrum[:k], rtol=0, atol=1e-10)
        np.testing.assert_allclose(lap @ vectors, vectors * values, rtol=0, atol=1e-10)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-10)
        result = cluster_graph(graph, SpectralConfig(k=k, rng_seed=0))
        assert np.all(result.labels >= 0)
        assert np.unique(result.labels).tolist() == list(range(k))  # all k are nonempty


def test_bipartite_residual_failure_names_the_largest(monkeypatch):
    graph = random_layered(np.random.default_rng(50), (5, 4, 6), density=1.0)
    monkeypatch.setattr(mlpmod.spectral, "EIG_TOL", 1e-18)
    with pytest.raises(EigensolverError, match=LARGEST_RESIDUAL):
        bipartite_eigenvectors(graph, 3)


def test_bipartite_eigenvectors_of_nan_block_raise(monkeypatch):
    # a NaN spectrum raises and is not rerouted; eigh either fails on these
    # Gram matrices (20 x 20 here) or returns NaN eigenvalues (50 x 50)
    forbid_dense_route(monkeypatch)
    for width in (20, 50):
        graph = random_layered(np.random.default_rng(51), (width,) * 3, density=1.0)
        graph.block[width + 3, 2] = np.nan  # layer 1 node 2 to layer 2 node 3
        with pytest.raises(EigensolverError):
            bipartite_eigenvectors(graph, 2)


@pytest.mark.parametrize("n_vectors", [0, 6])
def test_bipartite_eigenvectors_n_vectors_out_of_range(n_vectors):
    graph = LayeredGraph.from_layers([np.ones((2, 3))])
    with pytest.raises(ValueError, match=rf"need 1 <= n_vectors <= 5, got {n_vectors}"):
        bipartite_eigenvectors(graph, n_vectors)


def test_bipartite_eigenvectors_reject_zero_degree():
    graph = LayeredGraph.from_layers([np.array([[1.0, 0.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="zero degree"):
        bipartite_eigenvectors(graph, 1)


def test_spectral_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(k=1)
    with pytest.raises(ValueError):
        SpectralConfig(rng_seed=-1)


def test_spectral_config_takes_only_integers():
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        SpectralConfig(k=2.5)
    with pytest.raises(ValueError, match="rng_seed must be an integer, got True"):
        SpectralConfig(rng_seed=True)
    cfg = SpectralConfig(k=np.int64(3), rng_seed=np.uint8(1))
    assert (cfg.k, cfg.rng_seed) == (3, 1) and type(cfg.k) is int
