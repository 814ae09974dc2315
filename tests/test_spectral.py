import numpy as np
import pytest

from mlpmod.graph import ncut
from mlpmod.spectral import (
    EIG_TOL,
    KMEANS_RESTARTS,
    EigensolverError,
    SpectralConfig,
    cluster_graph,
    kmeans,
    kmeans_single,
    normalized_laplacian,
    row_normalize,
    smallest_eigenvectors,
)

from test_graph import naive_ncut, random_adjacency, triangle_union


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
    normalized, zero_rows = row_normalize(vectors)
    assert not zero_rows.any()
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


def test_eigenvectors_residual_failure_carries_norms():
    a = triangle_union(2)
    lap = normalized_laplacian(a)
    # an impossible tolerance forces the residual check to reject the pairs
    with pytest.raises(EigensolverError, match="residuals") as err:
        smallest_eigenvectors(lap, 2, eig_tol=1e-18)
    assert err.value.residuals is not None
    assert err.value.residuals.shape == (2,)


# ---------------------------------------------------------------------------
# row_normalize

def test_row_normalize_three_four():
    normalized, zero_rows = row_normalize(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(normalized, [[0.6, 0.8]], atol=1e-15)
    assert not zero_rows.any()


def test_row_normalize_zero_row_flagged():
    normalized, zero_rows = row_normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(normalized[0], [0.0, 0.0])
    assert zero_rows.tolist() == [True, False]


def test_row_normalize_random_norms():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((40, 5))
    m[7] = 0.0
    normalized, zero_rows = row_normalize(m)
    norms = np.linalg.norm(normalized, axis=1)
    for i, norm in enumerate(norms):
        if zero_rows[i]:
            assert norm == 0.0
        else:
            assert norm == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# kmeans

def test_kmeans_square_corners():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels, cost = kmeans(points, 4, rng=0)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert len(set(labels.tolist())) == 4


def test_kmeans_two_separated_clouds():
    rng = np.random.default_rng(3)
    radius = 0.01
    left = rng.normal(0.0, radius, size=(20, 3))
    right = rng.normal(0.0, radius, size=(25, 3)) + 10.0  # separation >= 100x radius
    points = np.vstack([left, right])
    truth = np.array([0] * 20 + [1] * 25)
    labels, _ = kmeans(points, 2, rng=7)
    assert same_partition(truth, labels)


def test_kmeans_duplicate_points_repair():
    # n == k with one duplicate pair forces the empty-cluster repair branch
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    labels, cost = kmeans(points, 4, rng=0)
    assert sorted(np.bincount(labels, minlength=4).tolist()) == [1, 1, 1, 1]
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_kmeans_too_few_points():
    with pytest.raises(ValueError, match="cannot make"):
        kmeans(np.zeros((2, 2)), 3, rng=0)


def test_kmeans_deterministic_and_monotone():
    rng = np.random.default_rng(4)
    for trial in range(25):
        points = rng.standard_normal((int(rng.integers(5, 40)), 3))
        k = int(rng.integers(2, 5))
        # kmeans_single raises ArithmeticError if its cost ever increases
        labels_a, cost_a = kmeans(points, k, rng=trial)
        labels_b, cost_b = kmeans(points, k, rng=trial)
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
    assert result.dropped.size == 0


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
        _, vectors = smallest_eigenvectors(lap, k, EIG_TOL)
        embedding, _ = row_normalize(vectors)
        replay_rng = np.random.default_rng(cfg.rng_seed)
        restart_ncuts = []
        for _ in range(KMEANS_RESTARTS):
            labels_r, _, _ = kmeans_single(embedding, k, replay_rng)
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
    assert result.dropped.tolist() == [6, 7]
    assert result.labels[6] == -1 and result.labels[7] == -1
    assert result.cluster_sizes().sum() == 6


def test_cluster_graph_too_few_live_nodes():
    a = np.zeros((5, 5))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(ValueError, match="nonzero degree"):
        cluster_graph(a, SpectralConfig(k=4, rng_seed=0))


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


def test_spectral_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(k=1)
    with pytest.raises(ValueError):
        SpectralConfig(rng_seed=-1)
