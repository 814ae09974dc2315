import numpy as np
import pytest

from mlpmod.graph import (
    LayeredGraph,
    build_weight_adjacency,
    cut_weight,
    degree,
    ncut,
    volume,
)


# ---------------------------------------------------------------------------
# naive reference implementations (independent of the module under test)

def naive_degree(a, i):
    total = 0.0
    for j in range(a.shape[0]):
        total += a[i, j]
    return total


def naive_volume(a, cluster):
    total = 0.0
    for i in cluster:
        total += naive_degree(a, i)
    return total


def naive_cut(a, left, right):
    total = 0.0
    for i in left:
        for j in right:
            total += a[i, j]
    return total


def naive_ncut(a, labels, k):
    total = 0.0
    for c in range(k):
        inside = [i for i in range(a.shape[0]) if labels[i] == c]
        outside = [i for i in range(a.shape[0]) if labels[i] != c]
        total += naive_cut(a, inside, outside) / naive_volume(a, inside)
    return total


def random_adjacency(rng, n, density=0.6, scale=5.0):
    a = rng.random((n, n)) * scale
    a *= rng.random((n, n)) < density
    a = np.triu(a, 1)
    return a + a.T


def random_partition(rng, a, k):
    """Random labels with nonempty, positive-volume clusters (resampled)."""
    n = a.shape[0]
    deg = a.sum(axis=1)
    for _ in range(1000):
        labels = rng.integers(0, k, size=n)
        ok = all(
            np.any(labels == c) and deg[labels == c].sum() > 0 for c in range(k)
        )
        if ok:
            return labels
    raise RuntimeError("could not sample a valid partition")


def layer_offsets(widths):
    """First node index of each layer, then the node count."""
    return np.concatenate([[0], np.cumsum(widths)])


def assert_layered_adjacency(a, widths):
    """Symmetric, non-negative, and nonzero only in the blocks that join
    adjacent layers, so the diagonal is zero too."""
    starts = layer_offsets(widths)
    assert a.shape == (starts[-1], starts[-1])
    np.testing.assert_array_equal(a, a.T)
    assert np.all(a >= 0)
    off_block = a.copy()
    for t in range(len(widths) - 1):
        off_block[starts[t] : starts[t + 1], starts[t + 1] : starts[t + 2]] = 0
        off_block[starts[t + 1] : starts[t + 2], starts[t] : starts[t + 1]] = 0
    assert not off_block.any(), "nonzero entries outside adjacent-layer blocks"


def random_blocks(rng, widths, density=0.7):
    """Random nonnegative layer-pair blocks of the given widths."""
    return [
        rng.random((a, b)) * (rng.random((a, b)) < density)
        for a, b in zip(widths, widths[1:])
    ]


def random_layered(rng, widths, density=0.7):
    """A LayeredGraph with random nonnegative blocks of the given widths."""
    return LayeredGraph.from_layers(random_blocks(rng, widths, density))


def path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def triangle_union(n_triangles):
    n = 3 * n_triangles
    a = np.zeros((n, n))
    for t in range(n_triangles):
        for i in range(3):
            for j in range(i + 1, 3):
                a[3 * t + i, 3 * t + j] = a[3 * t + j, 3 * t + i] = 1.0
    return a


# ---------------------------------------------------------------------------
# build_weight_adjacency

def test_build_weight_adjacency_1_2_1():
    weights = [np.array([[2.0], [-3.0]]), np.array([[0.5, 4.0]])]
    a = build_weight_adjacency(weights).dense()
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 2.0
    expected[0, 2] = expected[2, 0] = 3.0
    expected[1, 3] = expected[3, 1] = 0.5
    expected[2, 3] = expected[3, 2] = 4.0
    np.testing.assert_array_equal(a, expected)
    assert_layered_adjacency(a, (1, 2, 1))


def test_build_weight_adjacency_zero_weights():
    weights = [np.zeros((2, 1)), np.zeros((1, 2))]
    a = build_weight_adjacency(weights).dense()
    np.testing.assert_array_equal(a, np.zeros((4, 4)))


def test_build_weight_adjacency_shape_mismatch():
    weights = [np.zeros((2, 1)), np.zeros((1, 3))]
    # block t is weight matrix t transposed
    mismatch = r"block 1 has shape \(3, 1\) but block 0 has shape \(1, 2\)"
    with pytest.raises(ValueError, match=mismatch):
        build_weight_adjacency(weights)
    with pytest.raises(ValueError, match="at least one block"):
        build_weight_adjacency([])


def test_build_weight_adjacency_default_architecture_pattern():
    # node count and sparsity blocks forced by the 784-256x4-10 architecture
    widths = (784, 256, 256, 256, 256, 10)
    rng = np.random.default_rng(0)
    weights = [
        rng.standard_normal((widths[t + 1], widths[t]))
        for t in range(len(widths) - 1)
    ]
    a = build_weight_adjacency(weights).dense()
    assert a.shape == (1818, 1818)
    assert_layered_adjacency(a, widths)
    # construction oracle: every adjacent-layer entry must equal |w|
    starts = layer_offsets(widths)
    for t in range(len(widths) - 1):
        block = a[starts[t] : starts[t + 1], starts[t + 1] : starts[t + 2]]
        np.testing.assert_array_equal(block, np.abs(weights[t]).T)


def test_build_weight_adjacency_invariants_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n_layers = int(rng.integers(2, 5))
        widths = [int(rng.integers(1, 6)) for _ in range(n_layers)]
        weights = [
            rng.standard_normal((widths[t + 1], widths[t]))
            for t in range(n_layers - 1)
        ]
        a = build_weight_adjacency(weights).dense()
        assert_layered_adjacency(a, widths)


# ---------------------------------------------------------------------------
# degree / volume / cut_weight

def test_degree_path_graph():
    a = path_graph(3)
    assert degree(a, 1) == 2.0
    assert degree(a, 0) == 1.0


def test_degree_isolated_node():
    a = np.zeros((3, 3))
    assert degree(a, 2) == 0.0


def test_degree_out_of_range():
    a = path_graph(3)
    with pytest.raises(ValueError, match="out of range"):
        degree(a, 3)
    with pytest.raises(ValueError, match=r"^cluster contains node indices outside 0\.\.2$"):
        volume(a, [0, 3])
    with pytest.raises(ValueError, match=r"^left set contains node indices outside 0\.\.2$"):
        cut_weight(a, [-1], [2])
    with pytest.raises(ValueError, match=r"^right set contains node indices outside 0\.\.2$"):
        cut_weight(a, [0], [3])
    with pytest.raises(ValueError, match=r"^cluster must hold integer node indices, got dtype float64$"):
        volume(a, [1.7])
    with pytest.raises(ValueError, match=r"^left set must hold integer node indices, got dtype float64$"):
        cut_weight(a, {0.0}, [2])
    with pytest.raises(ValueError, match=r"^right set must hold integer node indices, got dtype bool$"):
        cut_weight(a, [0], [True])


def test_degree_matches_row_sum_oracle():
    rng = np.random.default_rng(2)
    a = random_adjacency(rng, 8)
    for i in range(8):
        assert degree(a, i) == pytest.approx(naive_degree(a, i), rel=1e-12)


def test_volume_whole_set_is_twice_total_weight():
    rng = np.random.default_rng(3)
    a = random_adjacency(rng, 7)
    total_weight = np.triu(a).sum()
    assert volume(a, range(7)) == pytest.approx(2 * total_weight, rel=1e-12)


def test_volume_singleton_and_subset():
    rng = np.random.default_rng(4)
    a = random_adjacency(rng, 9)
    assert volume(a, [4]) == pytest.approx(degree(a, 4), rel=1e-12)
    subset = [0, 2, 5, 8]
    assert volume(a, subset) == pytest.approx(naive_volume(a, subset), rel=1e-12)


def test_volume_empty_cluster_rejected():
    a = path_graph(3)
    with pytest.raises(ValueError, match="empty"):
        volume(a, [])


def test_cut_weight_disjoint_components():
    a = triangle_union(2)
    assert cut_weight(a, [0, 1, 2], [3, 4, 5]) == 0.0
    assert cut_weight(a, [], [3, 4, 5]) == 0.0  # an empty side cuts nothing


def test_cut_weight_path_split():
    a = path_graph(4)
    assert cut_weight(a, [0, 1], [2, 3]) == 1.0


def test_cut_weight_full_set_counts_edges_twice():
    rng = np.random.default_rng(5)
    a = random_adjacency(rng, 6)
    nodes = list(range(6))
    assert cut_weight(a, nodes, nodes) == pytest.approx(a.sum(), rel=1e-12)


# ---------------------------------------------------------------------------
# ncut

def test_ncut_disjoint_triangles_is_zero():
    a = triangle_union(2)
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert ncut(a, labels, 2) == 0.0


def test_ncut_path_hand_value():
    a = path_graph(4)
    labels = np.array([0, 0, 1, 1])
    expected = naive_ncut(a, labels, 2)
    assert expected == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert ncut(a, labels, 2) == pytest.approx(expected, rel=1e-12)


def test_ncut_random_three_partition_matches_oracle():
    rng = np.random.default_rng(6)
    a = random_adjacency(rng, 10)
    labels = random_partition(rng, a, 3)
    assert ncut(a, labels, 3) == pytest.approx(naive_ncut(a, labels, 3), rel=1e-12)


def test_ncut_zero_volume_cluster_rejected():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    labels = np.array([0, 0, 1, 1])  # cluster 1 has only isolated nodes
    with pytest.raises(ValueError, match="cluster 1"):
        ncut(a, labels, 2)


def test_ncut_empty_cluster_rejected():
    a = path_graph(4)
    labels = np.array([0, 0, 0, 0])
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        ncut(a, labels, 2)


def test_ncut_matches_oracle_many_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        if k > n:
            continue
        a = random_adjacency(rng, n, density=float(rng.uniform(0.4, 1.0)))
        if a.sum() == 0:
            continue
        try:
            labels = random_partition(rng, a, k)
        except RuntimeError:
            continue
        got = ncut(a, labels, k)
        want = naive_ncut(a, labels, k)
        assert got == pytest.approx(want, rel=1e-10)
        assert 0.0 <= got <= k + 1e-12


def test_ncut_scale_invariance():
    rng = np.random.default_rng(8)
    a = random_adjacency(rng, 9)
    labels = random_partition(rng, a, 3)
    base = ncut(a, labels, 3)
    for c in (1e-6, 0.5, 3.0, 1e6):
        assert ncut(c * a, labels, 3) == pytest.approx(base, rel=1e-10)


def test_ncut_permutation_equivariance():
    rng = np.random.default_rng(9)
    a = random_adjacency(rng, 11)
    labels = random_partition(rng, a, 3)
    base = ncut(a, labels, 3)
    perm = rng.permutation(11)
    permuted = a[np.ix_(perm, perm)]
    assert ncut(permuted, labels[perm], 3) == pytest.approx(base, rel=1e-12)


def test_ncut_zero_iff_no_crossing_edges():
    a = triangle_union(3)
    comp_labels = np.repeat([0, 1, 2], 3)
    assert ncut(a, comp_labels, 3) == 0.0
    # any split that crosses a triangle has positive ncut
    crossing = np.array([0, 1, 1, 2, 2, 2, 0, 0, 0])
    assert ncut(a, crossing, 3) > 0.0



# ---------------------------------------------------------------------------
# LayeredGraph against its dense matrix

# layer counts both odd and even, so the last layer falls on either side
LAYER_WIDTHS = [(3, 5), (4, 3, 6), (5, 3, 4, 3), (3, 6, 1, 5, 3), (7, 4, 4, 4, 4, 3)]


def test_layered_graph_rejects_bad_shapes():
    mismatch = r"block 1 has shape \(3, 2\) but block 0 has shape \(1, 2\)"
    with pytest.raises(ValueError, match=mismatch):
        LayeredGraph.from_layers([np.ones((1, 2)), np.ones((3, 2))])
    with pytest.raises(ValueError, match="at least one block"):
        LayeredGraph.from_layers([])
    with pytest.raises(ValueError, match=r"block 0 has shape \(4,\); a block is 2-D"):
        LayeredGraph.from_layers([np.ones(4)])
    with pytest.raises(ValueError, match=r"block 1 has shape \(2, 0\); a block is 2-D with no"):
        LayeredGraph.from_layers([np.ones((3, 2)), np.ones((2, 0))])
    # the direct constructor: one row per even node, one column per odd node
    even = np.array([True, False, True, False, False])
    with pytest.raises(ValueError, match=r"block has shape \(3, 2\), expected \(2, 3\)"):
        LayeredGraph(even, np.ones((3, 2)))


@pytest.mark.parametrize("widths", LAYER_WIDTHS, ids=str)
def test_layered_graph_matches_dense_oracle(widths):
    rng = np.random.default_rng(len(widths))
    blocks = random_blocks(rng, widths)
    graph = LayeredGraph.from_layers(blocks)
    a = graph.dense()
    assert_layered_adjacency(a, widths)
    starts = layer_offsets(widths)
    for t, block in enumerate(blocks):
        np.testing.assert_array_equal(a[starts[t] : starts[t + 1], starts[t + 1] : starts[t + 2]], block)
    np.testing.assert_allclose(graph.degrees(), [naive_degree(a, i) for i in range(len(a))], rtol=1e-12)
    even = graph.even
    assert even.tolist() == [t % 2 == 0 for t, w in enumerate(widths) for _ in range(w)]
    np.testing.assert_array_equal(graph.block, a[np.ix_(even, ~even)])
    assert not a[np.ix_(even, even)].any() and not a[np.ix_(~even, ~even)].any()


@pytest.mark.parametrize("widths", LAYER_WIDTHS, ids=str)
def test_layered_ncut_matches_dense_oracle(widths):
    rng = np.random.default_rng(10 + len(widths))
    graph = random_layered(rng, widths, density=0.9)
    a = graph.dense()
    for k in (2, 3):
        labels = random_partition(rng, a, k)
        got = ncut(graph, labels, k)
        assert got == pytest.approx(ncut(a, labels, k), rel=1e-10, abs=1e-12)
        assert got == pytest.approx(naive_ncut(a, labels, k), rel=1e-10, abs=1e-12)


def test_layered_ncut_rejects_what_dense_rejects():
    graph = LayeredGraph.from_layers([np.array([[1.0, 0.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="cluster 1 has zero volume"):
        ncut(graph, np.array([0, 1, 0, 1]), 2)
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        ncut(graph, np.array([0, 0, 0, 0]), 2)
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        ncut(graph, np.array([0, 1, 0]), 2)


def test_ncut_rejects_a_label_equal_to_k():
    graph = LayeredGraph.from_layers([np.ones((2, 2))])
    labels = np.array([0, 1, 0, 2])
    for g in (graph, graph.dense()):
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            ncut(g, labels, 2)


def test_ncut_rejects_labels_that_are_not_integers():
    # a label of 0.5 would put node 1 in no cluster and still give a score
    for g in (LayeredGraph.from_layers([np.ones((2, 2))]), path_graph(4)):
        with pytest.raises(ValueError, match=r"^labels must be integers, got dtype float64$"):
            ncut(g, np.array([0, 0.5, 1, 1]), 2)
        with pytest.raises(ValueError, match=r"^labels must be integers, got dtype float64$"):
            ncut(g, np.array([0.0, 0.0, 1.0, 1.0]), 2)


def test_subgraph_matches_dense_oracle_with_a_dead_layer():
    rng = np.random.default_rng(20)
    graph = random_layered(rng, (5, 4, 3, 4, 2))
    keep = rng.random(graph.n_nodes) < 0.7
    keep[9:12] = False  # the whole middle layer
    sub = graph.subgraph(keep)
    assert sub.n_nodes == keep.sum()
    np.testing.assert_array_equal(sub.dense(), graph.dense()[np.ix_(keep, keep)])
    # the parity of the nodes left does not change with the dead layer gone
    np.testing.assert_array_equal(sub.even, graph.even[keep])
    assert graph.subgraph(np.ones(graph.n_nodes, dtype=bool)) is graph
