import math

import numpy as np
import pytest

import mlpmod.mlp
from mlpmod import correlation
from mlpmod.correlation import spearman, standardize_rank_rows
from mlpmod.data import load_dataset
from mlpmod.graph import build_weight_adjacency
from mlpmod.mlp import (
    DEFAULT_LAYER_WIDTHS,
    MlpArchitecture,
    evaluate_accuracy,
    forward,
    init_model,
    logit_accuracy,
)

from spearman_oracle import build_correlation_adjacency, record_activations
from test_graph import assert_layered_adjacency, layer_offsets


def split_layers(table, widths):
    """The per-layer row views of a neuron-major activation table."""
    return np.split(table, np.cumsum(widths)[:-1])


# ---------------------------------------------------------------------------
# naive reference: sorted-scan ranking, explicit Pearson

def naive_ranks(values):
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mean_rank
        i = j + 1
    return ranks


def naive_spearman(x, y):
    rx = naive_ranks(list(x))
    ry = naive_ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


# oracle of standardize_rank_rows: rank every row with rank_transform, then
# center and normalize in float64 over the whole table

def rank_transform(values):
    """Ascending 1-based ranks; tied values share the mean of their ranks.

    The ranks of any length-m vector sum to m(m+1)/2 regardless of ties.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("rank_transform needs a 1-D vector of length >= 2")
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # group boundaries between runs of equal values
    is_start = np.empty(x.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_x[1:], sorted_x[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], x.size)
    mean_ranks = (starts + ends + 1) / 2.0  # ranks are 1-based
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(mean_ranks, ends - starts)
    return ranks


def rank_rows(table):
    """Row-wise :func:`rank_transform` of an (n, m) table."""
    return np.array([rank_transform(row) for row in np.asarray(table, dtype=np.float64)])


def reference_standardized_rank_rows(table):
    ranks = rank_rows(table)
    ranks -= ranks.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(ranks, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    ranks /= norms
    return ranks


# ---------------------------------------------------------------------------
# rank_transform

def test_rank_simple_ascending():
    np.testing.assert_array_equal(rank_transform([10.0, 20.0, 30.0]), [1, 2, 3])


def test_rank_tie_convention():
    np.testing.assert_array_equal(rank_transform([5.0, 5.0, 1.0]), [2.5, 2.5, 1.0])


def test_rank_sum_identity_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        x = rng.integers(0, 5, size=m).astype(float)  # heavy ties
        ranks = rank_transform(x)
        assert ranks.sum() == pytest.approx(m * (m + 1) / 2, abs=1e-6)
        np.testing.assert_allclose(ranks, naive_ranks(x.tolist()), atol=1e-12)


def test_rank_requires_length_two():
    with pytest.raises(ValueError):
        rank_transform([1.0])


def test_rank_rows_matches_per_row():
    rng = np.random.default_rng(1)
    table = rng.integers(0, 4, size=(6, 15)).astype(float)
    ranked = rank_rows(table)
    for i in range(6):
        np.testing.assert_array_equal(ranked[i], naive_ranks(table[i].tolist()))


# ---------------------------------------------------------------------------
# spearman

def test_monotone_map_gives_one():
    x = np.array([0.3, 1.2, 2.0, 5.5, 9.0])
    assert spearman(x, x**3) == pytest.approx(1.0, abs=1e-12)


def test_worked_example_with_tie():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([5.0, 6.0, 7.0, 8.0, 7.0])
    expected = 8.0 / math.sqrt(95.0)
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
    assert naive_spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_constant_vector_convention():
    x = np.full(6, 3.25)
    y = np.arange(6.0)
    assert spearman(x, y) == 0.0
    assert spearman(y, x) == 0.0


def test_symmetry_and_self_correlation():
    rng = np.random.default_rng(2)
    x = rng.random(20)
    y = rng.random(20)
    assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)


def test_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        spearman(np.arange(3.0), np.arange(4.0))


def test_invariance_under_increasing_transforms():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, y**3) == pytest.approx(base, abs=1e-12)


def test_matches_naive_reference_many_pairs():
    rng = np.random.default_rng(4)
    for trial in range(300):
        m = int(rng.integers(2, 25))
        if trial % 3 == 0:
            x = rng.integers(0, 4, size=m).astype(float)  # ties
            y = rng.integers(0, 4, size=m).astype(float)
        elif trial % 7 == 0:
            x = np.full(m, float(rng.integers(0, 3)))  # constant
            y = rng.standard_normal(m)
        else:
            x = rng.standard_normal(m)
            y = rng.standard_normal(m)
        got = spearman(x, y)
        want = naive_spearman(x, y)
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# correlation adjacency

def test_dead_unit_gives_zero_edges():
    # rows: input, two hidden, output; hidden row 1 is a dead unit
    table = np.array(
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.5, 0.7, 0.2, 0.9],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0, 4.0],
        ]
    )
    a = build_correlation_adjacency(split_layers(table, (1, 2, 1))).dense()
    assert a[0, 2] == 0.0
    assert a[2, 3] == 0.0
    assert a[0, 1] != 0.0


def test_duplicate_columns_give_weight_one():
    rng = np.random.default_rng(5)
    col = rng.random(10)
    table = np.stack([col, col, rng.random(10)])
    a = build_correlation_adjacency(split_layers(table, (1, 1, 1))).dense()
    assert a[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_adjacency_matches_per_edge_oracle():
    rng = np.random.default_rng(6)
    widths = (2, 3, 2)
    table = rng.integers(0, 6, size=(7, 12)).astype(float)
    a = build_correlation_adjacency(split_layers(table.copy(), widths)).dense()
    assert_layered_adjacency(a, widths)
    starts = [0, 2, 5, 7]
    for layer in range(2):
        for i in range(starts[layer], starts[layer + 1]):
            for j in range(starts[layer + 1], starts[layer + 2]):
                want = abs(naive_spearman(table[i], table[j]))
                assert a[i, j] == pytest.approx(want, abs=1e-12)
                assert a[j, i] == a[i, j]


def test_same_sparsity_pattern_as_weight_adjacency():
    rng = np.random.default_rng(7)
    widths = (3, 4, 2)
    weights = [rng.standard_normal((4, 3)), rng.standard_normal((2, 4))]
    w_adj = build_weight_adjacency(weights).dense()
    table = rng.standard_normal((9, 9))
    c_adj = build_correlation_adjacency(split_layers(table, widths)).dense()
    # identical allowed blocks: wherever one can be nonzero, so can the other
    np.testing.assert_array_equal(w_adj == 0, np.where(c_adj == 0, True, False) | (w_adj == 0))
    assert_layered_adjacency(c_adj, widths)


def test_table_size_must_match_architecture():
    with pytest.raises(ValueError, match="layer 1 has 5 recorded examples, layer 0 has 6"):
        build_correlation_adjacency([np.zeros((1, 6)), np.zeros((2, 5))])
    with pytest.raises(ValueError, match="at least two layers of activations, got 1"):
        build_correlation_adjacency([np.zeros((4, 6))])
    with pytest.raises(ValueError, match="two recorded"):
        build_correlation_adjacency(split_layers(np.zeros((4, 1)), (1, 2, 1)))


@pytest.mark.parametrize("last", [
    np.zeros((2, 9), dtype=np.float32),
    np.zeros((2, 8)),
], ids=["float32", "other-m"])
def test_every_layer_is_checked_before_any_is_ranked(last):
    first = np.random.default_rng(13).standard_normal((3, 9))
    before = first.tobytes()
    with pytest.raises(ValueError, match="layer 2"):
        build_correlation_adjacency([first, np.ones((4, 9)), last])
    assert first.tobytes() == before


def test_adjacency_ranks_a_float64_table_in_place():
    rng = np.random.default_rng(12)
    table = rng.standard_normal((7, 9))
    expected = reference_standardized_rank_rows(table)
    fortran = np.asfortranarray(table)
    from_fortran = build_correlation_adjacency(split_layers(fortran, (2, 3, 2)))
    assert fortran.tobytes() == expected.tobytes()  # any layout is ranked in place
    in_place = build_correlation_adjacency(split_layers(table, (2, 3, 2)))
    assert table.tobytes() == expected.tobytes()
    assert in_place.dense().tobytes() == from_fortran.dense().tobytes()
    single = rng.standard_normal((7, 9)).astype(np.float32)
    with pytest.raises(ValueError, match="float64"):
        build_correlation_adjacency(split_layers(single, (2, 3, 2)))


def test_standardized_rows_unit_norm_or_zero():
    rng = np.random.default_rng(8)
    table = rng.integers(0, 3, size=(5, 20)).astype(float)
    table[2] = 7.0  # constant
    standardize_rank_rows(table)
    norms = np.linalg.norm(table, axis=1)
    assert norms[2] == 0.0
    for i in (0, 1, 3, 4):
        assert norms[i] == pytest.approx(1.0, abs=1e-12)


def _ranking_tables():
    """(examples, neurons) tables; the tests rank their neuron-major
    transposes."""
    rng = np.random.default_rng(10)
    constant = rng.integers(-2, 3, size=(30, 6)).astype(float)
    constant[:, 1] = 0.0
    constant[:, 4] = 7.5
    return {
        "continuous": rng.standard_normal((300, 130)),
        "integer ties": rng.integers(0, 4, size=(500, 70)).astype(float),
        "relu zeros": np.maximum(rng.standard_normal((400, 66)), 0.0),
        "signed zeros": rng.choice([-2.5, -1.0, -0.0, 0.0, 0.0, 3.0], size=(60, 12)),
        "constant columns": constant,
        "two rows": np.array([[0.0, 1.0, -0.0, 2.0, 5.0], [0.0, 1.0, 0.0, -1.0, 5.0]]),
    }


@pytest.mark.parametrize("kind", list(_ranking_tables()))
def test_standardized_ranks_equal_oracle_bit_for_bit(kind):
    table = np.ascontiguousarray(_ranking_tables()[kind].T)
    want = reference_standardized_rank_rows(table)
    standardize_rank_rows(table)
    assert np.array_equal(table, want)
    assert table.tobytes() == want.tobytes()  # same signs of zero, too


def test_standardized_ranks_equal_oracle_on_small_random_tables():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        scale = rng.choice([1.0, -0.0, 0.0, 0.5], size=(m, n))
        table = np.ascontiguousarray((rng.integers(-3, 4, size=(m, n)) * scale).T)
        want = reference_standardized_rank_rows(table)
        standardize_rank_rows(table)
        assert np.array_equal(table, want)


def test_standardized_ranks_equal_oracle_with_a_large_tie_group_beside_the_zeros():
    # tie groups of 1200 equal values just below and just above a run of
    # signed zeros: t^3 reaches 1.7e9 in the integer tie sum, and every group
    # after the zero run is shifted past it
    rng = np.random.default_rng(12)
    parts = [np.full(1200, -0.25), np.full(150, -0.0), np.zeros(150), np.full(1200, 0.75),
             rng.standard_normal(300), rng.integers(-3, 4, size=200).astype(float)]
    row = np.concatenate(parts)
    table = np.stack([rng.permutation(row), rng.permutation(-row), rng.permutation(row)])
    table[2, table[2] == 0.75] = 0.0  # the upper tie group joins the zero run
    want = reference_standardized_rank_rows(table)
    standardize_rank_rows(table)
    assert table.tobytes() == want.tobytes()


def test_standardized_ranks_reject_bad_tables():
    with pytest.raises(ValueError, match="m >= 2"):
        standardize_rank_rows(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="float64"):
        standardize_rank_rows(np.zeros((3, 4), dtype=np.int64))


def test_adjacency_of_recorded_activations_matches_oracle(smoke_data_dir):
    model = init_model(MlpArchitecture(), np.random.default_rng(0))
    layers = record_activations(model, load_dataset("smoke", smoke_data_dir)["test"].images)
    table = np.concatenate(layers)
    assert np.any(table[784:] == 0.0)  # relu zeros tie in the hidden rows
    z = reference_standardized_rank_rows(table)
    starts = layer_offsets(DEFAULT_LAYER_WIDTHS)
    want = np.zeros((starts[-1], starts[-1]))
    for a, b, c in zip(starts, starts[1:], starts[2:]):
        want[a:b, b:c] = np.abs(z[a:b] @ z[b:c].T)
        want[b:c, a:b] = want[a:b, b:c].T
    got = build_correlation_adjacency(layers).dense()
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the layer-by-layer builder against record-then-build

def _builder_case(activation, dtype, m, widths=(20, 12, 8, 4), seed=30):
    model = init_model(
        MlpArchitecture(layer_widths=widths, activation=activation), np.random.default_rng(seed)
    )
    rng = np.random.default_rng(seed + 1)
    if dtype == "uint8":
        images = rng.integers(0, 256, size=(m, widths[0]), dtype=np.uint8)
        images[:, 3] = 0  # a dead pixel: a constant input row
    else:
        images = rng.standard_normal((m, widths[0]))
    return model, images, rng.integers(0, widths[-1], size=m)


def _assert_builder_equals_oracle(model, images, labels):
    graph, logits = correlation.build_correlation_adjacency(model, images)
    layers = record_activations(model, images)
    want_logits = layers[-1].T.copy()
    assert graph.block.tobytes() == build_correlation_adjacency(layers).block.tobytes()
    assert logits.tobytes() == want_logits.tobytes()
    batch = mlpmod.mlp.EVAL_BATCH
    chunked = [forward(model, images[s : s + batch]) for s in range(0, len(images), batch)]
    assert logits.tobytes() == np.concatenate(chunked).tobytes()
    assert logit_accuracy(logits, labels) == evaluate_accuracy(model, images, labels)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("dtype", ["uint8", "float64"])
@pytest.mark.parametrize("m", [2, 16, 37])
def test_builder_gives_the_bits_of_record_then_build(activation, dtype, m, monkeypatch):
    # 16-example chunks: one short chunk, one full one, and 37 = 2 * 16 + 5
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 16)
    _assert_builder_equals_oracle(*_builder_case(activation, dtype, m))


@pytest.mark.slow
def test_builder_gives_the_bits_of_record_then_build_at_full_shape():
    # 10000 = 19 * 512 + 272 test images: the last chunk is short
    _assert_builder_equals_oracle(*_builder_case("relu", "uint8", 10000, DEFAULT_LAYER_WIDTHS))


def test_builder_reads_eval_batch_at_call_time_and_scales_images_per_chunk(monkeypatch):
    model, images, _ = _builder_case("relu", "uint8", 10)
    seen = []
    check_batch = mlpmod.mlp._check_batch

    def recording_check_batch(model, inputs):
        seen.append(len(inputs))
        return check_batch(model, inputs)

    monkeypatch.setattr(mlpmod.mlp, "_check_batch", recording_check_batch)
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 4)
    correlation.build_correlation_adjacency(model, images)
    # 4-image chunks for the input layer, and again for the first hidden layer
    assert seen == [4, 4, 2, 4, 4, 2]


def test_builder_checks_the_batch_width_before_the_count():
    model = init_model(MlpArchitecture(layer_widths=(5, 3, 2)), np.random.default_rng(0))
    for m in (0, 1, 4):
        with pytest.raises(ValueError, match=r"^batch must have shape \(m, 5\), got \(%d, 6\)$" % m):
            correlation.build_correlation_adjacency(model, np.zeros((m, 6)))
    for m in (0, 1):
        with pytest.raises(ValueError, match="^need at least two recorded examples$"):
            correlation.build_correlation_adjacency(model, np.zeros((m, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match="^batch contains non-finite values$"):
        correlation.build_correlation_adjacency(model, np.full((3, 5), np.nan))
