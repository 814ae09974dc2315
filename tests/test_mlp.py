import hashlib

import numpy as np
import pytest

import mlpmod.mlp
from mlpmod.checkpoint import load_checkpoint, save_checkpoint
from mlpmod.correlation import build_correlation_adjacency
from mlpmod.data import LabeledImageSet
from mlpmod.graph import LayeredGraph
from mlpmod.mlp import (
    _activate,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    LEARNING_RATE,
    AdamState,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    evaluate_accuracy,
    forward,
    logit_accuracy,
    init_model,
    loss_and_gradients,
    sample_dropout_masks,
    softmax_cross_entropy,
    train,
)
from mlpmod.spectral import ClusteringResult

from spearman_oracle import record_activations


# ---------------------------------------------------------------------------
# textbook references the fast paths are checked against

def reference_logistic(z):
    """Stable logistic by masked gather/scatter, one branch per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_softmax_cross_entropy(logits, labels):
    """Softmax cross-entropy written out: probabilities and the log-normalizer
    from two sums of the exponentials, the gradient from a copy."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_norm = np.log(exp.sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(m), labels]))
    grad = probs.copy()
    grad[np.arange(m), labels] -= 1.0
    return loss, grad / m


def reference_adam_step(params, grads, m_list, v_list, t, lr=1e-3, beta1=0.9,
                        beta2=0.999, eps=1e-8):
    """Per-tensor Adam with explicit bias-corrected moments; ``t`` is the
    1-based step number."""
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def whole_array_adam_step(params, grads, m, v, scratch, t):
    """The 12 in-place passes of ``adam_step`` over whole buffers, the form
    it ran before it stepped in blocks; ``t`` is the 1-based step number."""
    root_correction2 = np.sqrt(1 - ADAM_BETA2**t)
    alpha_t = LEARNING_RATE * root_correction2 / (1 - ADAM_BETA1**t)
    eps_hat = ADAM_EPS * root_correction2
    g, s = grads, scratch
    m *= ADAM_BETA1
    np.multiply(g, 1 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=s)
    s *= g
    v += s
    np.sqrt(v, out=s)
    s += eps_hat
    np.divide(m, s, out=s)
    s *= alpha_t
    params -= s


def make_model(widths, activation="relu", dropout=0.0, seed=0, bias_jitter=0.0):
    arch = MlpArchitecture(
        layer_widths=widths, activation=activation, dropout_rate=dropout
    )
    model = init_model(arch, np.random.default_rng(seed))
    if bias_jitter:
        # keeps relu pre-activations away from the kink during finite differences
        rng = np.random.default_rng(seed + 1000)
        for b in model.biases:
            b += rng.uniform(0.05, 0.15, size=b.shape) * rng.choice([-1.0, 1.0], size=b.shape)
    return model


def flatten_params(model):
    return model.weights + model.biases


def finite_difference_gradients(model, x, y, masks=None, step=1e-5):
    """Central differences through the full loss, one parameter at a time."""
    grads = []
    for param in flatten_params(model):
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + step
            up, _, _ = loss_and_gradients(model, x, y, dropout_masks=masks)
            param[idx] = original - step
            down, _, _ = loss_and_gradients(model, x, y, dropout_masks=masks)
            param[idx] = original
            g[idx] = (up - down) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def assert_gradients_close(analytic, numeric, rel=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        assert np.max(np.abs(a - n) / denom) < rel


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_model_gives_zero_logits():
    model = make_model((3, 4, 2))
    for w in model.weights:
        w[:] = 0.0
    x = np.random.default_rng(0).random((5, 3))
    np.testing.assert_array_equal(forward(model, x), np.zeros((5, 2)))


def test_forward_single_connection_hand_value():
    model = make_model((1, 1))
    model.weights[0][:] = 2.0
    model.biases[0][:] = 1.0
    logits = forward(model, np.array([[-5.0]]))
    assert logits[0, 0] == pytest.approx(-9.0, abs=1e-15)


def test_forward_dropout_is_identity_at_eval():
    base = make_model((4, 6, 6, 3), activation="sigmoid", seed=1)
    dropped = make_model((4, 6, 6, 3), activation="sigmoid", dropout=0.5, seed=1)
    for w_a, w_b in zip(base.weights, dropped.weights):
        np.testing.assert_array_equal(w_a, w_b)
    x = np.random.default_rng(2).random((7, 4))
    np.testing.assert_array_equal(forward(base, x), forward(dropped, x))


def test_forward_rejects_bad_batches():
    model = make_model((4, 6, 3))
    with pytest.raises(ValueError, match="shape"):
        forward(model, np.zeros((2, 5)))
    bad = np.zeros((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        forward(model, bad)


def test_logistic_matches_masked_reference():
    z = np.linspace(-700.0, 700.0, 1_400_001)
    with np.errstate(all="raise"):
        expected = reference_logistic(z)
        got = _activate(z.copy(), "sigmoid")
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    # saturated units tie exactly as often, so Spearman ranks do not move
    assert z.size - np.unique(got).size == z.size - np.unique(expected).size


def test_activation_ranges():
    rng = np.random.default_rng(3)
    x = rng.random((20, 5))
    relu_model = make_model((5, 8, 8, 4), activation="relu", seed=4)
    hidden = np.concatenate(record_activations(relu_model, x))[5:21]
    assert np.all(hidden >= 0.0)
    sig_model = make_model((5, 8, 8, 4), activation="sigmoid", seed=4)
    hidden = np.concatenate(record_activations(sig_model, x))[5:21]
    assert np.all((hidden > 0.0) & (hidden < 1.0))


# ---------------------------------------------------------------------------
# loss

def test_uniform_logits_loss_is_log_n_classes():
    model = make_model((6, 10))
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    x = np.random.default_rng(5).random((8, 6))
    y = np.random.default_rng(6).integers(0, 10, size=8)
    loss, _, _ = loss_and_gradients(model, x, y)
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)


def test_confident_correct_prediction_loss_near_zero():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 50.0
    loss, _ = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_softmax_cross_entropy_gives_the_bits_of_the_reference():
    rng = np.random.default_rng(9)
    for m, n_classes, scale in [(1, 2, 1.0), (128, 10, 3.0), (77, 10, 300.0), (512, 13, 1e-3)]:
        logits = rng.normal(scale=scale, size=(m, n_classes))
        labels = rng.integers(0, n_classes, size=m)
        loss, grad = softmax_cross_entropy(logits, labels)
        want_loss, want_grad = reference_softmax_cross_entropy(logits, labels)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


def test_labels_validated():
    model = make_model((4, 3))
    x = np.zeros((2, 4))
    with pytest.raises(ValueError, match="labels"):
        loss_and_gradients(model, x, np.array([0, 3]))
    with pytest.raises(ValueError, match=r"labels must have shape \(2,\), got \(2, 1\)"):
        loss_and_gradients(model, x, np.array([[0], [1]]))


# ---------------------------------------------------------------------------
# gradient checks

@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_gradients_match_finite_differences_eval(activation):
    model = make_model((6, 4, 3), activation=activation, seed=7, bias_jitter=0.1)
    rng = np.random.default_rng(8)
    x = rng.random((10, 6))
    y = rng.integers(0, 3, size=10)
    _, grads_w, grads_b = loss_and_gradients(model, x, y)
    numeric = finite_difference_gradients(model, x, y)
    assert_gradients_close(grads_w + grads_b, numeric)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_gradients_match_finite_differences_pinned_dropout(activation):
    model = make_model(
        (5, 4, 4, 3), activation=activation, dropout=0.5, seed=9, bias_jitter=0.1
    )
    rng = np.random.default_rng(10)
    x = rng.random((6, 5))
    y = rng.integers(0, 3, size=6)
    masks = sample_dropout_masks(model.architecture, 6, np.random.default_rng(11))
    loss, grads_w, grads_b = loss_and_gradients(
        model, x, y, dropout_masks=masks
    )
    numeric = finite_difference_gradients(model, x, y, masks=masks)
    assert_gradients_close(grads_w + grads_b, numeric)
    # same masks give the same loss; dropout is mask-determined
    loss2, _, _ = loss_and_gradients(model, x, y, dropout_masks=masks)
    assert loss == loss2


def test_gradients_fill_supplied_buffers():
    model = make_model((5, 4, 4, 3), activation="sigmoid", dropout=0.5, seed=24)
    rng = np.random.default_rng(25)
    x = rng.random((6, 5))
    y = rng.integers(0, 3, size=6)
    masks = sample_dropout_masks(model.architecture, 6, np.random.default_rng(26))
    loss, grads_w, grads_b = loss_and_gradients(
        model, x, y, dropout_masks=masks
    )
    out = np.full_like(model.params, np.nan)
    loss_out, out_w, out_b = loss_and_gradients(
        model, x, y, dropout_masks=masks, out=out
    )
    assert loss_out == loss
    assert all(np.shares_memory(a, out) for a in out_w + out_b)
    assert np.isfinite(out).all()  # every element written
    for a, b in zip(grads_w + grads_b, out_w + out_b):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_leaves_parameters():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.for_params(params)
    for _ in range(50):
        adam_step(params, np.zeros(3), state)
    np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])


def test_adam_first_step_magnitude():
    lr = LEARNING_RATE
    params = np.array([0.0])
    state = AdamState.for_params(params)
    adam_step(params, np.array([1.0]), state)
    # bias correction makes the first update -lr * 1/(1 + eps) ~ -lr
    assert params[0] == pytest.approx(-lr, rel=1e-6)


def test_adam_descends_quadratic(monkeypatch):
    monkeypatch.setattr(mlpmod.mlp, "LEARNING_RATE", 0.05)
    params = np.array([1.0])
    state = AdamState.for_params(params)
    values = []
    for _ in range(100):
        x = params[0]
        values.append(x * x)
        adam_step(params, np.array([2.0 * x]), state)
    assert values[-1] < values[0]
    assert params[0] ** 2 < 0.1


def test_adam_matches_textbook_reference_over_flat_buffer():
    rng = np.random.default_rng(30)
    shapes = [(7, 5), (7,), (3, 7), (3,)]
    ref_params = [rng.standard_normal(s) for s in shapes]
    flat = np.concatenate([p.ravel() for p in ref_params])
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = AdamState.for_params(flat)
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    for step in range(1, 301):
        # gradients spanning several magnitudes, some exactly zero
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        grads[1][0] = 0.0
        reference_adam_step(ref_params, grads, ref_m, ref_v, step, lr=LEARNING_RATE)
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state)
    assert state.t == 300
    for i, p in enumerate(ref_params):
        np.testing.assert_allclose(
            flat[bounds[i] : bounds[i + 1]], p.ravel(), rtol=1e-12, atol=0.0
        )


def test_blocked_adam_matches_whole_array_form_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 3 * ADAM_BLOCK + 17  # three whole blocks and a partial one
    params = rng.standard_normal(n)
    ref_params, ref_m, ref_v, ref_scratch = params.copy(), np.zeros(n), np.zeros(n), np.empty(n)
    state = AdamState.for_params(params)
    assert state.scratch.size == ADAM_BLOCK
    for step in range(1, 26):
        # gradients spanning several magnitudes, some exactly zero
        grads = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
        grads[rng.random(n) < 0.05] = 0.0
        whole_array_adam_step(ref_params, grads, ref_m, ref_v, ref_scratch, step)
        adam_step(params, grads, state)
    np.testing.assert_array_equal(params, ref_params)
    np.testing.assert_array_equal(state.m, ref_m)
    np.testing.assert_array_equal(state.v, ref_v)


def test_adam_shape_mismatch():
    params = np.zeros(3)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(4), AdamState.for_params(params))
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(3), AdamState.for_params(np.zeros(4)))


def test_records_that_hold_arrays_compare_by_identity():
    """A generated ``==`` would compare the arrays elementwise and raise,
    and a generated ``hash`` would hash them, so these records use
    ``object``'s identity comparison and hash."""
    arch = MlpArchitecture(layer_widths=(4, 3, 2))
    builders = [
        lambda: init_model(arch, np.random.default_rng(0)),
        lambda: AdamState.for_params(np.zeros(5)),
        lambda: LabeledImageSet(np.zeros((2, 4)), np.zeros(2, dtype=np.int64), "test"),
        lambda: ClusteringResult(labels=np.array([0, 1, -1]), ncut_value=0.5, kmeans_cost=0.1),
        lambda: LayeredGraph.from_layers([np.ones((2, 3))]),
    ]
    for build in builders:
        a, b = build(), build()
        assert (a == b) is False and a == a
        assert len({a, b}) == 2


# ---------------------------------------------------------------------------
# training

def separable_dataset(n=400, seed=0):
    """Two linearly separable classes inside [0, 1] feature space."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.random((n, 4)) * 0.3
    x[half:, 0] += 0.7  # class decided by feature 0
    y = np.array([0] * half + [1] * half)
    order = rng.permutation(n)
    x, y = x[order], y[order]
    split = LabeledImageSet(images=x, labels=y, split="train")
    return {"train": split, "test": split}


def test_train_separable_toy_reaches_99_percent():
    dataset = separable_dataset()
    arch = MlpArchitecture(layer_widths=(4, 8, 2), activation="relu")
    cfg = TrainConfig(epochs=80, rng_seed=0)
    model = train(dataset["train"], arch, cfg)
    assert evaluate_accuracy(model, dataset["test"].images, dataset["test"].labels) >= 0.99
    for w in model.weights:
        assert np.all(np.isfinite(w))


def test_train_deterministic_same_seed():
    dataset = separable_dataset(n=120, seed=1)
    arch = MlpArchitecture(layer_widths=(4, 6, 2), activation="sigmoid", dropout_rate=0.5)
    cfg = TrainConfig(epochs=2, rng_seed=42)
    model_a = train(dataset["train"], arch, cfg)
    model_b = train(dataset["train"], arch, cfg)
    for w_a, w_b in zip(model_a.weights, model_b.weights):
        np.testing.assert_array_equal(w_a, w_b)
    for b_a, b_b in zip(model_a.biases, model_b.biases):
        np.testing.assert_array_equal(b_a, b_b)


def test_trained_model_views_round_trip_bit_exact(tmp_path):
    dataset = separable_dataset(n=120, seed=4)
    arch = MlpArchitecture(layer_widths=(4, 5, 3, 2), activation="relu")
    model = train(dataset["train"], arch, TrainConfig(epochs=2, rng_seed=6))
    params = model.weights + model.biases
    # one shared parameter buffer behind every weight and bias
    buffer = params[0].base
    assert buffer is not None and all(p.base is buffer for p in params)
    path = tmp_path / "trained.mlpc"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(params, loaded.weights + loaded.biases):
        np.testing.assert_array_equal(a, b)
    save_checkpoint(loaded, tmp_path / "again.mlpc")
    assert (tmp_path / "again.mlpc").read_bytes() == path.read_bytes()


def test_train_divergence_detected(monkeypatch):
    monkeypatch.setattr(mlpmod.mlp, "LEARNING_RATE", 1e200)
    dataset = separable_dataset(n=64, seed=2)
    # two hidden layers so an absurd step overflows the forward products
    arch = MlpArchitecture(layer_widths=(4, 8, 8, 2), activation="relu")
    cfg = TrainConfig(epochs=3, rng_seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
        train(dataset["train"], arch, cfg)


@pytest.mark.parametrize("activation, dropout", [("relu", 0.0), ("sigmoid", 0.5)])
def test_uint8_pixels_give_the_bits_of_their_scaled_floats(activation, dropout, monkeypatch):
    # several evaluation batches, the last one partial
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 128)
    rng = np.random.default_rng(40)
    pixels = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
    floats = pixels.astype(np.float64) / 255.0
    labels = rng.integers(0, 10, size=300)
    arch = MlpArchitecture(
        layer_widths=(784, 32, 16, 10), activation=activation, dropout_rate=dropout
    )
    cfg = TrainConfig(epochs=2, rng_seed=3)
    model, float_model = (
        train(LabeledImageSet(images=x, labels=labels, split="train"), arch, cfg)
        for x in (pixels, floats)
    )
    assert model.params.tobytes() == float_model.params.tobytes()
    table = np.concatenate(record_activations(model, pixels))
    np.testing.assert_array_equal(table, np.concatenate(record_activations(model, floats)))
    np.testing.assert_array_equal(table[:784], floats.T)
    assert evaluate_accuracy(model, pixels, labels) == evaluate_accuracy(model, floats, labels)


def test_evaluate_accuracy_counts_argmax_hits():
    model = make_model((3, 2))
    model.weights[0][:] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.1, 0.0]])
    labels = np.array([0, 1, 1])
    assert evaluate_accuracy(model, x, labels) == pytest.approx(2 / 3)


def test_recorded_logits_give_evaluate_accuracy():
    # several batches of EVAL_BATCH examples
    rng = np.random.default_rng(12)
    model = init_model(MlpArchitecture(layer_widths=(20, 16, 16, 4)), np.random.default_rng(0))
    x = rng.random((4500, 20))
    labels = rng.integers(0, 4, size=4500)
    logits = np.concatenate(record_activations(model, x))[-4:].T
    np.testing.assert_array_equal(logits, forward(model, x))
    assert logit_accuracy(logits, labels) == evaluate_accuracy(model, x, labels)


def test_accuracy_rejects_labels_of_the_wrong_length():
    # one label for three rows would broadcast and score 1.0
    model = make_model((3, 2))
    x = np.zeros((3, 3))
    with pytest.raises(ValueError, match=r"^labels must have shape \(3,\), got \(1,\)$"):
        logit_accuracy(np.zeros((3, 10)), np.array([0]))
    with pytest.raises(ValueError, match=r"^labels must have shape \(3,\), got \(1,\)$"):
        evaluate_accuracy(model, x, np.array([0]))
    with pytest.raises(ValueError, match=r"^labels must have shape \(3,\), got \(3, 1\)$"):
        logit_accuracy(np.zeros((3, 10)), np.zeros((3, 1), dtype=np.int64))


def test_accuracy_refuses_an_empty_example_set():
    # unrefused, no rows would score nan or leave no chunk to concatenate
    model = make_model((4, 3))
    no_labels = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^no examples to score$"):
        logit_accuracy(np.zeros((0, 3)), no_labels)
    with pytest.raises(ValueError, match="^no examples to score$"):
        evaluate_accuracy(model, np.zeros((0, 4)), no_labels)
    # a batch of the wrong width is still named first
    with pytest.raises(ValueError, match=r"^batch must have shape \(m, 4\), got \(0, 5\)$"):
        evaluate_accuracy(model, np.zeros((0, 5)), no_labels)


# ---------------------------------------------------------------------------
# activation recording

def test_recorded_inputs_are_verbatim():
    model = make_model((5, 4, 3), seed=12)
    rng = np.random.default_rng(13)
    x = rng.random((9, 5))
    layers = record_activations(model, x)
    assert [a.shape for a in layers] == [(5, 9), (4, 9), (3, 9)]
    np.testing.assert_array_equal(layers[0], x.T)


def test_recorded_layers_are_views_of_one_c_order_table():
    model = make_model((5, 4, 6, 3), seed=12)
    x = np.random.default_rng(13).random((9, 5))
    layers = record_activations(model, x)
    assert [a.shape for a in layers] == [(5, 9), (4, 9), (6, 9), (3, 9)]
    table = layers[0].base
    assert table.shape == (18, 9) and table.flags.c_contiguous
    assert all(a.base is table and np.shares_memory(a, table) for a in layers)
    assert all(a.flags.c_contiguous for a in layers)  # each neuron's row is contiguous
    (w0, w1, _), (b0, b1, _) = model.weights, model.biases
    h1 = np.maximum(x @ w0.T + b0, 0.0)
    h2 = np.maximum(h1 @ w1.T + b1, 0.0)
    expected = np.concatenate([x.T, h1.T, h2.T, forward(model, x).T])
    assert np.concatenate(layers).tobytes() == expected.tobytes() == table.tobytes()


def test_recorded_hidden_nonnegative_for_relu():
    model = make_model((5, 6, 3), activation="relu", seed=14)
    x = np.random.default_rng(15).random((11, 5))
    table = np.concatenate(record_activations(model, x))
    assert np.all(table[5:11] >= 0.0)


def test_recorded_outputs_are_logits():
    model = make_model((5, 6, 3), activation="sigmoid", seed=16)
    x = np.random.default_rng(17).random((4, 5))
    table = np.concatenate(record_activations(model, x))
    np.testing.assert_array_equal(table[-3:], forward(model, x).T)


def test_constant_input_column_records_constant():
    model = make_model((5, 4, 3), seed=18)
    x = np.random.default_rng(19).random((8, 5))
    x[:, 2] = 0.0  # a dead pixel
    table = np.concatenate(record_activations(model, x))
    np.testing.assert_array_equal(table[2], np.zeros(8))


def test_eval_forward_is_pure():
    model = make_model((5, 4, 3), dropout=0.5, seed=20)
    x = np.random.default_rng(21).random((6, 5))
    np.testing.assert_array_equal(forward(model, x), forward(model, x))


def test_record_activations_batched_matches_single_pass(monkeypatch):
    model = make_model((5, 4, 3), seed=22)
    x = np.random.default_rng(23).random((10, 5))
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 3)
    batched = np.concatenate(record_activations(model, x))
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 100)
    # BLAS blocking differs with batch shape, so equality is up to rounding
    single = np.concatenate(record_activations(model, x))
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_eval_batch_gives_the_bits_of_2048_example_chunks(activation, monkeypatch):
    # the real split size and shape: 10000 = 19 * 512 + 272, so the last
    # chunk is short; 384 (a 16-row last chunk) changes bits here
    assert mlpmod.mlp.EVAL_BATCH == 512
    rng = np.random.default_rng(41)
    images = rng.integers(0, 256, size=(10000, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10000)
    model = init_model(MlpArchitecture(activation=activation), np.random.default_rng(42))

    def outputs():
        """Digests of the graph, the logits and the oracle's activation
        table, and the accuracy, at the EVAL_BATCH in effect."""
        graph, logits = build_correlation_adjacency(model, images)
        table = np.concatenate(record_activations(model, images))
        digests = [hashlib.sha256(a).hexdigest() for a in (graph.block, logits, table)]
        return digests, evaluate_accuracy(model, images, labels)

    at_512 = outputs()
    monkeypatch.setattr(mlpmod.mlp, "EVAL_BATCH", 2048)
    assert outputs() == at_512


# ---------------------------------------------------------------------------
# architecture validation

def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture(layer_widths=(5,))
    with pytest.raises(ValueError):
        MlpArchitecture(layer_widths=(5, 0, 2))
    with pytest.raises(ValueError):
        MlpArchitecture(layer_widths=(5, 2), activation="tanh")
    with pytest.raises(ValueError):
        MlpArchitecture(layer_widths=(5, 2), dropout_rate=1.0)


def test_model_rejects_parameters_of_other_shapes():
    model = make_model((4, 6, 3))
    with pytest.raises(ValueError, match="shapes"):
        MlpModel(
            architecture=model.architecture,
            weights=[w.T for w in model.weights],
            biases=model.biases,
        )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_counts_must_be_integers():
    with pytest.raises(ValueError, match=r"layer_widths\[1\] must be an integer, got 8.9"):
        MlpArchitecture(layer_widths=(784, 8.9, 10))
    with pytest.raises(ValueError, match="epochs must be an integer, got 2.5"):
        TrainConfig(epochs=2.5)
    with pytest.raises(ValueError, match="rng_seed must be an integer, got True"):
        TrainConfig(rng_seed=True)
    arch = MlpArchitecture(layer_widths=(np.int64(4), np.int32(2)))
    cfg = TrainConfig(epochs=np.int64(2), rng_seed=np.uint8(3))
    assert arch.layer_widths == (4, 2) and (cfg.epochs, cfg.rng_seed) == (2, 3)
    assert all(type(v) is int for v in (*arch.layer_widths, cfg.epochs, cfg.rng_seed))
