import numpy as np
import pytest

from mlpmod.checkpoint import load_checkpoint, save_checkpoint
from mlpmod.data import Dataset, LabeledImageSet
from mlpmod.mlp import (
    _activate,
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
    record_activations,
    sample_dropout_masks,
    softmax_cross_entropy,
    train,
)


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
    mode = "eval" if masks is None else "train"
    grads = []
    for param in flatten_params(model):
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + step
            up, _, _ = loss_and_gradients(model, x, y, mode=mode, dropout_masks=masks)
            param[idx] = original - step
            down, _, _ = loss_and_gradients(model, x, y, mode=mode, dropout_masks=masks)
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


def test_train_mode_with_dropout_requires_masks():
    model = make_model((4, 6, 3), dropout=0.5)
    x = np.zeros((2, 4))
    y = np.array([0, 2])
    with pytest.raises(ValueError, match="needs dropout masks"):
        loss_and_gradients(model, x, y, mode="train")
    # fine without dropout
    loss_and_gradients(make_model((4, 6, 3)), x, y, mode="train")


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
    hidden = record_activations(relu_model, x)[5:21]
    assert np.all(hidden >= 0.0)
    sig_model = make_model((5, 8, 8, 4), activation="sigmoid", seed=4)
    hidden = record_activations(sig_model, x)[5:21]
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


def test_labels_validated():
    model = make_model((4, 3))
    x = np.zeros((2, 4))
    with pytest.raises(ValueError, match="labels"):
        loss_and_gradients(model, x, np.array([0, 3]))


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
        model, x, y, mode="train", dropout_masks=masks
    )
    numeric = finite_difference_gradients(model, x, y, masks=masks)
    assert_gradients_close(grads_w + grads_b, numeric)
    # same masks give the same loss; train mode with dropout is mask-determined
    loss2, _, _ = loss_and_gradients(model, x, y, mode="train", dropout_masks=masks)
    assert loss == loss2


def test_gradients_fill_supplied_buffers():
    model = make_model((5, 4, 4, 3), activation="sigmoid", dropout=0.5, seed=24)
    rng = np.random.default_rng(25)
    x = rng.random((6, 5))
    y = rng.integers(0, 3, size=6)
    masks = sample_dropout_masks(model.architecture, 6, np.random.default_rng(26))
    loss, grads_w, grads_b = loss_and_gradients(
        model, x, y, mode="train", dropout_masks=masks
    )
    out = np.full_like(model.params, np.nan)
    loss_out, out_w, out_b = loss_and_gradients(
        model, x, y, mode="train", dropout_masks=masks, out=out
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
    lr = 1e-3
    params = np.array([0.0])
    state = AdamState.for_params(params)
    adam_step(params, np.array([1.0]), state, learning_rate=lr)
    # bias correction makes the first update -lr * 1/(1 + eps) ~ -lr
    assert params[0] == pytest.approx(-lr, rel=1e-6)


def test_adam_descends_quadratic():
    params = np.array([1.0])
    state = AdamState.for_params(params)
    values = []
    for _ in range(100):
        x = params[0]
        values.append(x * x)
        adam_step(params, np.array([2.0 * x]), state, learning_rate=0.05)
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
        reference_adam_step(ref_params, grads, ref_m, ref_v, step, lr=1e-2)
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state,
                  learning_rate=1e-2)
    assert state.t == 300
    for i, p in enumerate(ref_params):
        np.testing.assert_allclose(
            flat[bounds[i] : bounds[i + 1]], p.ravel(), rtol=1e-12, atol=0.0
        )


def test_adam_shape_mismatch():
    params = np.zeros(3)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(4), AdamState.for_params(params))
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, np.zeros(3), AdamState.for_params(np.zeros(4)))


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
    return Dataset(name="toy", train=split, test=split)


def test_train_separable_toy_reaches_99_percent():
    dataset = separable_dataset()
    arch = MlpArchitecture(layer_widths=(4, 8, 2), activation="relu")
    cfg = TrainConfig(epochs=5, batch_size=32, rng_seed=0, learning_rate=0.01)
    model = train(dataset.train, arch, cfg)
    assert evaluate_accuracy(model, dataset.test.images, dataset.test.labels) >= 0.99
    for w in model.weights:
        assert np.all(np.isfinite(w))


def test_train_deterministic_same_seed():
    dataset = separable_dataset(n=120, seed=1)
    arch = MlpArchitecture(layer_widths=(4, 6, 2), activation="sigmoid", dropout_rate=0.5)
    cfg = TrainConfig(epochs=2, batch_size=16, rng_seed=42)
    model_a = train(dataset.train, arch, cfg)
    model_b = train(dataset.train, arch, cfg)
    for w_a, w_b in zip(model_a.weights, model_b.weights):
        np.testing.assert_array_equal(w_a, w_b)
    for b_a, b_b in zip(model_a.biases, model_b.biases):
        np.testing.assert_array_equal(b_a, b_b)


def test_trained_model_views_round_trip_bit_exact(tmp_path):
    dataset = separable_dataset(n=120, seed=4)
    arch = MlpArchitecture(layer_widths=(4, 5, 3, 2), activation="relu")
    model = train(dataset.train, arch, TrainConfig(epochs=2, batch_size=16, rng_seed=6))
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


def test_train_divergence_detected():
    dataset = separable_dataset(n=64, seed=2)
    # two hidden layers so an absurd step overflows the forward products
    arch = MlpArchitecture(layer_widths=(4, 8, 8, 2), activation="relu")
    cfg = TrainConfig(epochs=3, batch_size=16, rng_seed=0, learning_rate=1e200)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
        train(dataset.train, arch, cfg)


def test_evaluate_accuracy_counts_argmax_hits():
    model = make_model((3, 2))
    model.weights[0][:] = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.1, 0.0]])
    labels = np.array([0, 1, 1])
    assert evaluate_accuracy(model, x, labels) == pytest.approx(2 / 3)


def test_recorded_logits_give_evaluate_accuracy():
    # several batches of both record_activations (2048) and evaluate_accuracy (1024)
    rng = np.random.default_rng(12)
    model = init_model(MlpArchitecture(layer_widths=(20, 16, 16, 4)), 0)
    x = rng.random((4500, 20))
    labels = rng.integers(0, 4, size=4500)
    logits = record_activations(model, x)[-4:].T
    np.testing.assert_array_equal(logits, forward(model, x))
    assert logit_accuracy(logits, labels) == evaluate_accuracy(model, x, labels)


# ---------------------------------------------------------------------------
# activation recording

def test_recorded_inputs_are_verbatim():
    model = make_model((5, 4, 3), seed=12)
    rng = np.random.default_rng(13)
    x = rng.random((9, 5))
    table = record_activations(model, x)
    assert table.shape == (12, 9)
    assert table.flags.c_contiguous
    np.testing.assert_array_equal(table[:5], x.T)


def test_recorded_hidden_nonnegative_for_relu():
    model = make_model((5, 6, 3), activation="relu", seed=14)
    x = np.random.default_rng(15).random((11, 5))
    table = record_activations(model, x)
    assert np.all(table[5:11] >= 0.0)


def test_recorded_outputs_are_logits():
    model = make_model((5, 6, 3), activation="sigmoid", seed=16)
    x = np.random.default_rng(17).random((4, 5))
    table = record_activations(model, x)
    np.testing.assert_array_equal(table[-3:], forward(model, x).T)


def test_constant_input_column_records_constant():
    model = make_model((5, 4, 3), seed=18)
    x = np.random.default_rng(19).random((8, 5))
    x[:, 2] = 0.0  # a dead pixel
    table = record_activations(model, x)
    np.testing.assert_array_equal(table[2], np.zeros(8))


def test_eval_forward_is_pure():
    model = make_model((5, 4, 3), dropout=0.5, seed=20)
    x = np.random.default_rng(21).random((6, 5))
    np.testing.assert_array_equal(forward(model, x), forward(model, x))


def test_record_activations_batched_matches_single_pass():
    model = make_model((5, 4, 3), seed=22)
    x = np.random.default_rng(23).random((10, 5))
    # BLAS blocking differs with batch shape, so equality is up to rounding
    np.testing.assert_allclose(
        record_activations(model, x, batch_size=3),
        record_activations(model, x, batch_size=100),
        rtol=0.0,
        atol=1e-12,
    )


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
    arch = MlpArchitecture(layer_widths=(784, 256, 256, 256, 256, 10))
    assert arch.n_neurons == 1818
    assert arch.n_classes == 10


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
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
