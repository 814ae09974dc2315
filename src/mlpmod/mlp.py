"""Plain-numpy multilayer perceptron: Glorot init, forward with inverted
dropout, softmax cross-entropy backprop, Adam, and a minibatch training loop.

Conventions used throughout:

* weight matrix ``t`` has shape ``(widths[t+1], widths[t])`` and maps layer
  ``t`` onto layer ``t+1``; a batch ``x`` of shape ``(batch, widths[0])``
  propagates as ``x @ w.T + b``;
* a model's weights and biases are views into one float64 buffer
  ``params`` in checkpoint order (W0, b0, W1, b1, ...);
* dropout is inverted (mask then scale by ``1/(1-p)``) and applies to hidden
  layers only, so evaluation uses the trained weights unchanged;
* a batch of uint8 pixels is scaled by ``1/255`` as it enters the first
  layer, one batch at a time, and any other batch is taken as float64 as
  it is;
* training runs minibatches of ``BATCH_SIZE`` through Adam at step size
  ``LEARNING_RATE``; a ``TrainConfig`` sets only the epochs and the seed;
  Adam updates the parameters in slices of ``ADAM_BLOCK`` elements;
* evaluation runs the examples through in batches of ``EVAL_BATCH``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "DEFAULT_LAYER_WIDTHS",
    "MlpArchitecture",
    "MlpModel",
    "TrainConfig",
    "TrainingDivergedError",
    "init_model",
    "forward",
    "sample_dropout_masks",
    "softmax_cross_entropy",
    "loss_and_gradients",
    "AdamState",
    "adam_step",
    "train",
    "evaluate_accuracy",
    "logit_accuracy",
]

ACTIVATIONS = ("relu", "sigmoid")

# 28x28 images, four hidden layers of 256, ten classes
DEFAULT_LAYER_WIDTHS = (784, 256, 256, 256, 256, 10)

# fixed settings of every training run (the Adam ones are Kingma & Ba's defaults)
BATCH_SIZE = 128
LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# elements per slice of an Adam step: the 12 passes of a step run over one
# slice of every buffer while it is in cache, then move to the next
ADAM_BLOCK = 32768

# examples per forward pass of evaluate_accuracy and the spearman graph: 512 x
# 256 float64 (1 MiB) stays in L2. Chunk size can move bits through BLAS
# blocking; on the 10k test split 512 gives the bits of 2048, as a test checks
EVAL_BATCH = 512


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


def _integer_setting(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integral value raises
    ``ValueError`` naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MlpArchitecture:
    layer_widths: tuple[int, ...] = DEFAULT_LAYER_WIDTHS
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        widths = tuple(_integer_setting(f"layer_widths[{i}]", w)
                       for i, w in enumerate(self.layer_widths))
        object.__setattr__(self, "layer_widths", widths)
        if len(self.layer_widths) < 2:
            raise ValueError("architecture needs at least input and output layers")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """An architecture and its parameters, copied into one float64 buffer
    ``params`` laid out as in a checkpoint, with ``weights``/``biases`` views
    into it. ``ValueError`` refuses shapes other than the widths give, then
    NaN or inf values, naming the arrays that hold them."""

    architecture: MlpArchitecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        widths = self.architecture.layer_widths
        shapes = [*zip(widths[1:], widths[:-1]), *((w,) for w in widths[1:])]
        if [np.shape(a) for a in [*self.weights, *self.biases]] != shapes:
            raise ValueError("parameter shapes do not match the layer widths")
        bad = [f"{name}{t}" for name, arrays in (("W", self.weights), ("b", self.biases))
               for t, a in enumerate(arrays) if not np.isfinite(a).all()]
        if bad:
            raise ValueError(f"non-finite (NaN or inf) values in parameters {', '.join(bad)}")
        given = [np.ravel(a) for pair in zip(self.weights, self.biases) for a in pair]
        params = np.concatenate(given, dtype=np.float64)
        weights, biases = _param_views(widths, params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)


@dataclass(frozen=True)
class TrainConfig:
    """What a training run varies: its epochs, and the seed of its weight
    init, shuffles and dropout masks."""

    epochs: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "rng_seed"):
            object.__setattr__(self, name, _integer_setting(name, getattr(self, name)))
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    def to_dict(self) -> dict:
        """Every setting of the run, the fixed ones included, as reports and
        checkpoint fingerprints record them."""
        return dict(
            epochs=self.epochs, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
            rng_seed=self.rng_seed, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS,
            shuffle_each_epoch=True,
        )


def init_model(arch: MlpArchitecture, rng: np.random.Generator) -> MlpModel:
    """Glorot-uniform weights drawn from ``rng``, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(arch.layer_widths[:-1], arch.layer_widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(architecture=arch, weights=weights, biases=biases)


def _param_views(
    widths: tuple[int, ...], flat: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias views into ``flat``, laid out W0, b0, W1, b1, ... as in
    a checkpoint."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Nonlinearity of a fresh pre-activation array, which it may overwrite."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    # numerically stable logistic exp(min(z, 0)) / (1 + exp(-|z|)): that is
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, with no mask
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    denom = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    denom += 1.0
    return np.divide(out, denom, out=out)


def _apply_activation_grad(da: np.ndarray, post: np.ndarray, kind: str) -> None:
    """Multiply ``da`` in place by the activation derivative, written in terms
    of the post-nonlinearity output ``post``."""
    if kind == "relu":
        da *= post > 0
    else:
        slope = 1.0 - post
        slope *= post
        da *= slope


def sample_dropout_masks(
    arch: MlpArchitecture, n_examples: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Boolean keep-masks for every hidden layer over ``n_examples`` rows,
    the ones training applies."""
    return [rng.random((n_examples, w)) >= arch.dropout_rate for w in arch.layer_widths[1:-1]]


def _check_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """The batch as the float64 rows the first layer takes: uint8 pixels
    divided by 255, any other input as float64, which must be finite."""
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != model.architecture.layer_widths[0]:
        raise ValueError(
            f"batch must have shape (m, {model.architecture.layer_widths[0]}), "
            f"got {x.shape}"
        )
    if x.dtype == np.uint8:
        return x / 255.0
    x = x.astype(np.float64, copy=False)
    if not np.all(np.isfinite(x)):
        raise ValueError("batch contains non-finite values")
    return x


def _forward_cached(
    model: MlpModel, x: np.ndarray, dropout_masks: list[np.ndarray] | None
):
    """Shared forward pass. Returns the logits, each connection's input (the
    batch, then each hidden layer after dropout), each hidden layer's output
    before dropout and each hidden layer's keep-mask / (1 - p). Dropout
    applies with ``dropout_masks`` and not without."""
    inputs, post_acts, scales = [x], [], []
    for t in range(len(model.weights) - 1):
        h = _connection(model, t, inputs[t])
        post_acts.append(h)
        if dropout_masks is not None:
            scales.append(dropout_masks[t] / (1.0 - model.architecture.dropout_rate))
            h = h * scales[t]
        inputs.append(h)
    return _connection(model, len(model.weights) - 1, inputs[-1]), inputs, post_acts, scales


def _connection(model: MlpModel, t: int, a: np.ndarray) -> np.ndarray:
    """``a @ W.T + b`` of connection ``t``, activated unless it gives the logits."""
    z = a @ model.weights[t].T
    z += model.biases[t]
    return z if t == len(model.weights) - 1 else _activate(z, model.architecture.activation)


def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Run the network on a batch as evaluated, without dropout; returns logits."""
    return _forward_cached(model, _check_batch(model, inputs), None)[0]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient wrt logits (already batch-averaged),
    summing each row once and turning its probabilities into the gradient in place."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = np.exp(shifted)
        total = grad.sum(axis=1, keepdims=True)
        log_norm = np.log(total.ravel())
        grad /= total
    loss = float(np.mean(log_norm - shifted[np.arange(m), labels]))
    grad[np.arange(m), labels] -= 1.0
    grad /= m
    return loss, grad


def loss_and_gradients(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean softmax cross-entropy and exact gradients for all parameters.

    Dropout applies exactly when ``dropout_masks`` are given (see
    :func:`sample_dropout_masks`), and the gradients are exact for them,
    which is what makes pinned-mask finite-difference checks possible. The
    gradients fill ``out``, a buffer shaped like ``model.params`` (allocated
    when None), and are returned as its weight and bias views.
    """
    x = _check_batch(model, inputs)
    y = np.asarray(labels)
    n_classes = model.architecture.layer_widths[-1]
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    logits, conn_inputs, post_acts, scales = _forward_cached(model, x, dropout_masks)
    loss, delta = softmax_cross_entropy(logits, y)
    grads_w, grads_b = _param_views(
        model.architecture.layer_widths,
        np.empty_like(model.params) if out is None else out,
    )
    for t in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, conn_inputs[t], out=grads_w[t])
        np.sum(delta, axis=0, out=grads_b[t])
        if t > 0:
            delta = delta @ model.weights[t]
            if scales:
                delta *= scales[t - 1]
            _apply_activation_grad(delta, post_acts[t - 1], model.architecture.activation)
    return loss, grads_w, grads_b


@dataclass(eq=False)
class AdamState:
    """First/second moment accumulators shaped like the flat parameter
    array, the step counter and a scratch array of one ``ADAM_BLOCK``, so
    that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(
            np.zeros_like(params), np.zeros_like(params), np.empty(min(params.size, ADAM_BLOCK))
        )


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update of the flat ``params`` with bias-corrected
    moments, with step size ``LEARNING_RATE``, betas ``ADAM_BETA1``,
    ``ADAM_BETA2`` and epsilon ``ADAM_EPS``.

    Uses the efficient form of Kingma & Ba (arXiv 1412.6980, Sec. 2): the
    bias corrections fold into the step size ``alpha_t`` and the epsilon
    ``eps_hat``, so the update is ``p -= alpha_t * m / (sqrt(v) + eps_hat)``.
    The update is elementwise, so running it one ``ADAM_BLOCK`` slice at a
    time, while the slice stays in cache, gives the bits of one whole-array
    pass.
    """
    if not params.shape == grads.shape == state.m.shape == (params.size,):
        raise ValueError(
            f"params {params.shape}, grads {grads.shape} and state {state.m.shape} "
            "shapes differ or are not flat"
        )
    state.t += 1
    t = state.t
    root_correction2 = np.sqrt(1 - ADAM_BETA2**t)
    alpha_t = LEARNING_RATE * root_correction2 / (1 - ADAM_BETA1**t)
    eps_hat = ADAM_EPS * root_correction2
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params[block], grads[block], state.m[block], state.v[block]
        s = state.scratch[: p.size]
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
        p -= s


def train(train_set, arch: MlpArchitecture, cfg: TrainConfig) -> MlpModel:
    """Train a model of ``arch`` on ``train_set`` (images and labels) in
    minibatches of ``BATCH_SIZE``, shuffling the examples every epoch. Each
    minibatch gathers its rows of ``images`` as they are stored, uint8
    pixels included, and ``loss_and_gradients`` scales them.

    Fully deterministic for a fixed ``cfg.rng_seed``. Raises
    :class:`TrainingDivergedError` if the loss ever becomes non-finite.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    model = init_model(arch, rng)
    grads = np.empty_like(model.params)
    state = AdamState.for_params(model.params)
    x, y = train_set.images, train_set.labels
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n, BATCH_SIZE)):
            sel = order[start : start + BATCH_SIZE]
            masks = (
                sample_dropout_masks(arch, sel.size, rng) if arch.dropout_rate > 0 else None
            )
            loss, _, _ = loss_and_gradients(model, x[sel], y[sel], dropout_masks=masks, out=grads)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, step {step}"
                )
            adam_step(model.params, grads, state)
    return model


def evaluate_accuracy(model: MlpModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of examples whose argmax logit matches the label; the
    images are scaled one ``EVAL_BATCH`` at a time."""
    starts = range(0, max(len(images), 1), EVAL_BATCH)
    logits = [forward(model, images[start : start + EVAL_BATCH]) for start in starts]
    return logit_accuracy(np.concatenate(logits), labels)


def logit_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of ``logits`` whose argmax matches the label."""
    if np.shape(labels) != (logits.shape[0],):
        raise ValueError(f"labels must have shape ({logits.shape[0]},), got {np.shape(labels)}")
    if logits.shape[0] == 0:
        raise ValueError("no examples to score")
    return np.count_nonzero(np.argmax(logits, axis=1) == labels) / logits.shape[0]
