"""Plain-numpy multilayer perceptron: Glorot init, forward with inverted
dropout, softmax cross-entropy backprop, Adam, and a minibatch training loop.

Conventions used throughout:

* weight matrix ``t`` has shape ``(widths[t+1], widths[t])`` and maps layer
  ``t`` onto layer ``t+1``; a batch ``x`` of shape ``(batch, widths[0])``
  propagates as ``x @ w.T + b``;
* dropout is inverted (mask then scale by ``1/(1-p)``) and applies to hidden
  layers only, so evaluation uses the trained weights unchanged;
* recorded activations are: input neurons = the raw (normalized) inputs,
  hidden neurons = post-nonlinearity outputs, output neurons = logits.
"""

from __future__ import annotations

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
    "record_activations",
]

ACTIVATIONS = ("relu", "sigmoid")

# 28x28 images, four hidden layers of 256, ten classes
DEFAULT_LAYER_WIDTHS = (784, 256, 256, 256, 256, 10)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class MlpArchitecture:
    layer_widths: tuple[int, ...] = DEFAULT_LAYER_WIDTHS
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("architecture needs at least input and output layers")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def n_neurons(self) -> int:
        return sum(self.layer_widths)

    @property
    def n_classes(self) -> int:
        return self.layer_widths[-1]


@dataclass
class MlpModel:
    architecture: MlpArchitecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_neurons(self) -> int:
        return self.architecture.n_neurons


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rng_seed: int = 0
    shuffle_each_epoch: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def init_model(
    arch: MlpArchitecture, rng: np.random.Generator | int | None = 0
) -> MlpModel:
    """Glorot-uniform weights, zero biases."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
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
    arch: MlpArchitecture, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Boolean keep-masks for every hidden layer, as the forward pass draws them."""
    p = arch.dropout_rate
    return [
        rng.random((batch_size, w)) >= p for w in arch.layer_widths[1:-1]
    ]


def _check_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.architecture.layer_widths[0]:
        raise ValueError(
            f"batch must have shape (m, {model.architecture.layer_widths[0]}), "
            f"got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("batch contains non-finite values")
    return x


def _forward_cached(
    model: MlpModel,
    x: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
    dropout_masks: list[np.ndarray] | None,
):
    """Shared forward pass; returns logits plus everything backprop needs."""
    arch = model.architecture
    p = arch.dropout_rate
    training = mode == "train"
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if training and p > 0 and rng is None and dropout_masks is None:
        raise ValueError("train mode with dropout needs an rng or explicit masks")
    post_acts: list[np.ndarray] = []   # per hidden layer, pre-dropout
    dropped: list[np.ndarray] = []     # per hidden layer, post-dropout (next layer input)
    scales: list[np.ndarray] = []      # per hidden layer, keep-mask / (1 - p)
    a = x
    n_conn = len(model.weights)
    for t in range(n_conn - 1):
        z = a @ model.weights[t].T
        z += model.biases[t]
        h = _activate(z, arch.activation)
        post_acts.append(h)
        if training and p > 0:
            keep = dropout_masks[t] if dropout_masks is not None else (
                rng.random(h.shape) >= p
            )
            scale = keep / (1.0 - p)
            scales.append(scale)
            a = h * scale
        else:
            a = h
        dropped.append(a)
    logits = a @ model.weights[-1].T
    logits += model.biases[-1]
    return logits, post_acts, dropped, scales


def forward(
    model: MlpModel,
    inputs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Run the network on a batch; returns logits."""
    x = _check_batch(model, inputs)
    return _forward_cached(model, x, mode, rng, dropout_masks)[0]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient wrt logits (already batch-averaged)."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        log_norm = np.log(exp.sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(m), labels]))
    grad = probs.copy()
    grad[np.arange(m), labels] -= 1.0
    return loss, grad / m


def loss_and_gradients(
    model: MlpModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    dropout_masks: list[np.ndarray] | None = None,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean softmax cross-entropy and exact gradients for all parameters.

    In train mode the gradients are exact for the dropout masks actually
    sampled (or supplied), which is what makes pinned-mask finite-difference
    checks possible. ``out`` may name ``(weight_grads, bias_grads)`` arrays
    to fill in place; those lists are then the ones returned.
    """
    x = _check_batch(model, inputs)
    y = np.asarray(labels)
    n_classes = model.architecture.n_classes
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    logits, post_acts, dropped, scales = _forward_cached(model, x, mode, rng, dropout_masks)
    loss, delta = softmax_cross_entropy(logits, y)
    if out is None:
        out = ([np.empty_like(w) for w in model.weights],
               [np.empty_like(b) for b in model.biases])
    grads_w, grads_b = out
    layer_inputs = [x] + dropped  # input to each connection
    for t in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, layer_inputs[t], out=grads_w[t])
        np.sum(delta, axis=0, out=grads_b[t])
        if t > 0:
            delta = delta @ model.weights[t]
            if scales:
                delta *= scales[t - 1]
            _apply_activation_grad(delta, post_acts[t - 1], model.architecture.activation)
    return loss, grads_w, grads_b


@dataclass
class AdamState:
    """First/second moment accumulators, the shared step counter and one
    scratch array per parameter, so that a step allocates nothing."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    scratch: list[np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            scratch=[np.empty_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update with bias-corrected moments.

    Uses the efficient form of Kingma & Ba (arXiv 1412.6980, Sec. 2): the
    bias corrections fold into the step size ``alpha_t`` and the epsilon
    ``eps_hat``, so the update is ``p -= alpha_t * m / (sqrt(v) + eps_hat)``.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    if state.scratch is None:
        state.scratch = [np.empty_like(m) for m in state.m]
    state.t += 1
    t = state.t
    root_correction2 = np.sqrt(1 - beta2**t)
    alpha_t = learning_rate * root_correction2 / (1 - beta1**t)
    eps_hat = eps * root_correction2
    for p, g, m, v, s in zip(params, grads, state.m, state.v, state.scratch):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= beta1
        np.multiply(g, 1 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(g, 1 - beta2, out=s)
        s *= g
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= alpha_t
        p -= s


def train(dataset, arch: MlpArchitecture, cfg: TrainConfig) -> tuple[MlpModel, float]:
    """Train on ``dataset.train``, report accuracy on ``dataset.test``.

    Returns ``(model, test_accuracy)`` with accuracy as a fraction in [0, 1].
    Fully deterministic for a fixed ``cfg.rng_seed``. Raises
    :class:`TrainingDivergedError` if the loss ever becomes non-finite.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    model = init_model(arch, rng)
    # all parameters in one buffer in checkpoint order, the model's arrays
    # being views into it, and a gradient buffer of the same layout
    params = np.concatenate(
        [a.ravel() for pair in zip(model.weights, model.biases) for a in pair]
    )
    model.weights, model.biases = _param_views(arch.layer_widths, params)
    grads = np.empty_like(params)
    grad_views = _param_views(arch.layer_widths, grads)
    state = AdamState.for_params([params])
    x, y = dataset.train.images, dataset.train.labels
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle_each_epoch else np.arange(n)
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            sel = order[start : start + cfg.batch_size]
            loss, _, _ = loss_and_gradients(
                model, x[sel], y[sel], mode="train", rng=rng, out=grad_views
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, step {step}"
                )
            adam_step(
                [params],
                [grads],
                state,
                learning_rate=cfg.learning_rate,
                beta1=cfg.beta1,
                beta2=cfg.beta2,
                eps=cfg.eps,
            )
    accuracy = evaluate_accuracy(model, dataset.test.images, dataset.test.labels)
    return model, accuracy


def evaluate_accuracy(
    model: MlpModel, images: np.ndarray, labels: np.ndarray, batch_size: int = 1024
) -> float:
    """Fraction of examples whose argmax logit matches the label."""
    logits = [
        forward(model, images[start : start + batch_size])
        for start in range(0, images.shape[0], batch_size)
    ]
    return logit_accuracy(np.concatenate(logits), labels)


def logit_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of ``logits`` whose argmax matches the label."""
    return np.count_nonzero(np.argmax(logits, axis=1) == labels) / logits.shape[0]


def record_activations(
    model: MlpModel, images: np.ndarray, batch_size: int = 2048
) -> np.ndarray:
    """Activation table over ``images``, C-order ``(n_neurons, m)``: one row
    per neuron (inputs, then hidden layers, then output logits), one column
    per example, so each neuron's activation vector is contiguous."""
    x = _check_batch(model, images)
    widths = model.architecture.layer_widths
    table = np.empty((sum(widths), x.shape[0]), dtype=np.float64)
    bounds = np.cumsum(widths)
    table[: widths[0]] = x.T
    for start in range(0, x.shape[0], batch_size):
        examples = slice(start, start + batch_size)
        logits, hidden, _, _ = _forward_cached(model, x[examples], "eval", None, None)
        for layer, act in enumerate(hidden + [logits]):
            table[bounds[layer] : bounds[layer + 1], examples] = act.T
    return table
