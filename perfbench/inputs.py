"""Seeded benchmark inputs: an MNIST-shaped image set and a checkpoint with
planted modules, each with a self-check of the properties the workloads
depend on.

The images are uint8 28x28 like MNIST: a frame of always-zero pixels (the
constant columns the spearman method drops), mostly zero pixels inside it
(heavy rank ties), and one stroke template per class so that one epoch
learns far above chance. ``mlpmod.data.make_synthetic_dataset`` is not
used: its uniform noise has no ties, no constant pixels and nothing to
learn.

The planted checkpoint is generated, not trained, so the ``analyze``
workload's inputs do not move when training numerics change. Its ReLU
network has ``K`` modules (strong weights inside a module, weak across)
and a known set of dead hidden units.
"""

from __future__ import annotations

import numpy as np

from mlpmod.data import SPLIT_FILES, write_idx_images, write_idx_labels
from mlpmod.mlp import MlpArchitecture, MlpModel

SIDE = 28
BORDER = 2  # width of the always-zero frame
N_TRAIN, N_TEST = 60000, 10000
N_CLASSES = 10
WIDTHS = (784, 256, 256, 256, 256, 10)
N_NODES = sum(WIDTHS)
STROKE_SHARE = 0.25  # share of inner pixels in a class template
STROKE_KEEP = 0.85  # chance an image keeps each template pixel
NOISE_SHARE = 0.03  # chance of a stray nonzero inner pixel
K = 4  # planted modules, the paper's cluster count
CROSS_SCALE = 0.05  # weight scale of edges between modules
DEAD_PER_LAYER = 8
N_CONSTANT_PIXELS = SIDE * SIDE - (SIDE - 2 * BORDER) ** 2
_CHUNK = 5000  # images generated at a time, to bound memory


class InputError(RuntimeError):
    """A generated input lacks a property the workloads depend on."""


def _inner_pixels() -> np.ndarray:
    frame = np.zeros((SIDE, SIDE), dtype=bool)
    frame[BORDER:SIDE - BORDER, BORDER:SIDE - BORDER] = True
    return np.flatnonzero(frame.ravel())


def make_images(seed: int) -> dict:
    """Train and test splits as ``{split: (uint8 images, uint8 labels)}``."""
    rng = np.random.default_rng([seed, 0])
    inner = _inner_pixels()
    strokes = rng.random((N_CLASSES, inner.size)) < STROKE_SHARE
    templates = np.where(strokes, rng.uniform(128.0, 255.0, strokes.shape), 0.0).astype(np.float32)
    splits = {}
    for split, n in (("train", N_TRAIN), ("test", N_TEST)):
        labels = rng.permutation(np.repeat(np.arange(N_CLASSES), n // N_CLASSES))
        images = np.zeros((n, SIDE * SIDE), dtype=np.uint8)
        for start in range(0, n, _CHUNK):
            t = templates[labels[start:start + _CHUNK]]
            # one draw decides whether a stroke pixel is kept and its brightness
            u = rng.random(t.shape, dtype=np.float32)
            kept = t * np.where(u < STROKE_KEEP, 0.6 + 0.4 * u / STROKE_KEEP, 0.0)
            stray = (rng.random(t.shape, dtype=np.float32) < NOISE_SHARE) & (kept == 0)
            kept[stray] = rng.integers(1, 256, int(stray.sum()))
            images[start:start + _CHUNK, inner] = np.round(kept).astype(np.uint8)
        splits[split] = (images, labels.astype(np.uint8))
    return splits


def write_dataset(splits: dict, directory) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for split, (images, labels) in splits.items():
        images_name, labels_name = SPLIT_FILES[split]
        write_idx_images(directory / images_name, images)
        write_idx_labels(directory / labels_name, labels)


def check_images(splits: dict) -> dict:
    """Verify and return the image properties the workloads rely on."""
    stats = {}
    for split, (images, labels) in splits.items():
        constant = int(np.sum(images.min(axis=0) == images.max(axis=0)))
        counts = np.bincount(labels, minlength=N_CLASSES)
        stats[split] = {
            "zero_pixel_share": round(float(np.mean(images == 0)), 4),
            "constant_pixels": constant,
            "class_counts": sorted(set(counts.tolist())),
        }
        if constant != N_CONSTANT_PIXELS:
            raise InputError(f"{split}: {constant} constant pixels, expected {N_CONSTANT_PIXELS}")
        if np.any(counts != len(labels) // N_CLASSES):
            raise InputError(f"{split}: classes are not balanced: {counts.tolist()}")
        if not 0.7 <= stats[split]["zero_pixel_share"] <= 0.9:
            raise InputError(f"{split}: zero-pixel share {stats[split]['zero_pixel_share']}")
    return stats


def planted_modules(rng: np.random.Generator) -> list[np.ndarray]:
    """Module id of every neuron, one array per layer.

    Input pixels follow the image quadrants; hidden and output neurons are
    dealt out evenly in a random order.
    """
    rows, cols = np.divmod(np.arange(SIDE * SIDE), SIDE)
    modules = [2 * (rows >= SIDE // 2) + (cols >= SIDE // 2)]
    for width in WIDTHS[1:-1]:
        modules.append(rng.permutation(np.arange(width) % K))
    modules.append(np.arange(WIDTHS[-1]) % K)
    return modules


def make_planted_model(
    seed: int, images: np.ndarray
) -> tuple[MlpModel, list[np.ndarray], list[np.ndarray]]:
    """Glorot-scale ReLU model with planted modules and dead units.

    Each live unit's bias centres its pre-activation on ``images``, so it is
    active on about half of them and never constant; each dead unit's bias
    lies below any pre-activation an input in [0, 1] can reach. Returns
    ``(model, modules, dead)`` with ``dead[t]`` the dead units of hidden
    layer ``t + 1``.
    """
    rng = np.random.default_rng([seed, 1])
    modules = planted_modules(rng)
    weights, biases, dead = [], [], []
    a = images.astype(np.float64) / 255.0
    max_input = 1.0  # bound on every activation of the previous layer
    for t, (fan_in, fan_out) in enumerate(zip(WIDTHS[:-1], WIDTHS[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        magnitude = rng.uniform(0.1 * bound, bound, (fan_out, fan_in))
        sign = rng.choice([-1.0, 1.0], (fan_out, fan_in))
        same = modules[t + 1][:, None] == modules[t][None, :]
        w = sign * magnitude * np.where(same, 1.0, CROSS_SCALE)
        b = np.zeros(fan_out)
        if t + 1 < len(WIDTHS) - 1:
            z = a @ w.T
            b = -np.median(z, axis=0)
            row_bound = np.abs(w).sum(axis=1) * max_input
            units = np.sort(rng.choice(fan_out, DEAD_PER_LAYER, replace=False))
            b[units] = -(1.0 + row_bound[units])
            dead.append(units)
            max_input = float(np.max(row_bound + np.maximum(b, 0.0)))
            a = np.maximum(z + b, 0.0)
        weights.append(w)
        biases.append(b)
    arch = MlpArchitecture(layer_widths=WIDTHS, activation="relu", dropout_rate=0.0)
    return MlpModel(architecture=arch, weights=weights, biases=biases), modules, dead


def activation_table(model: MlpModel, images: np.ndarray) -> np.ndarray:
    """The benchmark's own forward pass: pixels, ReLU hidden outputs, logits."""
    a = images.astype(np.float64) / 255.0
    columns = [a]
    for t, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T + b
        if t + 1 < len(model.weights):
            a = np.maximum(a, 0.0)
        columns.append(a)
    return np.hstack(columns)


def planted_ncut(model: MlpModel, modules: list[np.ndarray]) -> float:
    """Exact ncut of the planted partition on the |weight| graph."""
    degree = [np.zeros(w) for w in WIDTHS]
    within = np.zeros(K)
    for t, w in enumerate(model.weights):
        a = np.abs(w)  # rows: layer t+1, columns: layer t
        degree[t] += a.sum(axis=0)
        degree[t + 1] += a.sum(axis=1)
        for c in range(K):
            within[c] += 2.0 * a[np.ix_(modules[t + 1] == c, modules[t] == c)].sum()
    volume = np.zeros(K)
    for deg, mod in zip(degree, modules):
        volume += np.bincount(mod, weights=deg, minlength=K)
    return float(np.sum((volume - within) / volume))


def check_model(model: MlpModel, modules, dead, test_images: np.ndarray) -> dict:
    """Verify the planted model; return the figures the output checks use."""
    table = activation_table(model, test_images)
    constant = table.min(axis=0) == table.max(axis=0)
    starts = np.cumsum((0,) + WIDTHS)
    hidden_constant = [
        np.flatnonzero(constant[starts[t]:starts[t + 1]]) for t in range(1, len(WIDTHS) - 1)
    ]
    for t, (found, planted) in enumerate(zip(hidden_constant, dead), start=1):
        if not np.array_equal(found, planted):
            raise InputError(f"hidden layer {t}: constant units {found.tolist()}, planted {planted.tolist()}")
    if int(constant[:WIDTHS[0]].sum()) != N_CONSTANT_PIXELS or constant[starts[-2]:].any():
        raise InputError("constant input or output columns differ from the design")
    counts = [np.bincount(m, minlength=K) for m in modules]
    if any(np.any(c == 0) for c in counts):
        raise InputError("a planted module is empty in some layer")
    return {
        "planted_modules": K,
        "dead_units": int(sum(d.size for d in dead)),
        "constant_columns": int(constant.sum()),
        "planted_ncut": planted_ncut(model, modules),
    }
