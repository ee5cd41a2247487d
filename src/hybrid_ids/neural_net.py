"""From-scratch feedforward classifier: 41 inputs, two rectifier hidden
layers, 5 softmax outputs, trained with mini-batch gradient descent on
categorical cross-entropy.

All arithmetic is float64 numpy with a fixed evaluation order, so a fixed
seed reproduces weights bit-for-bit on the same platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import CoarseLabel, Dataset, N_FEATURES, stratified_kfold
from .evaluation import confusion, overall_accuracy
from .persist import LineReader, atomic_write, fmt_floats, version_line

log = logging.getLogger(__name__)

N_CLASSES = len(CoarseLabel)
# What _forward_pass computes; save_mlp records it and load_mlp accepts nothing else.
_ACTIVATIONS = "relu,relu,softmax"


@dataclass(frozen=True)
class TrainConfig:
    hidden_dims: tuple[int, int] = (64, 32)
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.hidden_dims[0] < 1 or self.hidden_dims[1] < 1:
            raise ValueError("hidden_dims must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass
class MLPModel:
    dims: list[int]  # [n_in, h1, h2, n_out]
    weights: list[np.ndarray]  # W_l has shape (dims[l+1], dims[l])
    biases: list[np.ndarray]
    stats_fingerprint: str = ""


def init_model(
    config: TrainConfig, n_inputs: int = N_FEATURES, rng: np.random.Generator | None = None
) -> MLPModel:
    """Seeded Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    dims = [n_inputs, config.hidden_dims[0], config.hidden_dims[1], N_CLASSES]
    weights, biases = [], []
    for l in range(3):
        fan_in, fan_out = dims[l], dims[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLPModel(dims=dims, weights=weights, biases=biases)


def _forward_pass(model: MLPModel, X: np.ndarray):
    """Returns (pre-activations, activations, log-probabilities)."""
    zs, activations = [], [X]
    a = X
    for l in range(3):
        z = a @ model.weights[l].T + model.biases[l]
        zs.append(z)
        if l < 2:
            a = np.maximum(z, 0.0)
            activations.append(a)
    logits = zs[-1]
    shift = logits - logits.max(axis=1, keepdims=True)
    log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    return zs, activations, log_probs


def forward(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities of each row of the (n, d) matrix ``X``; each
    row's softmax output sums to 1."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise ValueError(f"input of shape {X.shape} is not rows of dimension {model.dims[0]}")
    _, _, log_probs = _forward_pass(model, X)
    return np.exp(log_probs)


def loss_and_gradient(model: MLPModel, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and exact gradients.

    ``y`` holds integer class indices. Gradients are returned as parallel
    (weight, bias) lists matching the model layout.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("empty batch")
    n = len(X)
    zs, activations, log_probs = _forward_pass(model, X)
    loss = -float(log_probs[np.arange(n), y].mean())

    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w: list[np.ndarray] = [None] * 3  # type: ignore[list-item]
    grad_b: list[np.ndarray] = [None] * 3  # type: ignore[list-item]
    for l in (2, 1, 0):
        grad_w[l] = delta.T @ activations[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (zs[l - 1] > 0.0)
    return loss, (grad_w, grad_b)


def train(ds: Dataset, config: TrainConfig) -> MLPModel:
    """Mini-batch gradient descent for ``config.epochs`` passes with seeded
    shuffling; expects a standardized dataset."""
    rng = np.random.default_rng(config.seed)
    model = init_model(config, n_inputs=ds.X.shape[1], rng=rng)
    X, y = ds.X, ds.coarse
    n = len(X)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, (gw, gb) = loss_and_gradient(model, X[batch], y[batch])
            if not np.isfinite(loss):
                raise ValueError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch starting {start}; lower the learning rate"
                )
            for l in range(3):
                model.weights[l] -= config.learning_rate * gw[l]
                model.biases[l] -= config.learning_rate * gb[l]
            epoch_loss += loss
            n_batches += 1
        log.info("epoch %d: mean batch loss %.6f", epoch, epoch_loss / max(n_batches, 1))
    return model


def predict_batch(model: MLPModel, X: np.ndarray) -> np.ndarray:
    """Argmax class per row; exact ties resolve to the lowest class index."""
    return np.argmax(forward(model, X), axis=1)


def cross_validate(ds: Dataset, k: int, config: TrainConfig, fold_seed: int) -> list[float]:
    """Train k models on stratified folds; overall accuracy per held-out
    fold."""
    accs = []
    for fold_no, (train_ds, val_ds) in enumerate(stratified_kfold(ds, k, fold_seed)):
        model = train(train_ds, config)
        preds = predict_batch(model, val_ds.X)
        acc = overall_accuracy(confusion(preds, val_ds.coarse))
        log.info("fold %d accuracy: %.3f", fold_no, acc)
        accs.append(acc)
    return accs


def save_mlp(path: str | Path, model: MLPModel) -> None:
    lines = [
        version_line("mlp"),
        f"stats_id={model.stats_fingerprint}",
        "dims=" + ",".join(str(d) for d in model.dims),
        "activations=" + _ACTIVATIONS,
    ]
    for l in range(3):
        lines.append(f"W{l} " + fmt_floats(model.weights[l].ravel()))
        lines.append(f"b{l} " + fmt_floats(model.biases[l]))
    atomic_write(path, "\n".join(lines) + "\n")


def load_mlp(path: str | Path) -> MLPModel:
    """Read a ``save_mlp`` file. Raises FormatError naming the file and line
    on truncated, garbled or inconsistent content."""
    r = LineReader(path)
    r.version("mlp")
    stats_id = r.value("stats_id")
    dims = [r.number(v, int, "dimension") for v in r.value("dims").split(",")]
    if len(dims) != 4 or min(dims) < 1 or dims[3] != N_CLASSES:
        raise r.error(
            f"expected dims=<inputs>,<hidden1>,<hidden2>,{N_CLASSES} of positive integers"
        )
    if r.value("activations") != _ACTIVATIONS:
        raise r.error(f"expected activations={_ACTIVATIONS}")
    weights, biases = [], []
    for l in range(3):
        weights.append(r.float_row(f"W{l}", dims[l + 1] * dims[l]).reshape(dims[l + 1], dims[l]))
        biases.append(r.float_row(f"b{l}", dims[l + 1]))
    r.end()
    return MLPModel(dims=dims, weights=weights, biases=biases, stats_fingerprint=stats_id)
