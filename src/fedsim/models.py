"""Small differentiable classifiers with analytic forward/backward passes.

Two model kinds are supported: plain softmax regression and a
one-hidden-layer MLP. Both expose their weights as a ParameterSet whose
layer names and shapes are a pure function of the ModelSpec, and both
return analytic mean cross-entropy gradients that are checked against
finite differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, NonFiniteError
from .tensors import ParameterSet

SOFTMAX_REGRESSION = "softmax_regression"
MLP = "mlp"
MODEL_KINDS = (SOFTMAX_REGRESSION, MLP)
ACTIVATIONS = ("relu", "sigmoid")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ValueError("mlp needs hidden_dim >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Layer names and shapes, lexicographic by name (frozen order)."""
        if self.kind == SOFTMAX_REGRESSION:
            layers = [
                ("out_bias", (self.num_classes,)),
                ("out_weight", (self.input_dim, self.num_classes)),
            ]
        else:
            layers = [
                ("hidden_bias", (self.hidden_dim,)),
                ("hidden_weight", (self.input_dim, self.hidden_dim)),
                ("out_bias", (self.num_classes,)),
                ("out_weight", (self.hidden_dim, self.num_classes)),
            ]
        assert layers == sorted(layers)
        return layers


@dataclass(frozen=True)
class Batch:
    features: np.ndarray  # (batch_size, input_dim)
    labels: np.ndarray    # (batch_size,) class indices

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")


def init_params(spec: ModelSpec, seed: int) -> ParameterSet:
    """Uniform Glorot weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for name, shape in spec.layer_shapes():
        if name.endswith("bias"):
            layers.append((name, shape, np.zeros(int(np.prod(shape)))))
        else:
            fan_in, fan_out = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            layers.append((name, shape, rng.uniform(-limit, limit, fan_in * fan_out)))
    return ParameterSet(layers)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of integer labels under row-softmaxed logits."""
    # log-softmax evaluated directly for numerical stability
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(y.shape[0]), y].mean())


def _get(params: ParameterSet, name: str, spec_shape: tuple[int, ...]) -> np.ndarray:
    return params.layer(name).reshape(spec_shape)


def _forward(params: ParameterSet, spec: ModelSpec, x: np.ndarray):
    """Returns (logits, cache for backward)."""
    if spec.kind == SOFTMAX_REGRESSION:
        w = _get(params, "out_weight", (spec.input_dim, spec.num_classes))
        b = params.layer("out_bias")
        return x @ w + b, (x,)
    w1 = _get(params, "hidden_weight", (spec.input_dim, spec.hidden_dim))
    b1 = params.layer("hidden_bias")
    w2 = _get(params, "out_weight", (spec.hidden_dim, spec.num_classes))
    b2 = params.layer("out_bias")
    z1 = x @ w1 + b1
    if spec.activation == "relu":
        h = np.maximum(z1, 0.0)
    else:
        h = 1.0 / (1.0 + np.exp(-z1))
    return h @ w2 + b2, (x, z1, h, w2)


def loss_and_grad(params: ParameterSet, spec: ModelSpec, batch: Batch):
    """Mean cross-entropy over the batch and its analytic gradient."""
    x, y = batch.features, batch.labels
    n = x.shape[0]
    logits, cache = _forward(params, spec, x)
    loss = _cross_entropy(logits, y)
    probs = _softmax_rows(logits)
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    if spec.kind == SOFTMAX_REGRESSION:
        (x,) = cache
        grads = {
            "out_weight": x.T @ dlogits,
            "out_bias": dlogits.sum(axis=0),
        }
    else:
        x, z1, h, w2 = cache
        dh = dlogits @ w2.T
        if spec.activation == "relu":
            dz1 = dh * (z1 > 0.0)
        else:
            dz1 = dh * h * (1.0 - h)
        grads = {
            "hidden_weight": x.T @ dz1,
            "hidden_bias": dz1.sum(axis=0),
            "out_weight": h.T @ dlogits,
            "out_bias": dlogits.sum(axis=0),
        }
    grad = params.with_flat(
        np.concatenate([grads[name] for name in params.names], axis=None))
    return loss, grad


def predict(params: ParameterSet, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    logits, _ = _forward(params, spec, x)
    return np.argmax(logits, axis=1)


def evaluate(params: ParameterSet, spec: ModelSpec, data) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) over a whole dataset."""
    if data.features.shape[0] < 1:
        raise EmptyInputError("evaluate on empty dataset")
    batch = Batch(data.features, data.labels)
    logits, _ = _forward(params, spec, batch.features)
    loss = _cross_entropy(logits, batch.labels)
    if not np.isfinite(loss):
        raise NonFiniteError("evaluate: non-finite loss")
    accuracy = float(np.mean(np.argmax(logits, axis=1) == batch.labels))
    return accuracy, loss
