"""Small differentiable classifiers with analytic forward/backward passes.

Two model kinds are supported: a one-hidden-layer MLP, and softmax
regression, which is the MLP's output layer alone. Both expose their
weights as a ParameterSet whose layer names and shapes are a pure
function of the ModelSpec, and both return analytic mean cross-entropy
gradients that are checked against finite differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch
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
        layers, fan_in = [], self.input_dim
        if self.kind == MLP:
            layers = [("hidden_bias", (self.hidden_dim,)),
                      ("hidden_weight", (self.input_dim, self.hidden_dim))]
            fan_in = self.hidden_dim
        layers += [("out_bias", (self.num_classes,)),
                   ("out_weight", (fan_in, self.num_classes))]
        assert layers == sorted(layers)
        return layers


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


def _softmax_parts(logits: np.ndarray, y: np.ndarray, rows: np.ndarray):
    """exp of the row-max-shifted logits, its row sums, and each row's
    log-softmax at its label; one exp serves the loss and the softmax.
    rows is np.arange of the row count.

    The log-softmax is taken from the shifted logits directly, which keeps
    it finite where the softmax itself underflows.
    """
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    label_z = e[rows, y]
    np.exp(e, out=e)
    row_sums = np.add.reduce(e, axis=1, keepdims=True)
    return e, row_sums, label_z - np.log(row_sums[:, 0])


def _mean_loss(label_log_probs: np.ndarray) -> float:
    """Mean cross-entropy: the sum and division ndarray.mean makes, without
    its Python-level overhead."""
    return float(-(np.add.reduce(label_log_probs) / label_log_probs.shape[0]))


def _forward(w: dict[str, np.ndarray], spec: ModelSpec, x: np.ndarray):
    """Returns (logits, output-layer input). The MLP applies ReLU in place,
    to its new pre-activation array, since every benchmark workload runs
    ReLU; sigmoid, which none runs, is its formula as written. Softmax
    regression has no hidden layer, so it returns (logits, x)."""
    h = x
    if spec.kind == MLP:
        h = x @ w["hidden_weight"]
        h += w["hidden_bias"]
        if spec.activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            h = 1.0 / (1.0 + np.exp(-h))
    logits = h @ w["out_weight"]
    logits += w["out_bias"]
    return logits, h


def _loss_and_grad_into(spec: ModelSpec, w: dict[str, np.ndarray],
                        g: dict[str, np.ndarray], x: np.ndarray,
                        y: np.ndarray) -> float:
    """Mean cross-entropy of rows x with labels y; writes its analytic
    gradient into the arrays of g. ReLU's backward masks dz1 in place, as
    every benchmark workload runs ReLU.

    w and g map each layer name to an array in the spec's shape. Every
    element-wise expression keeps the operation order of the reference
    loop in tests/test_training.py, which checks that training results
    match it bit for bit.
    """
    n = x.shape[0]
    rows = np.arange(n)
    logits, h = _forward(w, spec, x)
    dlogits, row_sums, label_log_probs = _softmax_parts(logits, y, rows)
    loss = _mean_loss(label_log_probs)
    dlogits /= row_sums
    dlogits[rows, y] -= 1.0
    dlogits /= n
    np.matmul(h.T, dlogits, out=g["out_weight"])
    np.add.reduce(dlogits, axis=0, out=g["out_bias"])
    if spec.kind == MLP:
        dz1 = dlogits @ w["out_weight"].T
        if spec.activation == "relu":
            dz1 *= h > 0.0  # True exactly where the pre-activation is > 0
        else:
            dz1 = dz1 * h * (1.0 - h)
        np.matmul(x.T, dz1, out=g["hidden_weight"])
        np.add.reduce(dz1, axis=0, out=g["hidden_bias"])
    return loss


def loss_and_grad(params, spec: ModelSpec, batch: Batch, grad=None):
    """Mean cross-entropy over the batch and its analytic gradient.

    By default params is a ParameterSet and the gradient comes back as a
    new one. Local training instead passes params and grad as the
    ParameterSet.views of a weight and a gradient vector; the gradient is
    then written into grad's arrays in place, and grad is returned.
    """
    if grad is not None:
        return _loss_and_grad_into(spec, params, grad, batch.features,
                                   batch.labels), grad
    flat = params.to_flat()  # a writable vector the kernel overwrites
    loss = _loss_and_grad_into(spec, params.layers(), params.views(flat),
                               batch.features, batch.labels)
    return loss, params.with_flat(flat)


def _block_scores(params: ParameterSet, spec: ModelSpec, data,
                  bounds: np.ndarray, loss: bool = True):
    """One forward pass over all rows of data, scored on each row block
    between consecutive bounds: (mean cross-entropy losses, accuracies).

    Each accuracy is the exact count/n; a non-finite loss raises
    NonFiniteError. With loss=False the losses come back as None, and are
    computed only when a bound on the logits cannot rule that error out.
    If every |logit| <= M, each row's log-softmax at its label lies in
    [-2M - log K, 0] for K classes, and log K <= 44 for any K NumPy can
    address; so with M * n <= 1e300 for the n rows, a block's sum of at
    most n such terms, and its mean, stay far below the float64 maximum.
    The test reads False for NaN, Inf, and a product that overflows.
    """
    logits, _ = _forward(params.layers(), spec, data.features)
    n = logits.shape[0]
    losses = None
    if loss or not np.maximum.reduce(np.abs(logits), axis=None) * n <= 1e300:
        log_probs = _softmax_parts(logits, data.labels, np.arange(n))[2]
        losses = [_mean_loss(log_probs[start:stop])
                  for start, stop in zip(bounds[:-1], bounds[1:])]
        if not all(map(np.isfinite, losses)):
            raise NonFiniteError("evaluate: non-finite loss")
    correct = np.argmax(logits, axis=1) == data.labels
    counts = np.add.reduceat(correct, bounds[:-1], dtype=np.int64)
    return losses if loss else None, counts / np.diff(bounds)


def evaluate(params: ParameterSet, spec: ModelSpec, data, *,
             loss: bool = True) -> tuple[float, float | None]:
    """(accuracy, mean cross-entropy loss) over a whole dataset, or with
    loss=False (accuracy, None). A non-finite loss raises NonFiniteError
    either way."""
    n = data.features.shape[0]
    if n < 1:
        raise EmptyInputError("evaluate on empty dataset")
    losses, (accuracy,) = _block_scores(params, spec, data, np.array([0, n]),
                                        loss)
    return float(accuracy), losses[0] if loss else None


def cross_accuracy(models, spec: ModelSpec, datasets) -> np.ndarray:
    """The C x C matrix of each model's accuracy on each of C datasets.

    The datasets' rows are joined back to back, in order, and each model is
    one forward pass over all of them, so `models` may be a generator.
    Entry [i, j] is the exact count/n of dataset j's rows whose argmax in
    model i's pass is their label. It need not equal evaluate on dataset j
    alone: BLAS may round a row's logits differently with other rows beside
    it. The call raises NonFiniteError if any dataset's mean cross-entropy
    in that pass is not finite.
    """
    rows = Batch(np.concatenate([d.features for d in datasets]),
                 np.concatenate([d.labels for d in datasets]))
    bounds = np.cumsum([0, *(len(d.labels) for d in datasets)])
    return np.stack([_block_scores(params, spec, rows, bounds, False)[1]
                     for params in models])
