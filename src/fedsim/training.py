"""Per-client local training for one federation round.

Each client starts from the broadcast global weights, runs shuffled
mini-batch SGD with momentum, and reports a pseudo-gradient
(global - final) / lr so that a single full-batch step reduces exactly
to the analytic gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NonFiniteError, naming
from .models import Batch, ModelSpec, evaluate, loss_and_grad
from .tensors import ParameterSet, zip_map

# rounds and local_epochs above this are config errors, not runs that
# train until they are killed
MAX_PASSES = 10 ** 6


@dataclass(frozen=True)
class LocalConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    local_epochs: int = 1

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ValueError("batch_size and local_epochs must be >= 1")
        if self.local_epochs > MAX_PASSES:
            raise ValueError(f"local_epochs must be <= {MAX_PASSES}")


class _OnFirstRead:
    """A dataclass field that holds its value or a zero-argument function
    computing it. The first read calls the function and keeps the result.
    The field has no default: dataclass asks the class for one, and the
    class read raises AttributeError."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    pseudo_gradient: ParameterSet
    num_samples: int
    train_loss: float
    # scored on the client's shard on first read: only fedboosting reads it
    train_accuracy: float = _OnFirstRead()
    # the weights local training ended with
    local_params: ParameterSet | None = None


def train_local(global_params: ParameterSet, spec: ModelSpec, shard: Dataset,
                cfg: LocalConfig, seed: int, client_id: int = 0) -> ClientUpdate:
    """One round of local SGD-with-momentum; velocity starts at zero.

    The weights w, velocity u and gradient g live in private writable
    vectors that every step updates in place, as every benchmark workload
    spends most of its rounds here. A step fails on the first of
    g, u and w, in that order, that holds NaN or Inf, naming its first
    such layer, as building them as ParameterSets would. Only w is tested
    unless it fails: u and w were finite after the previous step, momentum
    lies in [0, 1) and lr > 0, so a NaN or Inf in g makes u non-finite at
    that index, and one in u makes w non-finite there. w's test is its sum
    of squares (np.vdot, which unlike @ warns of no overflow), then
    np.isfinite(w) if that sum is not finite. The update holds the final
    weights as local_params; its train_accuracy scores them on the shard
    when first read, naming the client in a NonFiniteError as training does.
    """
    rng = np.random.default_rng(seed)
    w = global_params.to_flat()
    u, g, step = np.zeros(w.size), np.empty(w.size), np.empty(w.size)
    w_views, g_views = global_params.views(w), global_params.views(g)
    phase = f"client {client_id}: local training"
    with naming(phase, NonFiniteError):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(shard.n)
            features, labels = shard.features.take(order, 0), shard.labels.take(order)
            epoch_losses = []
            for start in range(0, shard.n, cfg.batch_size):
                stop = start + cfg.batch_size
                batch = Batch(features[start:stop], labels[start:stop])
                loss, _ = loss_and_grad(w_views, spec, batch, g_views)
                u *= cfg.momentum
                u += g
                np.multiply(cfg.lr, u, out=step)
                w -= step
                if not math.isfinite(np.vdot(w, w)) and not np.isfinite(w).all():
                    for vec in (g, u, w):
                        global_params.check_finite(vec)
                epoch_losses.append(loss)
        params = global_params._adopt(w)  # the last step tested w
        # (w0 - w) * (1 / lr), computed in the step scratch vector, which
        # zip_map keeps as the pseudo-gradient's own vector
        pseudo_gradient = zip_map(
            global_params, params, lambda w0, w: np.multiply(
                np.subtract(w0, w, out=step), 1.0 / cfg.lr, out=step))

    def train_accuracy() -> float:
        with naming(phase, NonFiniteError):
            return evaluate(params, spec, shard, loss=False)[0]

    return ClientUpdate(
        client_id=client_id,
        pseudo_gradient=pseudo_gradient,
        num_samples=shard.n,
        train_loss=float(np.add.reduce(epoch_losses) / len(epoch_losses)),
        train_accuracy=train_accuracy,
        local_params=params,
    )
