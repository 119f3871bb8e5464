"""Per-client local training for one federation round.

Each client starts from the broadcast global weights, runs shuffled
mini-batch SGD with momentum, and reports a pseudo-gradient
(global - final) / lr so that a single full-batch step reduces exactly
to the analytic gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EmptyInputError
from .models import Batch, ModelSpec, evaluate, loss_and_grad
from .tensors import ParameterSet, zip_map


@dataclass(frozen=True)
class LocalConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    local_epochs: int = 1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ValueError("batch_size and local_epochs must be >= 1")


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    pseudo_gradient: ParameterSet
    num_samples: int
    train_loss: float
    train_accuracy: float


def train_local(global_params: ParameterSet, spec: ModelSpec, shard: Dataset,
                cfg: LocalConfig, seed: int, client_id: int = 0) -> ClientUpdate:
    """One round of local SGD-with-momentum; velocity starts at zero."""
    if shard.n < 1:
        raise EmptyInputError("client shard is empty")
    rng = np.random.default_rng(seed)
    params = global_params
    velocity = ParameterSet.zeros_like(global_params)
    last_epoch_losses: list[float] = []
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(shard.n)
        epoch_losses = []
        for start in range(0, shard.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = Batch(shard.features[idx], shard.labels[idx])
            loss, grad = loss_and_grad(params, spec, batch)
            velocity = zip_map(velocity, grad, lambda u, g: cfg.momentum * u + g)
            params = zip_map(params, velocity, lambda w, u: w - cfg.lr * u)
            epoch_losses.append(loss)
        last_epoch_losses = epoch_losses
    pseudo_gradient = zip_map(global_params, params,
                              lambda w0, w: (w0 - w) * (1.0 / cfg.lr))
    train_accuracy, _ = evaluate(params, spec, shard)
    return ClientUpdate(
        client_id=client_id,
        pseudo_gradient=pseudo_gradient,
        num_samples=shard.n,
        train_loss=float(np.mean(last_epoch_losses)),
        train_accuracy=train_accuracy,
    )


def local_params_from_update(global_params: ParameterSet, update: ClientUpdate,
                             lr: float) -> ParameterSet:
    """Recover the client's post-training weights from its pseudo-gradient."""
    return zip_map(global_params, update.pseudo_gradient, lambda w, g: w - lr * g)
