"""Server-side aggregation strategies.

All strategies consume the round's ClientUpdates, sorted by client id
and stacked into one (C, P) array with a client's pseudo-gradient per
row, and reduce it column by column to the global update G, which the
round loop applies as w <- w - step_scale * G. Rows are always added in
client order. Adaptive strategies also carry persistent moment state
across rounds. A round calls its strategy through aggregate(), which
gathers each strategy's inputs; the *_aggregate functions take them
explicitly.

Strategies:
  fedavg       sample-count weighted mean of pseudo-gradients
  fedopt       server-side Adam / Adagrad / Yogi on the mean gradient,
               with the adaptive step sqrt(1-b2^r)/(1-b1^r)
  fedams       fedopt-adam with a running element-wise max in the
               denominator (AMSGrad-style stabilization)
  ewwa         element-wise adaptive weighting: per-client moments and
               bias-corrected contribution scores, turned into
               per-element proportions by a cross-client softmax
  fedadp       per-client scalar weights from the angle between each
               client's gradient and the round's mean gradient, smoothed
               across rounds and mapped through a Gompertz curve
  fedboosting  per-client scalar weights from a softmax over train
               accuracy times summed cross-validation accuracy
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StructureMismatchError
from .tensors import (
    ParameterSet,
    column_softmax,
    flat_inner_product,
    l2_norm,
    mean,
    stack,
)
from .training import ClientUpdate

log = logging.getLogger(__name__)

STRATEGIES = ("fedavg", "fedopt", "fedams", "ewwa", "fedadp", "fedboosting")
VARIANTS = ("adam", "adagrad", "yogi")


@dataclass(frozen=True)
class AggregatorConfig:
    strategy: str = "fedavg"
    variant: str = "adam"
    server_lr: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    adp_alpha: float = 5.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not (self.server_lr > 0 and self.epsilon > 0 and self.adp_alpha > 0):
            raise ValueError("server_lr, epsilon, adp_alpha must be > 0")


@dataclass(frozen=True)
class AggregatorState:
    round: int
    m: ParameterSet
    v: ParameterSet
    v_max: ParameterSet
    smoothed_angles: dict = field(default_factory=dict)  # client_id -> angle


def initial_state(template: ParameterSet) -> AggregatorState:
    zeros = template.with_flat(np.zeros_like(template.to_flat()))
    return AggregatorState(round=0, m=zeros, v=zeros, v_max=zeros,
                           smoothed_angles={})


def _stacked(updates: list[ClientUpdate], state: AggregatorState | None = None,
             ) -> tuple[list[ClientUpdate], np.ndarray]:
    """Updates sorted by client id, and their pseudo-gradients as the rows
    of one new (C, P) array. A given state must share their layout."""
    updates = sorted(updates, key=lambda u: u.client_id)
    g = stack([u.pseudo_gradient for u in updates])
    if state is not None:
        state.m.check_structure(updates[0].pseudo_gradient)
    return updates, g


def _weighted_sum(updates: list[ClientUpdate], g: np.ndarray,
                  weights: np.ndarray) -> ParameterSet:
    """sum_c weights[c] * g[c], adding the rows in client order; consumes g.

    weights is (C,), one scalar per client, or (C, P), one per element."""
    g *= weights.reshape(len(g), -1)
    return updates[0].pseudo_gradient.with_flat(g.sum(axis=0))


def _first_moment(m_prev: np.ndarray, g: np.ndarray,
                  beta1: float) -> np.ndarray:
    """beta1 * m_prev + (1 - beta1) * g, built in one new array like g."""
    m = np.multiply(g, 1 - beta1)
    m += beta1 * m_prev
    return m


def _second_moment(variant: str, v_prev: np.ndarray, g: np.ndarray,
                   beta2: float) -> np.ndarray:
    """The variant's second moment, built in one new array like g (yogi
    also needs one for its sign term). Each keeps the operation order of
    its formula, up to the order of the operands of a + or a *."""
    if variant == "adagrad":  # v_prev + g * g
        v = np.multiply(g, g)
        v += v_prev
        return v
    v = np.multiply(g, 1 - beta2)
    v *= g
    if variant == "adam":  # beta2 * v_prev + (1 - beta2) * g * g
        v += beta2 * v_prev
        return v
    # yogi: v_prev - (1 - beta2) * g * g * sign(v_prev - g * g); the
    # additive form keeps v >= 0 from zero init; sign(0) = 0
    sign = np.multiply(g, g)
    np.subtract(v_prev, sign, out=sign)
    np.sign(sign, out=sign)
    v *= sign
    np.subtract(v_prev, v, out=v)
    return v


def fedavg_aggregate(updates: list[ClientUpdate]) -> ParameterSet:
    """Sample-count weighted mean of client pseudo-gradients."""
    updates, g = _stacked(updates)
    counts = np.array([u.num_samples for u in updates])
    return _weighted_sum(updates, g, counts / counts.sum())


def adaptive_step_size(server_lr: float, beta1: float, beta2: float,
                       r: int) -> float:
    """Round-dependent step sqrt(1 - beta2^r) / (1 - beta1^r), scaled."""
    return server_lr * np.sqrt(1.0 - beta2 ** r) / (1.0 - beta1 ** r)


def _mean_moments(updates: list[ClientUpdate], state: AggregatorState,
                  cfg: AggregatorConfig, variant: str,
                  ) -> tuple[int, np.ndarray, np.ndarray]:
    """Round number, then both moments advanced by the uniform mean gradient."""
    _, g = _stacked(updates, state)
    g_mean = g.sum(axis=0) * (1.0 / len(g))
    m = _first_moment(state.m.to_flat(), g_mean, cfg.beta1)
    v = _second_moment(variant, state.v.to_flat(), g_mean, cfg.beta2)
    return state.round + 1, m, v


def fedopt_aggregate(updates: list[ClientUpdate], state: AggregatorState,
                     cfg: AggregatorConfig) -> tuple[ParameterSet, AggregatorState]:
    """Adaptive server optimizer on the uniform mean gradient."""
    r, m, v = _mean_moments(updates, state, cfg, cfg.variant)
    eta = adaptive_step_size(cfg.server_lr, cfg.beta1, cfg.beta2, r)
    big_g = eta * m / (np.sqrt(v) + cfg.epsilon)
    like = state.m.with_flat
    return like(big_g), replace(state, round=r, m=like(m), v=like(v))


def fedams_aggregate(updates: list[ClientUpdate], state: AggregatorState,
                     cfg: AggregatorConfig) -> tuple[ParameterSet, AggregatorState]:
    """fedopt-adam with a max-stabilized denominator."""
    r, m, v = _mean_moments(updates, state, cfg, "adam")
    v_max = np.maximum(state.v_max.to_flat(), v)
    eta = adaptive_step_size(cfg.server_lr, cfg.beta1, cfg.beta2, r)
    big_g = eta * m / (np.sqrt(v_max) + cfg.epsilon)
    like = state.m.with_flat
    return like(big_g), replace(state, round=r, m=like(m), v=like(v),
                                v_max=like(v_max))


def ewwa_aggregate(updates: list[ClientUpdate], state: AggregatorState,
                   cfg: AggregatorConfig, return_proportions: bool = False):
    """Element-wise adaptive aggregation.

    Per client (one row of the (C, P) stack): moments from the shared
    previous state, bias correction, contribution score
    b = lr * m_hat / (sqrt(v_hat) + eps). A softmax down every column
    yields per-element proportions, and G is the proportion-weighted sum
    of client gradients. The shared state advances to the uniform mean
    of the per-client moments.
    """
    updates, g = _stacked(updates, state)
    r = state.round + 1
    bc1 = 1.0 - cfg.beta1 ** r
    bc2 = 1.0 - cfg.beta2 ** r
    m = _first_moment(state.m.to_flat(), g, cfg.beta1)
    v = _second_moment(cfg.variant, state.v.to_flat(), g, cfg.beta2)
    like = state.m.with_flat
    new_state = replace(state, round=r, m=like(m.sum(axis=0) * (1.0 / len(g))),
                        v=like(v.sum(axis=0) * (1.0 / len(g))))
    # b = lr * (m / bc1) / (sqrt(v / bc2) + eps), built in place in m
    m /= bc1
    m *= cfg.server_lr
    v /= bc2
    np.sqrt(v, out=v)
    v += cfg.epsilon
    m /= v
    del v
    p = column_softmax(m)
    big_g = _weighted_sum(updates, g, p)
    if return_proportions:
        return big_g, new_state, [like(row) for row in p]
    return big_g, new_state


def gompertz_contribution(smoothed_angle: float, alpha: float) -> float:
    """Saturating angle-to-contribution map alpha*(1 - exp(-exp(alpha*(1-angle))))."""
    return alpha * (1.0 - 1.0 / np.exp(np.exp(alpha * (1.0 - smoothed_angle))))


def fedadp_aggregate(updates: list[ClientUpdate], state: AggregatorState,
                     cfg: AggregatorConfig, global_mean_grad: ParameterSet,
                     ) -> tuple[ParameterSet, AggregatorState]:
    """Angle-based per-client weighting with running-mean smoothing."""
    updates, g = _stacked(updates)
    r = state.round + 1
    norm_global = l2_norm(global_mean_grad)
    angles = {}
    for u in updates:
        norm_local = l2_norm(u.pseudo_gradient)
        if norm_global < 1e-300 or norm_local < 1e-300:
            log.warning("client %d: zero-norm gradient, neutral angle", u.client_id)
            theta = np.pi / 2.0
        else:
            cos = flat_inner_product(global_mean_grad, u.pseudo_gradient) / (
                norm_global * norm_local
            )
            theta = float(np.arccos(np.clip(cos, -1.0, 1.0)))
        prev = state.smoothed_angles.get(u.client_id)
        angles[u.client_id] = theta if prev is None else ((r - 1) * prev + theta) / r
    contribs = np.array([
        gompertz_contribution(angles[u.client_id], cfg.adp_alpha) for u in updates
    ])
    weights = column_softmax(contribs)
    return (_weighted_sum(updates, g, weights),
            replace(state, round=r, smoothed_angles=angles))


def fedboosting_aggregate(updates: list[ClientUpdate], cross_val: np.ndarray,
                          train_metrics: np.ndarray) -> ParameterSet:
    """Nested-softmax weighting from train accuracy and cross-validation.

    cross_val[i][j] is model i's validation accuracy on client j's
    held-out split; train_metrics[i] is client i's final train accuracy.
    """
    updates, g = _stacked(updates)
    c = len(updates)
    cross_val = np.asarray(cross_val, dtype=np.float64)
    # a copy: column_softmax below overwrites its argument
    train_metrics = np.array(train_metrics, dtype=np.float64)
    if cross_val.shape != (c, c):
        raise StructureMismatchError(
            f"cross_val shape {cross_val.shape}, expected {(c, c)}"
        )
    if train_metrics.shape != (c,):
        raise StructureMismatchError(
            f"train_metrics shape {train_metrics.shape}, expected {(c,)}"
        )
    s = column_softmax(train_metrics)
    off_diag_sums = cross_val.sum(axis=1) - np.diag(cross_val)
    weights = column_softmax(s * off_diag_sums)
    return _weighted_sum(updates, g, weights)


def aggregate(updates: list[ClientUpdate], state: AggregatorState,
              cfg: AggregatorConfig, cross_validate=None,
              ) -> tuple[ParameterSet, AggregatorState]:
    """One round of cfg.strategy on the round's updates: (G, new state).

    fedavg and fedboosting keep no state and pass it through. fedadp's
    angles are taken against the uniform mean gradient. fedboosting reads
    the train accuracies first, so that a train loss that overflows names
    its client, then calls cross_validate on the clients' trained weights,
    in client order, for the C x C matrix. The *_aggregate functions are
    read as module globals at each call, so rebinding one takes effect.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if cfg.strategy == "fedavg":
        return fedavg_aggregate(updates), state
    if cfg.strategy == "fedopt":
        return fedopt_aggregate(updates, state, cfg)
    if cfg.strategy == "fedams":
        return fedams_aggregate(updates, state, cfg)
    if cfg.strategy == "ewwa":
        return ewwa_aggregate(updates, state, cfg)
    if cfg.strategy == "fedadp":
        return fedadp_aggregate(updates, state, cfg,
                                mean([u.pseudo_gradient for u in updates]))
    train_acc = [u.train_accuracy for u in updates]
    cross_val = cross_validate([u.local_params for u in updates])
    return fedboosting_aggregate(updates, cross_val, train_acc), state
