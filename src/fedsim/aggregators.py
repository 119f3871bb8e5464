"""Server-side aggregation strategies.

All strategies consume the round's ClientUpdates, sorted by client id,
and reduce their pseudo-gradients element by element to the global update
G, which the round loop applies as w <- w - step_scale * G. None stacks
them into one (C, P) array: scalar client weights and the uniform mean
fold the clients' vectors into one (tensors.fold), and ewwa works on one
column block at a time. Rows are always added in client order, except in
ewwa's column sums when P = 1, which NumPy adds pairwise. Adaptive
strategies also carry persistent moment state across rounds. A round
calls its strategy through aggregate(), which gathers each strategy's
inputs; the *_aggregate functions take them explicitly.

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

from .errors import NonFiniteError, StructureMismatchError, naming
from .tensors import (
    ParameterSet,
    column_softmax,
    flat_inner_product,
    fold,
    l2_norm,
    mean,
    rows,
)
from .training import ClientUpdate

log = logging.getLogger(__name__)

STRATEGIES = ("fedavg", "fedopt", "fedams", "ewwa", "fedadp", "fedboosting")
VARIANTS = ("adam", "adagrad", "yogi")
BLOCK_VALUES = 1 << 16


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


def _rows(updates: list[ClientUpdate], state: AggregatorState | None = None,
          ) -> tuple[list[ClientUpdate], list[np.ndarray]]:
    """Updates sorted by client id, and their pseudo-gradients' read-only
    vectors. A given state must share their layout."""
    updates = sorted(updates, key=lambda u: u.client_id)
    g = rows([u.pseudo_gradient for u in updates])
    if state is not None:
        state.m.check_structure(updates[0].pseudo_gradient)
    return updates, g


def _column_blocks(c: int, p: int) -> list[tuple[int, int]]:
    """Fewest balanced [start, stop) ranges over [0, p) for (c, width) blocks of
    <= BLOCK_VALUES values, >= 2 wide unless p < 2 (NumPy sums (c, 1) pairwise)."""
    n = max(1, min(p // 2, -(-p // max(2, BLOCK_VALUES // c))))
    bounds = [p * i // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _first_moment(m_prev: np.ndarray, g: np.ndarray,
                  beta1: float) -> np.ndarray:
    """beta1 * m_prev + (1 - beta1) * g, built in one new array like g: every
    benchmark workload runs it, and in place it keeps ewwa's blocks fast."""
    m = np.multiply(g, 1 - beta1)
    m += beta1 * m_prev
    return m


def _second_moment(variant: str, v_prev: np.ndarray, g: np.ndarray,
                   beta2: float) -> np.ndarray:
    """The variant's second moment as a new array like g. adam's is built in
    one array, in place, since every benchmark workload runs adam; adagrad
    and yogi, which none runs, are their formulas as written."""
    if variant == "adagrad":
        return v_prev + g * g
    if variant == "yogi":  # additive form keeps v >= 0 from zero; sign(0) = 0
        return v_prev - (1 - beta2) * g * g * np.sign(v_prev - g * g)
    # adam: beta2 * v_prev + (1 - beta2) * g * g
    v = np.multiply(g, 1 - beta2)
    v *= g
    v += beta2 * v_prev
    return v


def fedavg_aggregate(updates: list[ClientUpdate]) -> ParameterSet:
    """Sample-count weighted mean of client pseudo-gradients."""
    updates, g = _rows(updates)
    counts = np.array([u.num_samples for u in updates])
    return updates[0].pseudo_gradient.with_flat(fold(g, counts / counts.sum()))


def adaptive_step_size(server_lr: float, beta1: float, beta2: float,
                       r: int) -> float:
    """Round-dependent step sqrt(1 - beta2^r) / (1 - beta1^r), scaled."""
    return server_lr * np.sqrt(1.0 - beta2 ** r) / (1.0 - beta1 ** r)


def _mean_moments(updates: list[ClientUpdate], state: AggregatorState,
                  cfg: AggregatorConfig, variant: str,
                  ) -> tuple[int, np.ndarray, np.ndarray]:
    """Round number, then both moments advanced by the uniform mean gradient."""
    _, g = _rows(updates, state)
    g_mean = fold(g)
    g_mean *= 1.0 / len(g)
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

    Per client: moments from the shared previous state, bias correction,
    contribution score b = lr * m_hat / (sqrt(v_hat) + eps). A softmax
    across clients yields per-element proportions, and G is the
    proportion-weighted sum of client gradients. The shared state advances
    to the uniform mean of the per-client moments. Each column block of the
    clients' gradients runs on its own; the new m, v and G are then tested.
    The scores and the weighted sum are built in place: skew_c100 times them.
    """
    updates, grads = _rows(updates, state)
    c, r = len(grads), state.round + 1
    m_prev, v_prev = state.m.to_flat(), state.v.to_flat()
    m_mean, v_mean, big_g = (np.empty(m_prev.size) for _ in range(3))
    p_all = np.empty((c, m_prev.size)) if return_proportions else None
    for lo, hi in _column_blocks(c, m_prev.size):
        g = np.concatenate([row[lo:hi] for row in grads]).reshape(c, hi - lo)
        m = _first_moment(m_prev[lo:hi], g, cfg.beta1)
        v = _second_moment(cfg.variant, v_prev[lo:hi], g, cfg.beta2)
        m_mean[lo:hi] = m.sum(axis=0) * (1.0 / c)
        v_mean[lo:hi] = v.sum(axis=0) * (1.0 / c)
        # b = lr * (m / bc1) / (sqrt(v / bc2) + eps), built in place in m
        m /= 1.0 - cfg.beta1 ** r
        m *= cfg.server_lr
        v /= 1.0 - cfg.beta2 ** r
        np.sqrt(v, out=v)
        v += cfg.epsilon
        m /= v
        p = column_softmax(m)
        if p_all is not None:
            p_all[:, lo:hi] = p
        g *= p
        big_g[lo:hi] = g.sum(axis=0)
        del g, m, v, p  # free this block before the next is gathered
    like = state.m.with_flat
    new_state = replace(state, round=r, m=like(m_mean), v=like(v_mean))
    big_g = updates[0].pseudo_gradient.with_flat(big_g)
    if return_proportions:
        return big_g, new_state, [like(row) for row in p_all]
    return big_g, new_state


def gompertz_contribution(smoothed_angle: float, alpha: float) -> float:
    """Saturating angle-to-contribution map alpha*(1 - exp(-exp(alpha*(1-angle))))."""
    return alpha * (1.0 - 1.0 / np.exp(np.exp(alpha * (1.0 - smoothed_angle))))


def fedadp_aggregate(updates: list[ClientUpdate], state: AggregatorState,
                     cfg: AggregatorConfig, global_mean_grad: ParameterSet,
                     ) -> tuple[ParameterSet, AggregatorState]:
    """Angle-based per-client weighting with running-mean smoothing."""
    updates, g = _rows(updates)
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
    return (updates[0].pseudo_gradient.with_flat(fold(g, column_softmax(contribs))),
            replace(state, round=r, smoothed_angles=angles))


def fedboosting_aggregate(updates: list[ClientUpdate], cross_val: np.ndarray,
                          train_metrics: np.ndarray) -> ParameterSet:
    """Nested-softmax weighting from train accuracy and cross-validation.

    cross_val[i][j] is model i's validation accuracy on client j's
    held-out split; train_metrics[i] is client i's final train accuracy.
    """
    updates, g = _rows(updates)
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
    return updates[0].pseudo_gradient.with_flat(fold(g, weights))


def aggregate(updates: list[ClientUpdate], state: AggregatorState,
              cfg: AggregatorConfig, cross_validate=None,
              ) -> tuple[ParameterSet, AggregatorState]:
    """One round of cfg.strategy on the round's updates: (G, new state).

    fedavg and fedboosting keep no state and pass it through. fedadp's
    angles are taken against the uniform mean gradient. fedboosting reads
    the train accuracies first, so that a train loss that overflows names
    its client, then calls cross_validate on the clients' trained weights,
    in client order, for the C x C matrix. Every other NonFiniteError is
    named as the "aggregate" phase. The *_aggregate functions are read as
    module globals at each call, so rebinding one takes effect.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    if cfg.strategy == "fedboosting":  # outside the phase: errors name the client
        train_acc = [u.train_accuracy for u in updates]
    with naming("aggregate", NonFiniteError):
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
        cross_val = cross_validate([u.local_params for u in updates])
        return fedboosting_aggregate(updates, cross_val, train_acc), state
