"""The federation round loop.

Each round: broadcast global weights, train every client locally,
aggregate the pseudo-gradients with the configured strategy, apply
w <- w - step_scale * G, evaluate on the server-held test split, and
record metrics. The whole run is a pure function of the config seed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import aggregators as agg
from .aggregators import AggregatorConfig
from .data import (
    Dataset,
    load_idx,
    partition_iid,
    partition_label_skew,
    split_train_test,
    synth_blobs,
)
from .errors import RunError, FedSimError
from .models import (ACTIVATIONS, MODEL_KINDS, ModelSpec, evaluate, init_params,
                     segment_accuracy)
from .tensors import ParameterSet, mean, zip_map
from .training import ClientUpdate, LocalConfig, local_params_from_update, train_local

TRAIN_RATIO = 0.9


@dataclass(frozen=True)
class FederationConfig:
    num_clients: int = 3
    rounds: int = 10
    model_kind: str = "mlp"
    hidden_dim: int = 32
    activation: str = "relu"
    local: LocalConfig = field(default_factory=LocalConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    partition: str = "iid"  # iid | label_skew
    concentration: float = 0.5
    data_source: str = "synth"  # synth | idx
    idx_images: str = ""
    idx_labels: str = ""
    synth_classes: int = 5
    synth_per_class: int = 200
    synth_dim: int = 16
    synth_spread: float = 0.3
    seed: int = 0
    global_step_scale: float = 1.0

    def __post_init__(self):
        for key in ("num_clients", "rounds", "hidden_dim", "synth_per_class",
                    "synth_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model_kind {self.model_kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.partition not in ("iid", "label_skew"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.data_source not in ("synth", "idx"):
            raise ValueError(f"unknown data_source {self.data_source!r}")
        if self.synth_classes < 2:
            raise ValueError("synth_classes must be >= 2")
        for key in ("concentration", "synth_spread", "global_step_scale"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    global_test_accuracy: float
    global_test_loss: float
    mean_local_train_loss: float
    per_client_train_loss: list
    wall_ms: int


def apply_global_update(params: ParameterSet, big_g: ParameterSet,
                        step_scale: float) -> ParameterSet:
    """w' = w - step_scale * G."""
    return zip_map(params, big_g, lambda w, g: w - step_scale * g)


def client_seed(base_seed: int, round_num: int, cid: int) -> int:
    """Stable per-(seed, round, client) stream seed."""
    ss = np.random.SeedSequence([base_seed, round_num, cid])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def load_source(cfg: FederationConfig) -> Dataset:
    if cfg.data_source == "idx":
        return load_idx(cfg.idx_images, cfg.idx_labels)
    return synth_blobs(cfg.synth_classes, cfg.synth_per_class, cfg.synth_dim,
                       cfg.synth_spread, cfg.seed)


def build_model_spec(cfg: FederationConfig, data: Dataset) -> ModelSpec:
    """Input and class dims come from the data; the rest from config."""
    return ModelSpec(
        kind=cfg.model_kind,
        input_dim=data.features.shape[1],
        num_classes=data.num_classes,
        hidden_dim=cfg.hidden_dim if cfg.model_kind == "mlp" else 0,
        activation=cfg.activation,
    )


def build_partition(cfg: FederationConfig, train: Dataset):
    if cfg.partition == "iid":
        return partition_iid(train, cfg.num_clients, cfg.seed)
    return partition_label_skew(train, cfg.num_clients, cfg.concentration, cfg.seed)


def _boosting_inputs(cfg: FederationConfig, spec, global_params,
                     updates: list[ClientUpdate], val_all: Dataset,
                     val_starts: np.ndarray):
    """Cross-validation matrix V[i][j] and train-accuracy vector T.

    val_all holds every client's validation rows back to back, client j's
    starting at row val_starts[j], so row i of V is one forward pass of
    client i's local model.
    """
    cross_val = np.stack([
        segment_accuracy(local_params_from_update(global_params, u, cfg.local.lr),
                         spec, val_all.features, val_all.labels, val_starts)
        for u in updates])
    train_metrics = np.array([u.train_accuracy for u in updates])
    return cross_val, train_metrics


def run_federation(cfg: FederationConfig,
                   data: Dataset | None = None) -> list[RoundRecord]:
    """Run the full federation loop and return one record per round."""
    if data is None:
        data = load_source(cfg)
    train, test = split_train_test(data, TRAIN_RATIO, cfg.seed)
    partition = build_partition(cfg, train)
    shards = [train.subset(idx) for idx in partition.shards]
    spec = build_model_spec(cfg, data)
    params = init_params(spec, cfg.seed)
    state = agg.initial_state(params)
    strategy = cfg.aggregator.strategy

    if strategy == "fedboosting":
        # each client holds out a local validation slice for the V matrix
        split_shards, val_sets = [], []
        for cid, shard in enumerate(shards):
            tr, val = split_train_test(shard, TRAIN_RATIO,
                                       client_seed(cfg.seed, 0, cid))
            split_shards.append(tr)
            val_sets.append(val)
        shards = split_shards
        val_all = Dataset(np.concatenate([v.features for v in val_sets]),
                          np.concatenate([v.labels for v in val_sets]),
                          data.num_classes)
        val_starts = np.cumsum([0] + [v.n for v in val_sets[:-1]])

    records: list[RoundRecord] = []
    for r in range(1, cfg.rounds + 1):
        t0 = time.perf_counter()
        try:
            # overflow yields inf/NaN, which the finite checks turn into
            # NonFiniteError; NumPy's own warnings would only repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                updates = [
                    train_local(params, spec, shards[cid], cfg.local,
                                client_seed(cfg.seed, r, cid), client_id=cid)
                    for cid in range(cfg.num_clients)
                ]
                if strategy == "fedavg":
                    big_g = agg.fedavg_aggregate(updates)
                elif strategy == "fedopt":
                    big_g, state = agg.fedopt_aggregate(updates, state, cfg.aggregator)
                elif strategy == "fedams":
                    big_g, state = agg.fedams_aggregate(updates, state, cfg.aggregator)
                elif strategy == "ewwa":
                    big_g, state = agg.ewwa_aggregate(updates, state, cfg.aggregator)
                elif strategy == "fedadp":
                    g_mean = mean([u.pseudo_gradient for u in updates])
                    big_g, state = agg.fedadp_aggregate(updates, state,
                                                        cfg.aggregator, g_mean)
                elif strategy == "fedboosting":
                    cross_val, train_metrics = _boosting_inputs(
                        cfg, spec, params, updates, val_all, val_starts)
                    big_g = agg.fedboosting_aggregate(updates, cross_val, train_metrics)
                params = apply_global_update(params, big_g, cfg.global_step_scale)
                test_acc, test_loss = evaluate(params, spec, test)
        except FedSimError as exc:
            raise RunError(r, exc) from exc
        wall_ms = int(round((time.perf_counter() - t0) * 1000))
        per_client = [u.train_loss for u in updates]
        records.append(RoundRecord(
            round=r,
            global_test_accuracy=test_acc,
            global_test_loss=test_loss,
            mean_local_train_loss=float(np.mean(per_client)),
            per_client_train_loss=per_client,
            wall_ms=wall_ms,
        ))
    return records
