"""The federation round loop.

Each round: broadcast global weights, train every client locally,
aggregate the pseudo-gradients with the configured strategy, apply
w <- w - step_scale * G, evaluate on the server-held test split, and
record metrics. The whole run is a pure function of the config seed.
"""
from __future__ import annotations

import ctypes
import math
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
from .errors import (ConfigError, FedSimError, InsufficientDataError, RunError,
                     naming)
from .models import (ACTIVATIONS, MLP, MODEL_KINDS, ModelSpec, cross_accuracy,
                     evaluate, init_params)
from .tensors import ParameterSet, zip_map
from .training import MAX_PASSES, ClientUpdate, LocalConfig, train_local

TRAIN_RATIO = 0.9
# the most float64 values a NumPy array can address
MAX_VALUES = np.iinfo(np.intp).max // 8


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
        if self.rounds > MAX_PASSES:
            raise ValueError(f"rounds must be <= {MAX_PASSES}")
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
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be > 0 and finite")
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


def _check_size(values: int, what: str) -> None:
    """values, a Python int, must fit in one NumPy float64 array."""
    if values > MAX_VALUES:
        raise ConfigError(f"{what} hold {values} values, more than NumPy can "
                          f"address ({MAX_VALUES})")


def load_source(cfg: FederationConfig) -> Dataset:
    if cfg.data_source == "idx":
        return load_idx(cfg.idx_images, cfg.idx_labels)
    _check_size(cfg.synth_classes * cfg.synth_per_class * cfg.synth_dim,
                "the synthetic features (synth_classes x synth_per_class x "
                "synth_dim)")
    with np.errstate(over="ignore", invalid="ignore"):
        data = synth_blobs(cfg.synth_classes, cfg.synth_per_class,
                           cfg.synth_dim, cfg.synth_spread, cfg.seed)
    if not np.isfinite(data.features).all():
        raise ConfigError(f"synth_spread {cfg.synth_spread} makes the synthetic "
                          "features overflow")
    return data


def build_model_spec(cfg: FederationConfig, data: Dataset) -> ModelSpec:
    """Input and class dims come from the data; the rest from config."""
    spec = ModelSpec(
        kind=cfg.model_kind,
        input_dim=data.features.shape[1],
        num_classes=data.num_classes,
        hidden_dim=cfg.hidden_dim if cfg.model_kind == MLP else 0,
        activation=cfg.activation,
    )
    _check_size(sum(math.prod(shape) for _, shape in spec.layer_shapes()),
                f"the layers of model_kind {spec.kind!r} with hidden_dim "
                f"{spec.hidden_dim}")
    return spec


def build_partition(cfg: FederationConfig, data: Dataset):
    """The seeded test split of data and the client shards of its train side."""
    train, test = split_train_test(data, TRAIN_RATIO, cfg.seed)
    if cfg.partition == "iid":
        partition = partition_iid(train, cfg.num_clients, cfg.seed)
    else:
        try:
            partition = partition_label_skew(train, cfg.num_clients,
                                             cfg.concentration, cfg.seed)
        except ValueError as exc:  # a concentration that overflows the draw
            raise ConfigError(str(exc)) from exc
    return test, [train.subset(idx) for idx in partition.shards]


def train_round(params: ParameterSet, spec: ModelSpec, shards: list[Dataset],
                cfg: FederationConfig, round_num: int) -> list[ClientUpdate]:
    """Every client's local training from params, in client order."""
    return [train_local(params, spec, shard, cfg.local,
                        client_seed(cfg.seed, round_num, cid), client_id=cid)
            for cid, shard in enumerate(shards)]


def keep_freed_arrays_in_heap() -> None:
    """Fix glibc's malloc thresholds, so that freed arrays stay in the heap.

    Every round allocates and frees the same arrays of up to a few MB: each
    client's shuffled shard and the activations of its evaluate. Under
    glibc's adaptive thresholds, whether free() hands them back to the OS
    depends on where unrelated long-lived objects lie in the heap, which
    shifts with the sizes of the sources and the length of the checkout's
    path. In the unlucky layout every round faults a thousand pages or more
    back in, and the slowest rounds take 25% longer. With fixed thresholds
    every process takes the same path. Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB use the heap,
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: which keeps up to 64 MiB free


def run_federation(cfg: FederationConfig,
                   data: Dataset | None = None) -> list[RoundRecord]:
    """Run the full federation loop and return one record per round."""
    keep_freed_arrays_in_heap()
    if data is None:
        data = load_source(cfg)
    test, shards = build_partition(cfg, data)
    spec = build_model_spec(cfg, data)
    params = init_params(spec, cfg.seed)
    state = agg.initial_state(params)
    cross_validate = None
    if cfg.aggregator.strategy == "fedboosting":
        # each client holds out a local validation slice for the V matrix
        splits = []
        for cid, shard in enumerate(shards):
            with naming(f"client {cid}: fedboosting hold-out",
                        InsufficientDataError):
                splits.append(split_train_test(shard, TRAIN_RATIO,
                                               client_seed(cfg.seed, 0, cid)))
        shards, held_out = [tr for tr, _ in splits], [v for _, v in splits]
        cross_validate = lambda models: cross_accuracy(models, spec, held_out)

    records: list[RoundRecord] = []
    for r in range(1, cfg.rounds + 1):
        t0 = time.perf_counter()
        try:
            # overflow yields inf/NaN, which the finite checks turn into
            # NonFiniteError; NumPy's own warnings would only repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                updates = train_round(params, spec, shards, cfg, r)
                big_g, state = agg.aggregate(updates, state, cfg.aggregator,
                                             cross_validate)
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
        # free this round's updates, which hold the clients' final weights,
        # before the next round trains
        del updates
    return records
