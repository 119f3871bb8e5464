"""Deterministic federated-learning simulation with element-wise
adaptive weight aggregation and six server-side strategies."""

from .aggregators import (
    AggregatorConfig,
    AggregatorState,
    ewwa_aggregate,
    fedadp_aggregate,
    fedams_aggregate,
    fedavg_aggregate,
    fedboosting_aggregate,
    fedopt_aggregate,
    initial_state,
)
from .data import (
    Dataset,
    Partition,
    load_idx,
    partition_iid,
    partition_label_skew,
    split_train_test,
    synth_blobs,
)
from .federation import (
    FederationConfig,
    RoundRecord,
    apply_global_update,
    run_federation,
)
from .models import Batch, ModelSpec, evaluate, init_params, loss_and_grad
from .reporting import compare_runs, emit_metrics, parse_config
from .tensors import (
    ParameterSet,
    flat_inner_product,
    l2_norm,
    zip_map,
)
from .training import ClientUpdate, LocalConfig, train_local

__version__ = "0.1.0"
