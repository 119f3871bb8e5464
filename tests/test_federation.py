import numpy as np
import pytest

from fedsim.aggregators import AggregatorConfig
from fedsim.data import Dataset, synth_blobs, split_train_test
from fedsim.errors import NonFiniteError, StructureMismatchError
from fedsim.federation import (
    FederationConfig,
    TRAIN_RATIO,
    _boosting_inputs,
    apply_global_update,
    client_seed,
    load_checkpoint,
    run_federation,
    save_checkpoint,
)
from fedsim.models import Batch, ModelSpec, evaluate, init_params, loss_and_grad
from fedsim.tensors import ParameterSet, zip_map
from fedsim.training import ClientUpdate, LocalConfig, local_params_from_update


def small_cfg(**kwargs):
    base = dict(
        num_clients=3, rounds=3, model_kind="softmax_regression",
        local=LocalConfig(lr=0.05, momentum=0.0, batch_size=16),
        synth_classes=3, synth_per_class=40, synth_dim=6, synth_spread=0.4,
        seed=7, global_step_scale=0.05,
    )
    base.update(kwargs)
    return FederationConfig(**base)


class TestApplyGlobalUpdate:
    def w(self):
        return ParameterSet([("w", (2,), [1.0, 1.0])])

    def test_zero_update_is_fixed_point(self):
        zeros = ParameterSet([("w", (2,), [0.0, 0.0])])
        out = apply_global_update(self.w(), zeros, 1.0)
        np.testing.assert_array_equal(out.to_flat(), [1.0, 1.0])

    def test_componentwise(self):
        g = ParameterSet([("w", (2,), [0.5, -0.5])])
        out = apply_global_update(self.w(), g, 1.0)
        np.testing.assert_array_equal(out.to_flat(), [0.5, 1.5])

    def test_structure_mismatch(self):
        g = ParameterSet([("x", (2,), [0.0, 0.0])])
        with pytest.raises(StructureMismatchError):
            apply_global_update(self.w(), g, 1.0)


class TestRunFederation:
    def test_round_count(self):
        records = run_federation(small_cfg(rounds=5))
        assert [r.round for r in records] == [1, 2, 3, 4, 5]

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(rounds=0)

    @pytest.mark.parametrize("make", [
        lambda nan: LocalConfig(lr=nan),
        lambda nan: AggregatorConfig(server_lr=nan),
        lambda nan: AggregatorConfig(epsilon=nan),
        lambda nan: AggregatorConfig(adp_alpha=nan),
        lambda nan: FederationConfig(concentration=nan),
        lambda nan: FederationConfig(synth_spread=nan),
        lambda nan: FederationConfig(global_step_scale=nan),
    ])
    def test_nan_is_rejected_by_the_python_api(self, make):
        with pytest.raises(ValueError, match="must be > 0"):
            make(float("nan"))

    def test_deterministic_records(self):
        a = run_federation(small_cfg())
        b = run_federation(small_cfg())
        for ra, rb in zip(a, b):
            assert ra.global_test_accuracy == rb.global_test_accuracy
            assert ra.global_test_loss == rb.global_test_loss
            assert ra.per_client_train_loss == rb.per_client_train_loss

    def test_single_client_matches_centralized_descent(self):
        """C=1, full batch, momentum 0, step scale = centralized lr."""
        lr = 0.05
        cfg = small_cfg(
            num_clients=1, rounds=10,
            local=LocalConfig(lr=0.5, momentum=0.0, batch_size=10_000),
            global_step_scale=lr * 0.5,  # pseudo-grad carries 1/local_lr
        )
        records = run_federation(cfg)

        data = synth_blobs(cfg.synth_classes, cfg.synth_per_class,
                           cfg.synth_dim, cfg.synth_spread, cfg.seed)
        train, test = split_train_test(data, TRAIN_RATIO, cfg.seed)
        spec = ModelSpec("softmax_regression", input_dim=cfg.synth_dim,
                         num_classes=data.num_classes)
        params = init_params(spec, cfg.seed)
        batch = Batch(train.features, train.labels)
        for rec in records:
            # centralized full-batch gradient descent, same starting point;
            # the federated local step size cancels out of the trajectory
            _, grad = loss_and_grad(params, spec, batch)
            params = zip_map(params, grad, lambda w, g: w - lr * 0.5 * g)
            acc, loss = evaluate(params, spec, test)
            assert rec.global_test_loss == pytest.approx(loss, abs=1e-10)

    @pytest.mark.parametrize("strategy", [
        "fedavg", "fedopt", "fedams", "ewwa", "fedadp", "fedboosting"])
    def test_every_strategy_completes(self, strategy):
        cfg = small_cfg(aggregator=AggregatorConfig(strategy=strategy))
        records = run_federation(cfg)
        assert len(records) == cfg.rounds
        for rec in records:
            assert np.isfinite(rec.global_test_loss)

    def test_strategy_swap_keeps_round_one_training(self):
        """Aggregator choice must not leak into partitioning or local SGD."""
        losses = {}
        for strategy in ("fedavg", "fedopt", "ewwa", "fedadp"):
            cfg = small_cfg(aggregator=AggregatorConfig(strategy=strategy))
            losses[strategy] = run_federation(cfg)[0].per_client_train_loss
        baseline = losses.pop("fedavg")
        for other in losses.values():
            assert other == baseline

    def test_label_skew_partition_runs(self):
        cfg = small_cfg(partition="label_skew", concentration=0.5,
                        synth_per_class=60)
        records = run_federation(cfg)
        assert len(records) == cfg.rounds

    def test_client_seed_is_pure_function(self):
        assert client_seed(1, 2, 3) == client_seed(1, 2, 3)
        assert client_seed(1, 2, 3) != client_seed(1, 2, 4)
        assert client_seed(1, 2, 3) != client_seed(1, 3, 3)


class TestBoostingInputs:
    SIZES = [1, 9, 64, 131, 2]  # unequal validation sets, one of one row
    CFG = small_cfg(local=LocalConfig(lr=0.05))

    def inputs(self, spec, scales):
        rng = np.random.default_rng(5)
        global_params = init_params(spec, 1)
        updates = [
            ClientUpdate(cid, global_params.with_flat(
                rng.normal(scale=scale, size=global_params.to_flat().size)),
                10, 0.5, 0.25 * cid)
            for cid, scale in enumerate(scales)]
        data = synth_blobs(spec.num_classes, 80, spec.input_dim, 1.5, 3)
        data = data.subset(rng.permutation(data.n))
        val_sets = []
        for size in self.SIZES:
            val_sets.append(data.subset(np.arange(size)))
            data = data.subset(np.arange(size, data.n))
        val_all = Dataset(np.concatenate([v.features for v in val_sets]),
                          np.concatenate([v.labels for v in val_sets]),
                          spec.num_classes)
        starts = np.cumsum([0] + self.SIZES[:-1])
        return global_params, updates, val_sets, val_all, starts

    @pytest.mark.parametrize("spec", [
        ModelSpec("mlp", input_dim=32, num_classes=10, hidden_dim=64),
        ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=5,
                  activation="sigmoid"),
        ModelSpec("softmax_regression", input_dim=6, num_classes=4),
    ], ids=lambda s: f"{s.kind}-{s.activation}")
    def test_matrix_equals_the_per_pair_evaluate_loop(self, spec):
        global_params, updates, val_sets, val_all, starts = self.inputs(
            spec, [0.0, 1.0, 5.0, 20.0])
        cross_val, train_metrics = _boosting_inputs(
            self.CFG, spec, global_params, updates, val_all, starts)
        expected = np.array([
            [evaluate(local_params_from_update(global_params, u, self.CFG.local.lr),
                      spec, val)[0] for val in val_sets]
            for u in updates])
        assert np.array_equal(cross_val, expected)
        assert np.array_equal(train_metrics, [0.0, 0.25, 0.5, 0.75])

    def test_overflowing_local_weights_raise_non_finite(self):
        spec = ModelSpec("mlp", input_dim=32, num_classes=10, hidden_dim=64)
        global_params, updates, val_sets, val_all, starts = self.inputs(
            spec, [1.0, 1e306])
        local = local_params_from_update(global_params, updates[1],
                                         self.CFG.local.lr)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="evaluate: non-finite loss"):
                evaluate(local, spec, val_sets[0])
            with pytest.raises(NonFiniteError, match="evaluate: non-finite loss"):
                _boosting_inputs(self.CFG, spec, global_params, updates,
                                 val_all, starts)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        from fedsim.aggregators import initial_state
        spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5)
        params = init_params(spec, 3)
        state = initial_state(params)
        state = state.__class__(round=4, m=params, v=params, v_max=params,
                                smoothed_angles={0: 0.5, 2: 1.25})
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, 4, params, state)
        round_num, params2, state2 = load_checkpoint(path)
        assert round_num == 4
        assert state2.round == 4
        np.testing.assert_array_equal(params.to_flat(), params2.to_flat())
        np.testing.assert_array_equal(state.m.to_flat(), state2.m.to_flat())
        assert state2.smoothed_angles == {0: 0.5, 2: 1.25}

    def test_emitted_during_run(self, tmp_path):
        path = tmp_path / "run.npz"
        run_federation(small_cfg(rounds=4), checkpoint_every=2,
                       checkpoint_path=path)
        round_num, _, _ = load_checkpoint(path)
        assert round_num == 4
