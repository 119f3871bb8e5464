import platform
import resource
from dataclasses import replace

import numpy as np
import pytest

from fedsim import federation, training
from fedsim.aggregators import AggregatorConfig, fedboosting_aggregate
from fedsim.data import synth_blobs, split_train_test
from fedsim.errors import (ConfigError, InsufficientDataError, NonFiniteError,
                           RunError, StructureMismatchError)
from fedsim.federation import (
    FederationConfig,
    TRAIN_RATIO,
    apply_global_update,
    build_model_spec,
    build_partition,
    client_seed,
    run_federation,
)
from fedsim.models import (Batch, ModelSpec, cross_accuracy, evaluate, init_params,
                           loss_and_grad)
from fedsim.tensors import ParameterSet, zip_map
from fedsim.training import LocalConfig, train_local


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

    @pytest.mark.parametrize("key", ["concentration", "synth_spread",
                                     "global_step_scale"])
    def test_inf_is_rejected_by_the_python_api(self, key):
        with pytest.raises(ValueError, match=f"{key} must be > 0 and finite"):
            FederationConfig(**{key: float("inf")})

    @pytest.mark.filterwarnings("error")
    def test_a_concentration_whose_draw_overflows_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^concentration 1e\\+308 must"):
            run_federation(small_cfg(partition="label_skew", concentration=1e308))
        # a tiny concentration draws extreme but valid proportions
        cfg = small_cfg(partition="label_skew", concentration=1e-300)
        _, shards = build_partition(cfg, federation.load_source(cfg))
        assert sum(shard.n for shard in shards) == 108

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

    def test_a_shard_too_small_to_hold_out_names_its_client(self):
        """fedboosting holds out part of every shard; a one-row shard has
        nothing to split, and the error says whose it is."""
        cfg = small_cfg(num_clients=40, partition="label_skew",
                        concentration=0.05, synth_classes=5, synth_per_class=20,
                        seed=0, aggregator=AggregatorConfig(strategy="fedboosting"))
        with pytest.raises(InsufficientDataError) as err:
            run_federation(cfg)
        assert str(err.value) == ("client 0: fedboosting hold-out: "
                                  "need at least 2 samples to split")

    def test_client_seed_is_pure_function(self):
        assert client_seed(1, 2, 3) == client_seed(1, 2, 3)
        assert client_seed(1, 2, 3) != client_seed(1, 2, 4)
        assert client_seed(1, 2, 3) != client_seed(1, 3, 3)


class TestTrainRound:
    def test_is_one_train_local_call_per_client_bit_for_bit(self):
        """train_round trains every client from the same weights, in client
        order, on the client's own (seed, round, client) stream."""
        cfg = small_cfg(num_clients=4, partition="label_skew", concentration=0.3,
                        model_kind="mlp", hidden_dim=5, synth_per_class=60)
        data = federation.load_source(cfg)
        _, shards = build_partition(cfg, data)
        assert len({s.n for s in shards}) > 1
        spec = build_model_spec(cfg, data)
        params = init_params(spec, cfg.seed)
        updates = federation.train_round(params, spec, shards, cfg, 2)
        assert [u.client_id for u in updates] == [0, 1, 2, 3]
        for cid, (update, shard) in enumerate(zip(updates, shards)):
            ref = train_local(params, spec, shard, cfg.local,
                              client_seed(cfg.seed, 2, cid), client_id=cid)
            assert np.array_equal(update.pseudo_gradient.to_flat(),
                                  ref.pseudo_gradient.to_flat())
            assert np.array_equal(update.local_params.to_flat(),
                                  ref.local_params.to_flat())
            assert update.train_loss == ref.train_loss
            assert update.num_samples == shard.n

    def test_run_federation_trains_every_round_through_it(self, monkeypatch):
        rounds = []
        train_round = federation.train_round

        def spy(params, spec, shards, cfg, round_num):
            rounds.append(round_num)
            return train_round(params, spec, shards, cfg, round_num)

        monkeypatch.setattr(federation, "train_round", spy)
        run_federation(small_cfg(rounds=3))
        assert rounds == [1, 2, 3]


class TestTrainAccuracyReads:
    """train_accuracy is scored on first read, and only fedboosting reads
    it."""

    @pytest.mark.parametrize("strategy,per_round", [
        ("fedavg", 0), ("fedopt", 0), ("fedams", 0), ("ewwa", 0),
        ("fedadp", 0), ("fedboosting", 3)])
    def test_clients_are_scored_only_where_read(self, monkeypatch, strategy,
                                                per_round):
        cfg = small_cfg(rounds=2, aggregator=AggregatorConfig(strategy=strategy))
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate", spy)
        run_federation(cfg)
        assert len(calls) == per_round * cfg.rounds

    @pytest.mark.parametrize("strategy", ["ewwa", "fedboosting"])
    def test_records_do_not_depend_on_reads(self, monkeypatch, strategy):
        cfg = small_cfg(num_clients=4, partition="label_skew",
                        synth_per_class=60,
                        aggregator=AggregatorConfig(strategy=strategy))
        plain = run_federation(cfg)
        train_local = federation.train_local

        def read_at_once(*args, **kwargs):
            update = train_local(*args, **kwargs)
            assert 0.0 <= update.train_accuracy <= 1.0
            return update

        monkeypatch.setattr(federation, "train_local", read_at_once)
        read = run_federation(cfg)
        without_times = lambda recs: [replace(r, wall_ms=0) for r in recs]
        assert without_times(read) == without_times(plain)

    @pytest.mark.parametrize("strategy,error", [
        ("fedboosting", "round 1: client 0: local training: evaluate: "
                        "non-finite loss"),
        ("ewwa", "round 1: evaluate: non-finite loss")])
    def test_a_train_loss_that_overflows_fails_only_where_read(
            self, monkeypatch, strategy, error):
        """Finite weights whose logits overflow, left as they are by a zero
        gradient: fedboosting's read names the client; ewwa never scores
        the clients, and the round fails in the test-set evaluate."""
        def zero_gradient(w, spec, batch, g):
            for view in g.values():
                view[...] = 0.0
            return 0.0, g

        def huge(spec, seed):
            params = init_params(spec, seed)
            return params.with_flat(np.full(params.to_flat().size, 1e200))

        monkeypatch.setattr(training, "loss_and_grad", zero_gradient)
        monkeypatch.setattr(federation, "init_params", huge)
        cfg = small_cfg(model_kind="mlp", hidden_dim=4, num_clients=4,
                        partition="label_skew", synth_per_class=60,
                        aggregator=AggregatorConfig(strategy=strategy))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RunError) as err:
                run_federation(cfg)
        assert str(err.value) == error


class TestBoostingInputs:
    SIZES = [1, 9, 64, 131, 2]  # unequal validation sets, one of one row

    def inputs(self, spec, scales):
        """Models at the given distances from one set of weights, and the
        validation sets."""
        rng = np.random.default_rng(5)
        w0 = init_params(spec, 1)
        models = [w0.with_flat(w0.to_flat() + rng.normal(
            scale=scale, size=w0.to_flat().size)) for scale in scales]
        data = synth_blobs(spec.num_classes, 80, spec.input_dim, 1.5, 3)
        data = data.subset(rng.permutation(data.n))
        val_sets = []
        for size in self.SIZES:
            val_sets.append(data.subset(np.arange(size)))
            data = data.subset(np.arange(size, data.n))
        return models, val_sets

    SPECS = [
        ModelSpec("mlp", input_dim=32, num_classes=10, hidden_dim=64),
        ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=5,
                  activation="sigmoid"),
        ModelSpec("softmax_regression", input_dim=6, num_classes=4),
    ]

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}")
    def test_entries_are_block_argmax_counts_of_one_pass(self, spec):
        """Entry [i, j] is the share of dataset j's rows whose argmax, in
        one forward pass of model i over all the rows back to back, is
        their label."""
        models, val_sets = self.inputs(spec, [0.0, 0.05, 0.25, 1.0])
        features = np.concatenate([v.features for v in val_sets])
        labels = np.concatenate([v.labels for v in val_sets])
        bounds = np.cumsum([0, *self.SIZES])
        expected = []
        for model in models:
            w, h = model.layers(), features
            if spec.kind == "mlp":
                z = h @ w["hidden_weight"] + w["hidden_bias"]
                h = (np.maximum(z, 0.0) if spec.activation == "relu"
                     else 1.0 / (1.0 + np.exp(-z)))
            logits = h @ w["out_weight"] + w["out_bias"]
            correct = np.argmax(logits, axis=1) == labels
            expected.append([correct[a:b].sum() / (b - a)
                             for a, b in zip(bounds[:-1], bounds[1:])])
        cross_val = cross_accuracy(iter(models), spec, val_sets)
        assert np.array_equal(cross_val, np.array(expected))

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}")
    def test_matrix_equals_the_per_pair_evaluate_loop(self, spec):
        """Holds for these inputs. BLAS does not promise it in general: a
        block's logits may differ in their last bits from those of the
        block scored alone, so an argmax at a near tie could differ."""
        models, val_sets = self.inputs(spec, [0.0, 0.05, 0.25, 1.0])
        cross_val = cross_accuracy(iter(models), spec, val_sets)
        expected = np.array([[evaluate(model, spec, val)[0] for val in val_sets]
                             for model in models])
        assert np.array_equal(cross_val, expected)

    def test_overflowing_local_weights_raise_non_finite(self):
        spec = ModelSpec("mlp", input_dim=32, num_classes=10, hidden_dim=64)
        models, val_sets = self.inputs(spec, [0.05, 5e304])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="evaluate: non-finite loss"):
                evaluate(models[1], spec, val_sets[0])
            with pytest.raises(NonFiniteError, match="evaluate: non-finite loss"):
                cross_accuracy(models, spec, val_sets)

    def test_run_passes_each_clients_inputs_to_the_strategy(self, monkeypatch):
        """What a fedboosting run hands fedboosting_aggregate: the clients'
        train accuracies in client order, and each client's trained model's
        accuracy on each client's held-out split."""
        cfg = small_cfg(num_clients=4, rounds=2, partition="label_skew",
                        synth_per_class=60,
                        aggregator=AggregatorConfig(strategy="fedboosting"))
        seen = []

        def spy(updates, cross_val, train_metrics):
            seen.append((list(updates), np.array(cross_val), list(train_metrics)))
            return fedboosting_aggregate(updates, cross_val, train_metrics)

        data = synth_blobs(cfg.synth_classes, cfg.synth_per_class,
                           cfg.synth_dim, cfg.synth_spread, cfg.seed)
        _, shards = build_partition(cfg, data)
        val_sets = [split_train_test(shard, TRAIN_RATIO,
                                     client_seed(cfg.seed, 0, cid))[1]
                    for cid, shard in enumerate(shards)]
        spec = build_model_spec(cfg, data)
        monkeypatch.setattr(federation.agg, "fedboosting_aggregate", spy)
        run_federation(cfg, data)

        assert len(seen) == cfg.rounds
        for updates, cross_val, train_metrics in seen:
            assert [u.client_id for u in updates] == [0, 1, 2, 3]
            assert train_metrics == [u.train_accuracy for u in updates]
            expected = np.array([
                [evaluate(u.local_params, spec, val)[0] for val in val_sets]
                for u in updates])
            assert np.array_equal(cross_val, expected)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc")
def test_freed_round_arrays_are_not_faulted_back_in():
    # Three 1 MiB arrays freed together pass glibc's adaptive trim
    # threshold, so by default every cycle returns them to the OS and
    # faults their 768 pages back in.
    def cycle():
        arrays = [np.full(1 << 17, 1.0) for _ in range(3)]
        del arrays

    federation.keep_freed_arrays_in_heap()
    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        cycle()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256
