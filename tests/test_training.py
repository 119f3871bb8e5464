import math

import numpy as np
import pytest

import fedsim.tensors
import fedsim.training
from fedsim.data import synth_blobs
from fedsim.errors import NonFiniteError
from fedsim.models import Batch, ModelSpec, evaluate, init_params, loss_and_grad
from fedsim.tensors import ParameterSet, zip_map
from fedsim.training import ClientUpdate, LocalConfig, train_local

SPEC = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=6)
REF_SPECS = [
    ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=6, activation="relu"),
    ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=6,
              activation="sigmoid"),
    ModelSpec("softmax_regression", input_dim=4, num_classes=3),
]


def make_shard(seed=0, per_class=8):
    return synth_blobs(3, per_class, 4, 0.4, seed)


class TestTrainLocal:
    def test_single_full_batch_step_recovers_analytic_gradient(self):
        shard = make_shard()
        params = init_params(SPEC, 1)
        cfg = LocalConfig(lr=0.05, momentum=0.0, batch_size=shard.n,
                          local_epochs=1)
        update = train_local(params, SPEC, shard, cfg, seed=3)
        _, grad = loss_and_grad(params, SPEC, Batch(shard.features, shard.labels))
        # identity (w - (w - lr*g))/lr = g, up to float round-trip error
        np.testing.assert_allclose(update.pseudo_gradient.to_flat(),
                                   grad.to_flat(), rtol=1e-12, atol=1e-15)

    def test_tiny_lr_multi_batch_approximates_gradient(self):
        shard = make_shard(seed=5)
        params = init_params(SPEC, 2)
        cfg = LocalConfig(lr=1e-8, momentum=0.0, batch_size=shard.n,
                          local_epochs=1)
        update = train_local(params, SPEC, shard, cfg, seed=3)
        _, grad = loss_and_grad(params, SPEC, Batch(shard.features, shard.labels))
        ref = grad.to_flat()
        err = np.abs(update.pseudo_gradient.to_flat() - ref)
        assert np.max(err / np.maximum(np.abs(ref), 1e-8)) < 1e-4

    def test_deterministic_given_seed(self):
        shard = make_shard(seed=2)
        params = init_params(SPEC, 4)
        cfg = LocalConfig(batch_size=5, local_epochs=2)
        a = train_local(params, SPEC, shard, cfg, seed=11, client_id=1)
        b = train_local(params, SPEC, shard, cfg, seed=11, client_id=1)
        np.testing.assert_array_equal(a.pseudo_gradient.to_flat(),
                                      b.pseudo_gradient.to_flat())
        assert a.train_loss == b.train_loss
        assert a.train_accuracy == b.train_accuracy

    def test_different_seeds_shuffle_differently(self):
        shard = make_shard(seed=2)
        params = init_params(SPEC, 4)
        cfg = LocalConfig(batch_size=5)
        a = train_local(params, SPEC, shard, cfg, seed=1)
        b = train_local(params, SPEC, shard, cfg, seed=2)
        assert not np.array_equal(a.pseudo_gradient.to_flat(),
                                  b.pseudo_gradient.to_flat())

    def test_momentum_accelerates_descent(self):
        shard = make_shard(seed=8, per_class=20)
        params = init_params(SPEC, 6)
        plain = train_local(params, SPEC, shard,
                            LocalConfig(momentum=0.0, batch_size=10,
                                        local_epochs=3), seed=5)
        heavy = train_local(params, SPEC, shard,
                            LocalConfig(momentum=0.9, batch_size=10,
                                        local_epochs=3), seed=5)
        assert heavy.train_loss < plain.train_loss

    def test_local_params_round_trip(self):
        shard = make_shard(seed=3)
        params = init_params(SPEC, 7)
        cfg = LocalConfig(batch_size=6)
        update = train_local(params, SPEC, shard, cfg, seed=4)
        # final = global - lr * pseudo holds up to the rounding of the division
        redone = (params.to_flat() - cfg.lr * update.pseudo_gradient.to_flat())
        np.testing.assert_allclose(update.local_params.to_flat(), redone,
                                   atol=1e-15)

    def test_final_weights_are_adopted_and_only_the_pseudo_gradient_tested(
            self, monkeypatch):
        """The last step tested the final weights, so local_params takes
        them as they are; only the pseudo-gradient is built through the
        whole-vector finite check."""
        params, shard, checked = init_params(SPEC, 7), make_shard(seed=3), []
        check = fedsim.tensors._check_finite
        monkeypatch.setattr(fedsim.tensors, "_check_finite",
                            lambda layout, flat: checked.append(flat.copy())
                            or check(layout, flat))
        update = train_local(params, SPEC, shard, LocalConfig(batch_size=6),
                             seed=4)
        assert len(checked) == 1
        assert np.array_equal(checked[0], update.pseudo_gradient.to_flat())
        assert not update.local_params.layers()["hidden_weight"].flags.writeable

    def test_update_metadata(self):
        shard = make_shard(seed=1)
        update = train_local(init_params(SPEC, 0), SPEC, shard,
                             LocalConfig(), seed=0, client_id=5)
        assert update.client_id == 5
        assert update.num_samples == shard.n
        assert np.isfinite(update.train_loss)
        assert 0.0 <= update.train_accuracy <= 1.0


class TestTrainAccuracyOnFirstRead:
    def count_evaluates(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(fedsim.training, "evaluate", spy)
        return calls

    def test_two_reads_score_the_shard_once(self, monkeypatch):
        calls = self.count_evaluates(monkeypatch)
        shard = make_shard(seed=1)
        update = train_local(init_params(SPEC, 0), SPEC, shard,
                             LocalConfig(batch_size=5), seed=0)
        assert calls == []
        first = update.train_accuracy
        assert update.train_accuracy is first
        assert len(calls) == 1 and calls[0][2] is shard

    @pytest.mark.parametrize("spec", REF_SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}")
    def test_equals_an_eager_evaluate_of_the_final_weights(self, spec):
        shard = make_shard(seed=4, per_class=11)
        cfg = LocalConfig(lr=0.3, batch_size=7, local_epochs=2)
        params = init_params(spec, 9)
        update = train_local(params, spec, shard, cfg, seed=20)
        pseudo, _, _, final = _ref_train_local(params, spec, shard, cfg, seed=20)
        assert np.array_equal(update.pseudo_gradient.to_flat(), pseudo.to_flat())
        assert update.train_accuracy == evaluate(final, spec, shard)[0]

    def test_overflowing_loss_names_the_client_on_read(self, monkeypatch):
        """Finite final weights whose logits overflow: training ends, and
        the read raises as the eager score did inside train_local."""
        def zero_gradient(w, spec, batch, g):
            for view in g.values():
                view[...] = 0.0
            return 0.0, g

        monkeypatch.setattr(fedsim.training, "loss_and_grad", zero_gradient)
        params = init_params(SPEC, 0)
        huge = params.with_flat(np.full(params.to_flat().size, 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            update = train_local(huge, SPEC, make_shard(), LocalConfig(),
                                 seed=0, client_id=3)
            with pytest.raises(NonFiniteError) as err:
                update.train_accuracy
        assert str(err.value).startswith(
            "client 3: local training: evaluate: non-finite loss")

    def test_a_constructed_float_comes_back_unchanged(self):
        pg = init_params(SPEC, 0)
        value = 0.1 + 0.2
        assert ClientUpdate(1, pg, 10, 0.5, value).train_accuracy is value
        assert ClientUpdate(1, pg, 10, 0.5,
                            train_accuracy=value).train_accuracy is value
        with pytest.raises(TypeError):
            ClientUpdate(1, pg, 10, 0.5)  # the field keeps no default


class TestLocalConfig:
    def test_defaults_match_protocol(self):
        cfg = LocalConfig()
        assert (cfg.lr, cfg.momentum, cfg.batch_size, cfg.local_epochs) == (
            0.01, 0.9, 64, 1)

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"momentum": 1.0}, {"momentum": -0.1},
        {"batch_size": 0}, {"local_epochs": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LocalConfig(**kwargs)


def test_train_loss_trend_decreases_over_rounds():
    """Median round-20 loss under round-1 loss across 5 seeds."""
    from fedsim.tensors import zip_map

    first, last = [], []
    for seed in range(5):
        shard = make_shard(seed=seed, per_class=15)
        params = init_params(SPEC, seed)
        cfg = LocalConfig(lr=0.05, batch_size=15)
        losses = []
        for r in range(20):
            update = train_local(params, SPEC, shard, cfg, seed=100 + r)
            losses.append(update.train_loss)
            params = zip_map(params, update.pseudo_gradient,
                             lambda w, g: w - cfg.lr * g)
        first.append(losses[0])
        last.append(losses[-1])
    assert np.median(last) < np.median(first)


# Reference: the local SGD loop before it kept its state in place. Each
# step builds a fresh gradient set (with the loss and the softmax taking
# separate exps) and two more sets through zip_map.

def _ref_forward(params, spec, x):
    if spec.kind == "softmax_regression":
        w = params.layers()["out_weight"]
        return x @ w + params.layers()["out_bias"], (x,)
    w1 = params.layers()["hidden_weight"]
    w2 = params.layers()["out_weight"]
    z1 = x @ w1 + params.layers()["hidden_bias"]
    if spec.activation == "relu":
        h = np.maximum(z1, 0.0)
    else:
        h = 1.0 / (1.0 + np.exp(-z1))
    return h @ w2 + params.layers()["out_bias"], (x, z1, h, w2)


def _ref_softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_cross_entropy(logits, y):
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(y.shape[0]), y].mean())


def _ref_loss_and_grad(params, spec, batch):
    x, y = batch.features, batch.labels
    n = x.shape[0]
    logits, cache = _ref_forward(params, spec, x)
    loss = _ref_cross_entropy(logits, y)
    dlogits = _ref_softmax_rows(logits).copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if spec.kind == "softmax_regression":
        (x,) = cache
        grads = {"out_weight": x.T @ dlogits, "out_bias": dlogits.sum(axis=0)}
    else:
        x, z1, h, w2 = cache
        dh = dlogits @ w2.T
        if spec.activation == "relu":
            dz1 = dh * (z1 > 0.0)
        else:
            dz1 = dh * h * (1.0 - h)
        grads = {"hidden_weight": x.T @ dz1, "hidden_bias": dz1.sum(axis=0),
                 "out_weight": h.T @ dlogits, "out_bias": dlogits.sum(axis=0)}
    return loss, params.with_flat(
        np.concatenate([grads[name] for name in params.layers()], axis=None))


def _ref_train_local(global_params, spec, shard, cfg, seed):
    """(pseudo-gradient, train loss, train accuracy, final weights)."""
    rng = np.random.default_rng(seed)
    params = global_params
    velocity = global_params.with_flat(np.zeros_like(global_params.to_flat()))
    for _ in range(cfg.local_epochs):
        order = rng.permutation(shard.n)
        losses = []
        for start in range(0, shard.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = Batch(shard.features[idx], shard.labels[idx])
            loss, grad = _ref_loss_and_grad(params, spec, batch)
            velocity = zip_map(velocity, grad, lambda u, g: cfg.momentum * u + g)
            params = zip_map(params, velocity, lambda w, u: w - cfg.lr * u)
            losses.append(loss)
    pseudo = zip_map(global_params, params, lambda w0, w: (w0 - w) * (1.0 / cfg.lr))
    logits, _ = _ref_forward(params, spec, shard.features)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == shard.labels))
    return pseudo, float(np.mean(losses)), accuracy, params


@pytest.mark.parametrize("spec", REF_SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_local_is_bit_identical_to_the_reference_loop(spec, momentum):
    shard = make_shard(seed=4, per_class=11)  # 33 rows: batches 7 x 4 + 5
    cfg = LocalConfig(lr=0.3, momentum=momentum, batch_size=7, local_epochs=2)
    params = init_params(spec, 9)
    for rnd in range(3):
        update = train_local(params, spec, shard, cfg, seed=20 + rnd)
        pseudo, loss, accuracy, final = _ref_train_local(params, spec, shard,
                                                         cfg, seed=20 + rnd)
        assert np.array_equal(update.pseudo_gradient.to_flat(), pseudo.to_flat())
        assert np.array_equal(update.local_params.to_flat(), final.to_flat())
        assert update.train_loss == loss
        assert update.train_accuracy == accuracy
        params = final


def test_divergence_names_the_client_and_the_phase():
    shard = make_shard(seed=2)
    params = init_params(SPEC, 3)
    cfg = LocalConfig(lr=1e200, batch_size=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as ref:
            _ref_train_local(params, SPEC, shard, cfg, seed=1)
        with pytest.raises(NonFiniteError) as err:
            train_local(params, SPEC, shard, cfg, seed=1, client_id=3)
    # the same check fails first, on the same layer
    assert str(err.value) == f"client 3: local training: {ref.value}"
    assert str(err.value).startswith("client 3: local training: layer '")
    assert str(err.value).endswith("': non-finite values")


def test_weights_whose_squared_norm_overflows_keep_training():
    """Each step tests the weights' sum of squares; one that overflows on
    finite weights falls back to the element-wise test and trains on."""
    spec = REF_SPECS[2]
    params = init_params(spec, 0)
    flat = params.to_flat()
    params.views(flat)["out_bias"][...] = [1e200, -1e200, 0.0]
    params = params.with_flat(flat)
    assert not math.isfinite(np.vdot(flat, flat))
    shard = make_shard(seed=1)
    cfg = LocalConfig(lr=0.1, batch_size=5)
    update = train_local(params, spec, shard, cfg, seed=3)
    pseudo, loss, _, final = _ref_train_local(params, spec, shard, cfg, seed=3)
    assert np.array_equal(update.local_params.to_flat(), final.to_flat())
    assert np.array_equal(update.pseudo_gradient.to_flat(), pseudo.to_flat())
    assert update.train_loss == loss


def _layer_named_by_divergence(monkeypatch, fill_gradient, cfg):
    """The message train_local raises on softmax regression when each
    step's gradient is written by fill_gradient(layer views, step)."""
    steps = []

    def stub(w, spec, batch, g):
        steps.append(None)
        fill_gradient(g, len(steps))
        return 0.0, g

    monkeypatch.setattr(fedsim.training, "loss_and_grad", stub)
    spec = ModelSpec("softmax_regression", input_dim=4, num_classes=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            train_local(init_params(spec, 0), spec, make_shard(), cfg, seed=0)
    return str(err.value)


def test_each_step_checks_gradient_then_velocity_then_weights(monkeypatch):
    """A gradient that is NaN only in its last layer, with a step that
    overflows every weight: the gradient's layer is the one named."""
    import fedsim.training

    def nan_in_last_layer(w, spec, batch, g):
        for view in g.values():
            view[...] = 10.0
        g["out_weight"].flat[0] = np.nan
        return 0.0, g

    monkeypatch.setattr(fedsim.training, "loss_and_grad", nan_in_last_layer)
    spec = ModelSpec("softmax_regression", input_dim=4, num_classes=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            train_local(init_params(spec, 0), spec, make_shard(),
                        LocalConfig(lr=1e308, momentum=0.0), seed=0)
    assert str(err.value) == ("client 0: local training: "
                              "layer 'out_weight': non-finite values")

    # The velocity before the weights: on step 2, u = 0.9 * 1e308 + 1e308
    # overflows in out_weight only, while w overflows first in out_bias
    # (w - 1.4e308 after w - 1e308); the velocity's layer is the one named.
    def velocity_overflows_in_last_layer(g, step):
        g["out_weight"][...] = 1e308
        g["out_bias"][...] = 1e308 if step == 1 else 0.5e308

    message = _layer_named_by_divergence(
        monkeypatch, velocity_overflows_in_last_layer,
        LocalConfig(lr=1.0, momentum=0.9, batch_size=12))  # 24 rows: 2 steps
    assert message == ("client 0: local training: "
                       "layer 'out_weight': non-finite values")

    # Finite gradient and velocity, a step that overflows every weight:
    # the weights' first layer is the one named.
    def ten_everywhere(g, step):
        for view in g.values():
            view[...] = 10.0

    message = _layer_named_by_divergence(
        monkeypatch, ten_everywhere, LocalConfig(lr=1e308, momentum=0.0))
    assert message == ("client 0: local training: "
                       "layer 'out_bias': non-finite values")
