import types

import numpy as np
import pytest

from fedsim.data import Dataset
from fedsim.errors import EmptyInputError, NonFiniteError
from fedsim.models import (
    Batch,
    ModelSpec,
    _forward,
    cross_accuracy,
    evaluate,
    init_params,
    loss_and_grad,
)
from fedsim.tensors import l2_norm, zip_map

SPECS = [
    ModelSpec("softmax_regression", input_dim=6, num_classes=4),
    ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=5, activation="relu"),
    ModelSpec("mlp", input_dim=6, num_classes=4, hidden_dim=5, activation="sigmoid"),
]


def random_batch(rng, spec, n=8):
    return Batch(rng.normal(size=(n, spec.input_dim)),
                 rng.integers(0, spec.num_classes, size=n))


def finite_difference_grad(params, spec, batch, h=1e-5):
    """Central differences over every parameter, one at a time."""
    flat = params.to_flat()
    out = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        hi, _ = loss_and_grad(params.with_flat(bumped), spec, batch)
        bumped[i] = flat[i] - h
        lo, _ = loss_and_grad(params.with_flat(bumped), spec, batch)
        out[i] = (hi - lo) / (2 * h)
    return out


class TestInit:
    def test_deterministic(self):
        spec = SPECS[1]
        a = init_params(spec, 42)
        b = init_params(spec, 42)
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())

    def test_biases_zero(self):
        for spec in SPECS:
            params = init_params(spec, 0)
            for name, values in params.layers().items():
                if name.endswith("bias"):
                    assert np.all(values == 0.0)

    def test_weight_mean_matches_uniform(self):
        spec = ModelSpec("softmax_regression", input_dim=100, num_classes=100)
        params = init_params(spec, 7)
        w = params.layers()["out_weight"]
        limit = np.sqrt(6.0 / 200)
        # uniform(-limit, limit): mean 0, sd limit/sqrt(3)
        sigma_mean = limit / np.sqrt(3.0) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma_mean
        assert np.all(np.abs(w) <= limit)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=0)
        with pytest.raises(ValueError):
            ModelSpec("softmax_regression", input_dim=4, num_classes=1)
        with pytest.raises(ValueError):
            ModelSpec("cnn", input_dim=4, num_classes=3)
        with pytest.raises(ValueError, match="input_dim"):
            ModelSpec("softmax_regression", input_dim=0, num_classes=3)
        with pytest.raises(ValueError, match="activation"):
            ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=2,
                      activation="tanh")


class TestLossAndGrad:
    def test_zero_params_loss_is_log_k(self):
        rng = np.random.default_rng(0)
        for k in (2, 4, 10):
            spec = ModelSpec("softmax_regression", input_dim=5, num_classes=k)
            params = init_params(spec, 0)
            zeros = params.with_flat(np.zeros_like(params.to_flat()))
            loss, _ = loss_and_grad(zeros, spec, random_batch(rng, spec))
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(2)
        for spec in SPECS:
            params = init_params(spec, 3)
            batch = random_batch(rng, spec)
            twice = Batch(np.vstack([batch.features, batch.features]),
                          np.concatenate([batch.labels, batch.labels]))
            l1, g1 = loss_and_grad(params, spec, batch)
            l2, g2 = loss_and_grad(params, spec, twice)
            assert l1 == pytest.approx(l2, abs=1e-12)
            np.testing.assert_allclose(g1.to_flat(), g2.to_flat(), atol=1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(4)
        for _ in range(5):
            params = init_params(spec, int(rng.integers(1 << 31)))
            batch = random_batch(rng, spec)
            _, grad = loss_and_grad(params, spec, batch)
            numeric = finite_difference_grad(params, spec, batch)
            analytic = grad.to_flat()
            denom = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    def test_loss_non_negative(self):
        rng = np.random.default_rng(8)
        for spec in SPECS:
            params = init_params(spec, 5)
            loss, _ = loss_and_grad(params, spec, random_batch(rng, spec))
            assert loss >= 0.0

    def test_sgd_step_decreases_batch_loss(self):
        rng = np.random.default_rng(12)
        for spec in SPECS:
            params = init_params(spec, 9)
            batch = random_batch(rng, spec, n=16)
            loss, grad = loss_and_grad(params, spec, batch)
            assert l2_norm(grad) > 1e-8
            stepped = zip_map(params, grad, lambda w, g: w - 1e-3 * g)
            after, _ = loss_and_grad(stepped, spec, batch)
            assert after < loss

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.activation}")
    def test_in_place_gradient_equals_the_returned_one(self, spec):
        params = init_params(spec, 6)
        batch = random_batch(np.random.default_rng(5), spec)
        loss, grad = loss_and_grad(params, spec, batch)
        w, g = params.to_flat(), np.full(grad.to_flat().shape, np.nan)
        views = params.views(g)
        in_place, out = loss_and_grad(params.views(w), spec, batch, views)
        assert out is views
        assert in_place == loss
        assert np.array_equal(g, grad.to_flat())
        assert np.array_equal(w, params.to_flat())  # weights left as they were


class TestEvaluate:
    def test_perfect_labels(self):
        rng = np.random.default_rng(1)
        spec = SPECS[0]
        params = init_params(spec, 2)
        feats = rng.normal(size=(30, spec.input_dim))
        weight = params.layers()["out_weight"]
        logits = feats @ weight + params.layers()["out_bias"]
        labels = np.argmax(logits, axis=1)
        data = Dataset(feats, labels, spec.num_classes)
        acc, _ = evaluate(params, spec, data)
        assert acc == 1.0

    def test_zero_params_loss_ln10(self):
        spec = ModelSpec("softmax_regression", input_dim=4, num_classes=10)
        params = init_params(spec, 0)
        zeros = params.with_flat(np.zeros_like(params.to_flat()))
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(20, 4)),
                       rng.integers(0, 10, size=20), 10)
        _, loss = evaluate(zeros, spec, data)
        assert loss == pytest.approx(np.log(10), abs=1e-9)

    def test_accuracy_equals_hand_count(self):
        rng = np.random.default_rng(6)
        spec = SPECS[1]
        params = init_params(spec, 4)
        feats = rng.normal(size=(100, spec.input_dim))
        labels = rng.integers(0, spec.num_classes, size=100)
        data = Dataset(feats, labels, spec.num_classes)
        acc, _ = evaluate(params, spec, data)
        hidden_w = params.layers()["hidden_weight"]
        out_w = params.layers()["out_weight"]
        correct = 0
        for row, label in zip(feats, labels):
            hidden = np.maximum(row @ hidden_w + params.layers()["hidden_bias"], 0.0)
            logits = hidden @ out_w + params.layers()["out_bias"]
            if np.argmax(logits) == label:
                correct += 1
        assert acc == pytest.approx(correct / 100.0, abs=1e-15)

    def test_empty_dataset_rejected(self):
        spec = SPECS[0]
        params = init_params(spec, 0)
        empty = types.SimpleNamespace(features=np.empty((0, spec.input_dim)),
                                      labels=np.empty(0, dtype=int))
        with pytest.raises(EmptyInputError):
            evaluate(params, spec, empty)
        with pytest.raises((EmptyInputError, ValueError)):
            Dataset(np.empty((0, spec.input_dim)), np.empty(0, dtype=int), 4)

    def test_argmax_tie_breaks_to_lowest_class(self):
        spec = ModelSpec("softmax_regression", input_dim=2, num_classes=3)
        params = init_params(spec, 0)
        zeros = params.with_flat(np.zeros_like(params.to_flat()))
        feats = np.zeros((4, 2))
        for label, expected in ((0, 1.0), (1, 0.0)):
            data = Dataset(feats, np.full(4, label), spec.num_classes)
            acc, _ = evaluate(zeros, spec, data)
            assert acc == expected

    def test_overflowing_logits_raise_non_finite(self):
        spec = ModelSpec("softmax_regression", input_dim=2, num_classes=3)
        params = init_params(spec, 0)
        huge = params.with_flat(np.full_like(params.to_flat(), 1e308))
        data = Dataset(np.full((4, 2), 10.0), np.zeros(4, dtype=int), 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="non-finite loss"):
                evaluate(huge, spec, data)


class TestAccuracyOnly:
    """evaluate(..., loss=False) and cross_accuracy skip the loss when the
    logits bound it, and compute it to raise where they do not."""

    SPEC = ModelSpec("softmax_regression", input_dim=2, num_classes=3)

    def fixed_logits(self, bias, labels, features=None):
        """Zero weights, so every row's logits are bias exactly."""
        params = init_params(self.SPEC, 0)
        flat = np.zeros_like(params.to_flat())
        flat[:3] = bias  # out_bias comes first
        labels = np.asarray(labels)
        if features is None:
            features = np.ones((labels.size, 2))
        return (params.with_flat(flat),
                Dataset(features, labels, self.SPEC.num_classes))

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: f"{s.kind}-{s.activation}")
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0, 1e3])
    def test_same_accuracy_as_evaluate(self, spec, scale):
        rng = np.random.default_rng(8)
        params = init_params(spec, 3)
        params = params.with_flat(params.to_flat() * scale)
        data = Dataset(rng.normal(size=(50, spec.input_dim)),
                       rng.integers(0, spec.num_classes, size=50),
                       spec.num_classes)
        with np.errstate(over="ignore"):
            accuracy, _ = evaluate(params, spec, data)
            assert evaluate(params, spec, data, loss=False) == (accuracy, None)

    def test_finite_logits_whose_loss_overflows_raise(self):
        """Label logit -1e308 under a row max of 1e308: the label's
        log-softmax is -inf."""
        params, data = self.fixed_logits([1e308, -1e308, 0.0], [1, 1, 1, 1])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError,
                               match="evaluate: non-finite loss"):
                evaluate(params, self.SPEC, data, loss=False)
            with pytest.raises(NonFiniteError,
                               match="evaluate: non-finite loss"):
                cross_accuracy([params], self.SPEC,
                               [data.subset([0]), data.subset([1, 2, 3])])

    def test_logits_over_the_bound_with_a_finite_loss_score(self):
        """|logit| * rows = 4e301 > 1e300, so the loss is computed: it is
        log 3, and the ties break to class 0."""
        params, data = self.fixed_logits([1e301] * 3, [0, 1, 2, 0])
        assert evaluate(params, self.SPEC, data)[0] == 0.5
        assert evaluate(params, self.SPEC, data, loss=False) == (0.5, None)
        assert np.array_equal(
            cross_accuracy([params], self.SPEC,
                           [data.subset([0]), data.subset([1, 2, 3])]),
            [[1.0, 1 / 3]])

    def test_nan_logits_raise(self):
        features = np.array([[1.0, np.nan], [0.0, 1.0]])
        params, data = self.fixed_logits([0.0, 1.0, 2.0], [0, 2], features)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError,
                               match="evaluate: non-finite loss"):
                evaluate(params, self.SPEC, data, loss=False)
            with pytest.raises(NonFiniteError,
                               match="evaluate: non-finite loss"):
                cross_accuracy([params], self.SPEC,
                               [data.subset([0]), data.subset([1])])


# Reference: the kernel with 2-D fancy label indexes and an axis-1 row max.
# The flat label index and the transposed row max must give the same bits.

def _fancy_index_softmax_parts(logits, y):
    rows = np.arange(logits.shape[0])
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    label_z = e[rows, y]
    np.exp(e, out=e)
    row_sums = np.add.reduce(e, axis=1, keepdims=True)
    return e, row_sums, label_z - np.log(row_sums[:, 0])


def _fancy_index_loss_and_grad(spec, params, x, y):
    w = params.layers()
    n = x.shape[0]
    logits, h = _forward(w, spec, x)
    dlogits, row_sums, label_log_probs = _fancy_index_softmax_parts(logits, y)
    loss = float(-(np.add.reduce(label_log_probs) / n))
    dlogits /= row_sums
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    g = {"out_weight": h.T @ dlogits,
         "out_bias": np.add.reduce(dlogits, axis=0)}
    if spec.kind == "mlp":
        dz1 = dlogits @ w["out_weight"].T
        if spec.activation == "relu":
            dz1 *= h > 0.0
        else:
            dz1 = dz1 * h * (1.0 - h)
        g["hidden_weight"] = x.T @ dz1
        g["hidden_bias"] = np.add.reduce(dz1, axis=0)
    return loss, g


def _fancy_index_eval_loss(spec, params, x, y):
    logits, _ = _forward(params.layers(), spec, x)
    log_probs = _fancy_index_softmax_parts(logits, y)[2]
    return float(-(np.add.reduce(log_probs) / x.shape[0]))


@pytest.mark.parametrize("kind, activation", [
    ("mlp", "relu"), ("mlp", "sigmoid"), ("softmax_regression", "relu")])
@pytest.mark.parametrize("classes", [2, 10])
def test_kernel_is_bit_identical_to_the_fancy_index_form(kind, activation,
                                                         classes):
    spec = ModelSpec(kind, input_dim=6, num_classes=classes,
                     hidden_dim=8 if kind == "mlp" else 0,
                     activation=activation)
    rng = np.random.default_rng(classes)
    params = init_params(spec, 2)
    # spread the logits, so that rows differ in their max and label columns
    params = params.with_flat(params.to_flat() * 4.0 + rng.normal(
        size=params.to_flat().size))
    for n in (1, 2, 7, 63, 64):
        batch = random_batch(rng, spec, n)
        loss, grad = loss_and_grad(params, spec, batch)
        ref_loss, ref_grad = _fancy_index_loss_and_grad(
            spec, params, batch.features, batch.labels)
        assert loss == ref_loss
        for name, layer in grad.layers().items():
            assert np.array_equal(layer, ref_grad[name]), (n, name)
        assert evaluate(params, spec, batch)[1] == _fancy_index_eval_loss(
            spec, params, batch.features, batch.labels)
