import functools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from fedsim import aggregators
from fedsim.aggregators import (
    BLOCK_VALUES,
    STRATEGIES,
    VARIANTS,
    AggregatorConfig,
    AggregatorState,
    _column_blocks,
    _first_moment,
    _second_moment,
    adaptive_step_size,
    aggregate,
    ewwa_aggregate,
    fedadp_aggregate,
    fedams_aggregate,
    fedavg_aggregate,
    fedboosting_aggregate,
    fedopt_aggregate,
    gompertz_contribution,
    initial_state,
)
from fedsim.errors import (EmptyFederationError, NonFiniteError,
                           StructureMismatchError)
from fedsim.tensors import (
    ParameterSet,
    column_softmax,
    flat_inner_product,
    l2_norm,
    mean,
)
from fedsim.training import ClientUpdate


def ps(*values):
    arr = np.asarray(values, dtype=float)
    return ParameterSet([("w", (arr.size,), arr)])


def upd(cid, values, n=10):
    return ClientUpdate(client_id=cid, pseudo_gradient=ps(*np.atleast_1d(values)),
                        num_samples=n, train_loss=0.0, train_accuracy=0.5)


def random_updates(rng, count, size=40):
    return [upd(c, rng.normal(size=size), n=int(rng.integers(1, 50)))
            for c in range(count)]


class TestFedAvg:
    def test_plain_mean_with_equal_sizes(self):
        g = fedavg_aggregate([upd(0, [2.0, 0.0]), upd(1, [0.0, 2.0])])
        np.testing.assert_array_equal(g.to_flat(), [1.0, 1.0])

    def test_single_client_identity(self):
        g = fedavg_aggregate([upd(0, [3.0, -1.0])])
        np.testing.assert_array_equal(g.to_flat(), [3.0, -1.0])

    def test_weighted_mean(self):
        g = fedavg_aggregate([upd(0, [4.0], n=1), upd(1, [0.0], n=3)])
        assert g.to_flat()[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFederationError):
            fedavg_aggregate([])


class TestFedOpt:
    def test_round_one_step_size(self):
        assert adaptive_step_size(1.0, 0.9, 0.999, 1) == pytest.approx(
            0.3162278, abs=1e-6)

    def test_round_one_scalar_trace(self):
        cfg = AggregatorConfig(strategy="fedopt", variant="adam")
        state = initial_state(ps(0.0))
        g, state = fedopt_aggregate([upd(0, [1.0])], state, cfg)
        assert state.m.to_flat()[0] == pytest.approx(0.1, abs=1e-15)
        assert state.v.to_flat()[0] == pytest.approx(0.001, abs=1e-15)
        eta = 0.3162277660168379
        expected = eta * 0.1 / (np.sqrt(0.001) + 1e-8)
        assert g.to_flat()[0] == pytest.approx(expected, abs=1e-12)

    def test_adagrad_first_round_v(self):
        cfg = AggregatorConfig(strategy="fedopt", variant="adagrad")
        state = initial_state(ps(0.0))
        _, state = fedopt_aggregate([upd(0, [0.5])], state, cfg)
        assert state.v.to_flat()[0] == 0.25

    @pytest.mark.parametrize("variant", ["adam", "adagrad", "yogi"])
    def test_multi_round_matches_scalar_oracle(self, variant):
        """Twelve rounds of one client and one value against fedopt's loop
        reference."""
        cfg = AggregatorConfig(strategy="fedopt", variant=variant)
        rng = np.random.default_rng(3)
        grads = rng.normal(size=12)
        state = initial_state(ps(0.0))
        expected = loop_fedopt_oracle(grad_rounds([[g]] for g in grads), cfg)
        for g_val, (big_g, _) in zip(grads, expected):
            g_out, state = fedopt_aggregate([upd(0, [g_val])], state, cfg)
            assert g_out.to_flat()[0] == pytest.approx(big_g[0], abs=1e-12)

    def test_mean_of_clients_feeds_the_optimizer(self):
        cfg = AggregatorConfig(strategy="fedopt", variant="adam")
        joint, _ = fedopt_aggregate(
            [upd(0, [2.0]), upd(1, [0.0])], initial_state(ps(0.0)), cfg)
        solo, _ = fedopt_aggregate([upd(0, [1.0])], initial_state(ps(0.0)), cfg)
        assert joint.to_flat()[0] == pytest.approx(solo.to_flat()[0], abs=1e-15)

    def test_adagrad_v_monotone(self):
        cfg = AggregatorConfig(strategy="fedopt", variant="adagrad")
        rng = np.random.default_rng(8)
        state = initial_state(ps(*np.zeros(20)))
        prev = state.v.to_flat()
        for _ in range(30):
            _, state = fedopt_aggregate(
                [upd(0, rng.normal(size=20))], state, cfg)
            assert np.all(state.v.to_flat() >= prev)
            prev = state.v.to_flat()

    def test_yogi_v_bounded(self):
        cfg = AggregatorConfig(strategy="fedopt", variant="yogi")
        rng = np.random.default_rng(9)
        state = initial_state(ps(*np.zeros(20)))
        for _ in range(50):
            g = rng.normal(size=20)
            prev = state.v.to_flat()
            _, state = fedopt_aggregate([upd(0, g)], state, cfg)
            v = state.v.to_flat()
            assert np.all(v >= 0.0)
            assert np.all(v <= np.maximum(prev, g * g) + 1e-15)


class TestFedAms:
    def test_running_max(self):
        # force v to rise then decay; v_max must hold the peak
        cfg = AggregatorConfig(strategy="fedams", beta2=0.0)
        state = initial_state(ps(0.0))
        _, state = fedams_aggregate([upd(0, [np.sqrt(0.4)])], state, cfg)
        assert state.v_max.to_flat()[0] == pytest.approx(0.4, abs=1e-15)
        _, state = fedams_aggregate([upd(0, [np.sqrt(0.1)])], state, cfg)
        assert state.v.to_flat()[0] == pytest.approx(0.1, abs=1e-15)
        assert state.v_max.to_flat()[0] == pytest.approx(0.4, abs=1e-15)

    def test_first_round_vmax_equals_v(self):
        cfg = AggregatorConfig(strategy="fedams")
        state = initial_state(ps(0.0, 0.0))
        _, state = fedams_aggregate([upd(0, [1.0, -2.0])], state, cfg)
        np.testing.assert_array_equal(state.v_max.to_flat(), state.v.to_flat())

    def test_vmax_monotone_over_rounds(self):
        cfg = AggregatorConfig(strategy="fedams")
        rng = np.random.default_rng(10)
        state = initial_state(ps(*np.zeros(15)))
        prev = state.v_max.to_flat()
        for _ in range(40):
            _, state = fedams_aggregate(
                [upd(0, rng.normal(size=15))], state, cfg)
            assert np.all(state.v_max.to_flat() >= prev)
            prev = state.v_max.to_flat()


def old_moments(variant, m_prev, v_prev, g, beta1, beta2):
    """Both moments as the strategies once wrote them, one expression each."""
    m = beta1 * m_prev + (1 - beta1) * g
    if variant == "adam":
        v = beta2 * v_prev + (1 - beta2) * g * g
    elif variant == "adagrad":
        v = v_prev + g * g
    else:
        v = v_prev - (1 - beta2) * g * g * np.sign(v_prev - g * g)
    return m, v


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(500,), (7, 500)], ids=["P", "C-P"])
def test_in_place_moments_equal_the_one_expression_forms(variant, shape):
    """The same bits from a (P,) previous state and a (P,) or (C, P)
    gradient; the gradient and previous state are left untouched."""
    rng = np.random.default_rng(5)
    for beta1, beta2 in [(0.9, 0.999), (0.5, 0.3), (0.0, 0.0)]:
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        m_prev = rng.normal(size=shape[-1])
        v_prev = rng.random(size=shape[-1]) * 10.0 ** rng.integers(-8, 8, 500)
        v_prev[:50] = np.reshape(g, (-1, 500))[0, :50] ** 2  # sign(0) for yogi
        before = g.copy(), m_prev.copy(), v_prev.copy()
        m_ref, v_ref = old_moments(variant, m_prev, v_prev, g, beta1, beta2)
        m = _first_moment(m_prev, g, beta1)
        v = _second_moment(variant, v_prev, g, beta2)
        assert m.shape == v.shape == shape
        assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref)
        for a, b in zip((g, m_prev, v_prev), before):
            assert np.array_equal(a, b)


def test_gompertz_value():
    assert gompertz_contribution(1.0, 5.0) == pytest.approx(
        5.0 * (1 - np.exp(-1.0)), abs=1e-12)
    assert gompertz_contribution(1.0, 5.0) == pytest.approx(3.160603, abs=1e-6)


class TestFedAdp:
    def cfg(self):
        return AggregatorConfig(strategy="fedadp")

    def test_parallel_gradient_angle_zero(self):
        state = initial_state(ps(0, 0))
        g = ps(1.0, 2.0)
        _, state = fedadp_aggregate([upd(0, [1.0, 2.0])], state, self.cfg(), g)
        assert state.smoothed_angles[0] == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_gradient_angle_right(self):
        state = initial_state(ps(0, 0))
        g = ps(1.0, 0.0)
        _, state = fedadp_aggregate([upd(0, [0.0, 1.0])], state, self.cfg(), g)
        assert state.smoothed_angles[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_zero_norm_gradient_neutral(self):
        state = initial_state(ps(0, 0))
        g = ps(1.0, 0.0)
        updates = [upd(0, [0.0, 0.0]), upd(1, [1.0, 0.0])]
        _, state = fedadp_aggregate(updates, state, self.cfg(), g)
        assert state.smoothed_angles[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_smoothed_angle_is_running_mean(self):
        state = initial_state(ps(0, 0))
        cfg = self.cfg()
        thetas = [0.2, 0.4, 0.6]
        for theta in thetas:
            g_ref = ps(1.0, 0.0)
            local = [np.cos(theta), np.sin(theta)]
            _, state = fedadp_aggregate([upd(0, local)], state, cfg, g_ref)
        assert state.smoothed_angles[0] == pytest.approx(0.4, abs=1e-12)

    def test_angles_in_valid_range(self):
        rng = np.random.default_rng(17)
        state = initial_state(ps(*np.zeros(6)))
        cfg = self.cfg()
        for _ in range(20):
            updates = random_updates(rng, 3, size=6)
            g_mean = mean([u.pseudo_gradient for u in updates])
            _, state = fedadp_aggregate(updates, state, cfg, g_mean)
            for theta in state.smoothed_angles.values():
                assert 0.0 <= theta <= np.pi

    def test_aligned_client_gets_more_weight(self):
        state = initial_state(ps(0, 0))
        g_mean = ps(1.0, 0.0)
        aligned = upd(0, [1.0, 0.0])
        skewed = upd(1, [0.0, 1.0])
        g_out, _ = fedadp_aggregate([aligned, skewed], state, self.cfg(), g_mean)
        # weighted sum leans toward the aligned client's direction
        assert g_out.to_flat()[0] > g_out.to_flat()[1]


class TestFedBoosting:
    def test_symmetric_inputs_split_evenly(self):
        updates = [upd(0, [1.0, 0.0]), upd(1, [0.0, 1.0])]
        cross_val = np.array([[0.9, 0.6], [0.6, 0.9]])
        g = fedboosting_aggregate(updates, cross_val, np.array([0.8, 0.8]))
        np.testing.assert_allclose(g.to_flat(), [0.5, 0.5], atol=1e-12)

    def test_single_client(self):
        g = fedboosting_aggregate([upd(0, [2.0])], np.array([[0.5]]),
                                  np.array([0.9]))
        np.testing.assert_allclose(g.to_flat(), [2.0], atol=1e-15)

    def test_float64_train_metrics_are_left_unmodified(self):
        t = np.array([0.9, 0.8, 0.7])
        updates = [upd(c, [float(c)]) for c in range(3)]
        fedboosting_aggregate(updates, np.full((3, 3), 0.5), t)
        np.testing.assert_array_equal(t, [0.9, 0.8, 0.7])

    def test_bad_matrix_shape(self):
        updates = [upd(0, [1.0]), upd(1, [1.0])]
        with pytest.raises(StructureMismatchError):
            fedboosting_aggregate(updates, np.zeros((3, 3)), np.array([1.0, 1.0]))
        with pytest.raises(StructureMismatchError):
            fedboosting_aggregate(updates, np.zeros((2, 2)), np.array([1.0]))


# One reference per strategy: its rule as the README states it, one Python
# float at a time. Each takes the rounds' inputs and the config, and
# returns each round's G with the state the round advances to: m, v and
# v_max, fedadp's smoothed angles, or nothing for fedavg and fedboosting.

class Round(NamedTuple):
    """One round's inputs as plain floats, in client order."""
    grads: list  # C lists of P floats
    counts: list  # C sample counts
    accuracies: list  # C train accuracies
    cross_val: list  # C x C: model c's accuracy on client j's held-out split


def grad_rounds(grads_per_round):
    """Rounds of the given client gradients, each client with upd's 10
    samples and a train accuracy of 0.5, and no cross-validation matrix."""
    return [Round([[float(x) for x in g] for g in grads], [10] * len(grads),
                  [0.5] * len(grads), None) for grads in grads_per_round]


def loop_second_moment(variant, v, g, b2):
    """One element's v after gradient g, as fedopt and ewwa advance it."""
    if variant == "adam":
        return b2 * v + (1 - b2) * g * g
    if variant == "adagrad":
        return v + g * g
    return v - (1 - b2) * g * g * ((v > g * g) - (v < g * g))  # yogi, sign(0) = 0


def loop_softmax(xs):
    exps = [math.exp(x - max(xs)) for x in xs]
    return [e / sum(exps) for e in exps]


def loop_weighted_sum(weights, grads):
    return [sum(w * g[k] for w, g in zip(weights, grads))
            for k in range(len(grads[0]))]


def loop_fedavg_oracle(rounds, cfg):
    """G = Σ_c n_c·g_c / Σ_c n_c."""
    return [(loop_weighted_sum([n / sum(rnd.counts) for n in rnd.counts],
                               rnd.grads), {}) for rnd in rounds]


def loop_fedopt_oracle(rounds, cfg, amsgrad=False):
    """FedOpt (Reddi et al., ICLR 2021) on the uniform mean gradient, with
    the step server_lr·sqrt(1 − β2^r)/(1 − β1^r). With amsgrad it is
    fedams: always adam, and dividing by the running max of v."""
    b1, b2 = cfg.beta1, cfg.beta2
    variant = "adam" if amsgrad else cfg.variant
    p = len(rounds[0].grads[0])
    m, v, v_max, out = [0.0] * p, [0.0] * p, [0.0] * p, []
    for r, rnd in enumerate(rounds, start=1):
        g_mean = [sum(g[k] for g in rnd.grads) / len(rnd.grads) for k in range(p)]
        m = [b1 * a + (1 - b1) * g for a, g in zip(m, g_mean)]
        v = [loop_second_moment(variant, a, g, b2) for a, g in zip(v, g_mean)]
        if amsgrad:
            v_max = [max(a, b) for a, b in zip(v_max, v)]
        eta = cfg.server_lr * math.sqrt(1 - b2 ** r) / (1 - b1 ** r)
        big_g = [eta * a / (math.sqrt(b) + cfg.epsilon)
                 for a, b in zip(m, v_max if amsgrad else v)]
        out.append((big_g, {"m": m, "v": v, "v_max": v_max}))
    return out


def loop_ewwa_oracle(rounds, cfg):
    """The README's "ewwa as implemented"."""
    b1, b2 = cfg.beta1, cfg.beta2
    p = len(rounds[0].grads[0])
    m, v, out = [0.0] * p, [0.0] * p, []
    for r, rnd in enumerate(rounds, start=1):
        big_g, m_next, v_next = [], [], []
        for k in range(p):
            ms = [b1 * m[k] + (1 - b1) * g[k] for g in rnd.grads]
            vs = [loop_second_moment(cfg.variant, v[k], g[k], b2)
                  for g in rnd.grads]
            scores = [cfg.server_lr * (mc / (1 - b1 ** r))
                      / (math.sqrt(vc / (1 - b2 ** r)) + cfg.epsilon)
                      for mc, vc in zip(ms, vs)]
            big_g.append(sum(w * g[k] for w, g in zip(loop_softmax(scores),
                                                      rnd.grads)))
            m_next.append(sum(ms) / len(ms))
            v_next.append(sum(vs) / len(vs))
        m, v = m_next, v_next
        out.append((big_g, {"m": m, "v": v}))
    return out


def loop_fedadp_oracle(rounds, cfg):
    """The README's "fedadp as implemented"."""
    alpha, smoothed, out = cfg.adp_alpha, {}, []
    for r, rnd in enumerate(rounds, start=1):
        c, p = len(rnd.grads), len(rnd.grads[0])
        g_mean = [sum(g[k] for g in rnd.grads) / c for k in range(p)]
        norm_mean = math.sqrt(sum(x * x for x in g_mean))
        contribs = []
        for cid, g in enumerate(rnd.grads):
            cos = sum(a * b for a, b in zip(g, g_mean)) / (
                math.sqrt(sum(x * x for x in g)) * norm_mean)
            theta = math.acos(max(-1.0, min(1.0, cos)))
            smoothed[cid] = ((r - 1) * smoothed.get(cid, 0.0) + theta) / r
            contribs.append(alpha * (1.0 - math.exp(-math.exp(
                alpha * (1.0 - smoothed[cid])))))
        out.append((loop_weighted_sum(loop_softmax(contribs), rnd.grads),
                    {"smoothed_angles": dict(smoothed)}))
    return out


def loop_fedboosting_oracle(rounds, cfg):
    """s = softmax_c(train accuracy), and the weights are
    softmax_c(s_c · Σ_{j≠c} V[c][j])."""
    out = []
    for rnd in rounds:
        s = loop_softmax(rnd.accuracies)
        scores = [s[c] * sum(x for j, x in enumerate(row) if j != c)
                  for c, row in enumerate(rnd.cross_val)]
        out.append((loop_weighted_sum(loop_softmax(scores), rnd.grads), {}))
    return out


LOOP_REFERENCES = {
    "fedavg": loop_fedavg_oracle,
    "fedopt": loop_fedopt_oracle,
    "fedams": functools.partial(loop_fedopt_oracle, amsgrad=True),
    "ewwa": loop_ewwa_oracle,
    "fedadp": loop_fedadp_oracle,
    "fedboosting": loop_fedboosting_oracle,
}


def check_loop_reference(case):
    """Over six rounds of five clients, given in reverse order, with unequal
    sample counts, random train accuracies and a random C x C matrix,
    aggregate gives the G and state of the strategy's loop reference.
    Round 1's moments hold to 1e-15, and G and every later state to 1e-12."""
    c, p = 5, 37
    rng = np.random.default_rng(29)
    cfg = AggregatorConfig(server_lr=3.0, **case)
    rounds = [Round([(rng.normal(size=p) * rng.uniform(0.1, 3.0)).tolist()
                     for _ in range(c)],
                    rng.integers(1, 500, size=c).tolist(),
                    rng.uniform(size=c).tolist(),
                    rng.uniform(size=(c, c)).tolist()) for _ in range(6)]
    state = initial_state(ps(*np.zeros(p)))
    expected = LOOP_REFERENCES[cfg.strategy](rounds, cfg)
    for r, (rnd, (big_g, ref_state)) in enumerate(zip(rounds, expected), start=1):
        updates = [ClientUpdate(cid, ps(*g), n, 0.0, acc) for cid, (g, n, acc)
                   in enumerate(zip(rnd.grads, rnd.counts, rnd.accuracies))]
        out, state = aggregate(updates[::-1], state, cfg,
                               lambda models: np.array(rnd.cross_val))
        np.testing.assert_allclose(out.to_flat(), big_g, rtol=0, atol=1e-12)
        for name, ref in ref_state.items():
            got, atol = getattr(state, name), 1e-15 if r == 1 else 1e-12
            if name == "smoothed_angles":
                assert got.keys() == ref.keys()
                got, ref, atol = [got[k] for k in ref], list(ref.values()), 1e-12
            else:
                got = got.to_flat()
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol, err_msg=name)


@pytest.mark.parametrize("case", [
    {"strategy": "fedavg"},
    *({"strategy": "fedopt", "variant": v} for v in VARIANTS),
    {"strategy": "fedams", "variant": "yogi"},  # which fedams must ignore
    *({"strategy": "ewwa", "variant": v} for v in VARIANTS),
    {"strategy": "fedadp", "adp_alpha": 5.0},
    {"strategy": "fedadp", "adp_alpha": 1.5},
    {"strategy": "fedboosting"},
], ids=lambda case: "-".join(map(str, case.values())))
def test_every_strategy_matches_its_loop_reference(case):
    """ewwa's 5 x 37 values fit in one column block here."""
    assert len(_column_blocks(5, 37)) == 1
    check_loop_reference(case)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ewwa_matches_its_loop_reference_across_blocks(monkeypatch, variant):
    """The same rounds on 13 column blocks of 2-3 columns."""
    monkeypatch.setattr(aggregators, "BLOCK_VALUES", 16)
    assert len(_column_blocks(5, 37)) == 13
    check_loop_reference({"strategy": "ewwa", "variant": variant})


class TestEwwa:
    def test_single_client_degenerates_to_gradient(self):
        cfg = AggregatorConfig(strategy="ewwa")
        g_in = [0.3, -2.0, 5.0]
        g_out, _ = ewwa_aggregate([upd(0, g_in)], initial_state(ps(0, 0, 0)), cfg)
        np.testing.assert_allclose(g_out.to_flat(), g_in, atol=1e-15)

    def test_identical_clients_match_fedavg(self):
        cfg = AggregatorConfig(strategy="ewwa")
        g_in = np.array([0.5, -1.5, 0.0, 2.0])
        updates = [upd(c, g_in) for c in range(3)]
        g_out, _ = ewwa_aggregate(updates, initial_state(ps(*np.zeros(4))), cfg)
        avg = fedavg_aggregate(updates)
        np.testing.assert_allclose(g_out.to_flat(), avg.to_flat(), atol=1e-12)

    @pytest.mark.parametrize("variant", ["adam", "adagrad", "yogi"])
    def test_first_round_matches_elementwise_oracle(self, variant):
        cfg = AggregatorConfig(strategy="ewwa", variant=variant)
        grads = [[0.4, -0.7, 1.2], [-0.1, 0.9, 0.3]]
        state = initial_state(ps(0, 0, 0))
        g_out, state = ewwa_aggregate(
            [upd(c, g) for c, g in enumerate(grads)], state, cfg)
        [(expected, moments)] = loop_ewwa_oracle(grad_rounds([grads]), cfg)
        np.testing.assert_allclose(g_out.to_flat(), expected, atol=1e-12)
        np.testing.assert_allclose(state.m.to_flat(), moments["m"], atol=1e-15)
        np.testing.assert_allclose(state.v.to_flat(), moments["v"], atol=1e-15)

    def test_multi_round_matches_elementwise_oracle(self):
        cfg = AggregatorConfig(strategy="ewwa", variant="adam")
        rng = np.random.default_rng(21)
        rounds = [rng.normal(size=(3, 3)) for _ in range(5)]
        state = initial_state(ps(0, 0, 0))
        for grads, (expected, _) in zip(rounds,
                                        loop_ewwa_oracle(grad_rounds(rounds), cfg)):
            g_out, state = ewwa_aggregate(
                [upd(c, g) for c, g in enumerate(grads)], state, cfg)
            np.testing.assert_allclose(g_out.to_flat(), expected, atol=1e-12)

    def test_proportion_law_random_rounds(self):
        rng = np.random.default_rng(33)
        cfg = AggregatorConfig(strategy="ewwa")
        for num_clients in (2, 3, 5):
            state = initial_state(ps(*np.zeros(1200)))
            for _ in range(4):
                updates = random_updates(rng, num_clients, size=1200)
                _, state, props = ewwa_aggregate(updates, state, cfg,
                                                 return_proportions=True)
                total = np.sum([p.to_flat() for p in props], axis=0)
                np.testing.assert_allclose(total, 1.0, atol=1e-9)
                for p in props:
                    flat = p.to_flat()
                    assert np.all(flat > 0.0) and np.all(flat <= 1.0)


CROSS_VAL = np.array([[0.5, 0.9, 0.8], [0.4, 0.5, 0.7], [0.6, 0.7, 0.5]])


def cross_validate(models):
    return CROSS_VAL


@pytest.mark.parametrize("strategy", ["ewwa", "fedams", "fedavg", "fedboosting",
                                      "fedopt"])
def test_two_layer_set_aggregates_like_each_layer_alone(strategy):
    """Layers never mix: aggregating a 2-layer set gives, bit for bit, the
    concatenation of aggregating each layer on its own, round after round.
    (fedadp's angles span all layers, so its layers do mix.)"""
    cfg = AggregatorConfig(strategy=strategy)
    rng = np.random.default_rng(71)
    sizes = (5, 8)
    joint_state = initial_state(ParameterSet(
        (name, (n,), np.zeros(n)) for name, n in zip("ab", sizes)))
    alone_states = [initial_state(ps(*np.zeros(n))) for n in sizes]
    for _ in range(3):
        grads = [[rng.normal(size=n) for n in sizes] for _ in range(3)]
        counts = rng.integers(1, 50, size=3)
        joint = [ClientUpdate(
            client_id=c, num_samples=int(counts[c]), train_loss=0.0,
            train_accuracy=0.5 + 0.1 * c, pseudo_gradient=ParameterSet(
                (name, (n,), g) for name, n, g in zip("ab", sizes, grads[c])))
            for c in range(3)]
        g_joint, joint_state = aggregate(joint, joint_state, cfg, cross_validate)
        parts = []
        for i in range(len(sizes)):
            alone = [ClientUpdate(c, ps(*grads[c][i]), int(counts[c]), 0.0,
                                  0.5 + 0.1 * c) for c in range(3)]
            g_alone, alone_states[i] = aggregate(alone, alone_states[i], cfg,
                                                 cross_validate)
            parts.append(g_alone.to_flat())
        np.testing.assert_array_equal(g_joint.to_flat(), np.concatenate(parts))


def trained_updates(rng, count, size=25):
    """Updates with unequal sample counts, train accuracies and trained
    weights, as train_local returns them."""
    return [ClientUpdate(c, ps(*rng.normal(size=size)), int(rng.integers(1, 50)),
                         0.0, float(rng.uniform()),
                         local_params=ps(*rng.normal(size=size)))
            for c in range(count)]


def direct_call(strategy, updates, state, cfg):
    """One round of strategy by its own function, inputs made by hand."""
    if strategy == "fedavg":
        return fedavg_aggregate(updates), state
    if strategy == "fedadp":
        return fedadp_aggregate(updates, state, cfg,
                                mean([u.pseudo_gradient for u in updates]))
    if strategy == "fedboosting":
        return fedboosting_aggregate(
            updates, cross_validate(updates),
            np.array([u.train_accuracy for u in updates])), state
    fn = {"fedopt": fedopt_aggregate, "fedams": fedams_aggregate,
          "ewwa": ewwa_aggregate}[strategy]
    return fn(updates, state, cfg)


class TestAggregate:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("variant", ["adam", "yogi"])
    def test_equals_a_direct_call_bit_for_bit(self, strategy, variant):
        cfg = AggregatorConfig(strategy=strategy, variant=variant)
        rng = np.random.default_rng(13)
        state = direct_state = initial_state(ps(*np.zeros(25)))
        for _ in range(4):
            updates = trained_updates(rng, 3)
            big_g, state = aggregate(updates, state, cfg, cross_validate)
            expected, direct_state = direct_call(strategy, updates,
                                                 direct_state, cfg)
            assert np.array_equal(big_g.to_flat(), expected.to_flat())
            assert state.round == direct_state.round
            for name in ("m", "v", "v_max"):
                assert np.array_equal(getattr(state, name).to_flat(),
                                      getattr(direct_state, name).to_flat())
            assert state.smoothed_angles == direct_state.smoothed_angles

    def test_fedboosting_cross_validates_the_trained_weights_in_client_order(self):
        rng = np.random.default_rng(4)
        updates = trained_updates(rng, 4)
        seen = []

        def spy(models):
            seen.append(models)
            return rng.uniform(size=(4, 4))

        aggregate(updates[::-1], initial_state(ps(*np.zeros(25))),
                  AggregatorConfig(strategy="fedboosting"), spy)
        assert len(seen) == 1
        assert all(a is b for a, b in zip(seen[0], [u.local_params for u in updates],
                                          strict=True))

    def test_fedboosting_reads_train_accuracy_before_cross_validating(self):
        order = []
        updates = [ClientUpdate(c, ps(1.0), 10, 0.0,
                                lambda: order.append("train") or 0.5)
                   for c in range(2)]
        aggregate(updates, initial_state(ps(0.0)),
                  AggregatorConfig(strategy="fedboosting"),
                  lambda models: order.append("cross") or np.eye(2))
        assert order == ["train", "train", "cross"]

    def test_a_non_finite_result_names_the_aggregate_phase(self):
        updates = [upd(c, [1e200, 1.0]) for c in range(2)]
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
            aggregate(updates, initial_state(ps(0.0, 0.0)),
                      AggregatorConfig(strategy="fedopt"))
        assert str(err.value) == "aggregate: layer 'w': non-finite values"
        assert str(err.value.__cause__) == "layer 'w': non-finite values"


def test_ewwa_is_not_odd_in_the_pseudo_gradients():
    """Clients at +1 and -1 on one element: ewwa gives tanh(1) less 4.2e-9,
    eps's share, whichever client holds which sign; fedavg gives 0."""
    for signs in ((1.0, -1.0), (-1.0, 1.0)):
        updates = [upd(c, [sign]) for c, sign in enumerate(signs)]
        big_g, _ = aggregate(updates, initial_state(ps(0.0)),
                             AggregatorConfig(strategy="ewwa"))
        assert big_g.to_flat()[0] == 0.7615941517560214
        assert math.tanh(1.0) - big_g.to_flat()[0] == pytest.approx(4.2e-9,
                                                                    rel=1e-2)
        big_g, _ = aggregate(updates, initial_state(ps(0.0)), AggregatorConfig())
        assert big_g.to_flat()[0] == 0.0


@pytest.mark.parametrize("strategy,variant", [
    ("fedavg", "adam"), *(("fedopt", v) for v in VARIANTS), ("fedams", "adam"),
    ("fedadp", "adam"), ("fedboosting", "adam")])
def test_every_other_strategy_is_odd_in_the_pseudo_gradients(strategy, variant):
    """G(-g) == -G(g) bit for bit through aggregate, over six rounds of five
    clients: these strategies' client weights do not depend on g's sign."""
    cfg = AggregatorConfig(strategy=strategy, variant=variant)
    rng = np.random.default_rng(20)
    state = negated_state = initial_state(ps(*np.zeros(25)))
    for _ in range(6):
        updates = trained_updates(rng, 5)
        negated = [ClientUpdate(u.client_id, ps(*-u.pseudo_gradient.to_flat()),
                                u.num_samples, 0.0, u.train_accuracy,
                                local_params=u.local_params) for u in updates]
        matrix = rng.uniform(size=(5, 5))
        big_g, state = aggregate(updates, state, cfg, lambda models: matrix)
        negated_g, negated_state = aggregate(negated, negated_state, cfg,
                                             lambda models: matrix)
        assert np.array_equal((-big_g.to_flat()).view(np.uint64),
                              negated_g.to_flat().view(np.uint64))


class TestPermutationInvariance:
    def test_all_strategies(self):
        """Any arrival order gives the same bits and the same state."""
        rng = np.random.default_rng(55)
        updates = trained_updates(rng, 4)
        shuffled = [updates[i] for i in (2, 0, 3, 1)]
        state = initial_state(ps(*np.zeros(25)))
        matrix = rng.uniform(size=(4, 4))
        for strategy in STRATEGIES:
            cfg = AggregatorConfig(strategy=strategy)
            a, state_a = aggregate(updates, state, cfg, lambda models: matrix)
            b, state_b = aggregate(shuffled, state, cfg, lambda models: matrix)
            assert np.array_equal(a.to_flat(), b.to_flat()), strategy
            assert np.array_equal(state_a.m.to_flat(), state_b.m.to_flat())
            assert state_a.smoothed_angles == state_b.smoothed_angles


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "avg"}, {"variant": "sgd"}, {"beta1": 1.0},
        {"beta2": -0.1}, {"server_lr": 0.0}, {"epsilon": 0.0},
        {"adp_alpha": 0.0},
    ])
    def test_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AggregatorConfig(**kwargs)

    def test_defaults_match_protocol(self):
        cfg = AggregatorConfig()
        assert (cfg.server_lr, cfg.beta1, cfg.beta2) == (1.0, 0.9, 0.999)


# The strategies as they were when each stacked the clients' pseudo-
# gradients into one (C, P) array and reduced it with .sum(axis=0): the
# reference that folding and column blocks must match bit for bit.

def stacked(updates):
    updates = sorted(updates, key=lambda u: u.client_id)
    return updates, np.stack([u.pseudo_gradient.to_flat() for u in updates])


def stacked_weighted_sum(updates, g, weights):
    g *= weights.reshape(len(g), -1)
    return updates[0].pseudo_gradient.with_flat(g.sum(axis=0))


def stacked_fedavg(updates):
    updates, g = stacked(updates)
    counts = np.array([u.num_samples for u in updates])
    return stacked_weighted_sum(updates, g, counts / counts.sum())


def stacked_fedopt(updates, state, cfg, amsgrad=False):
    _, g = stacked(updates)
    g_mean = g.sum(axis=0) * (1.0 / len(g))
    r = state.round + 1
    m = _first_moment(state.m.to_flat(), g_mean, cfg.beta1)
    v = _second_moment("adam" if amsgrad else cfg.variant, state.v.to_flat(),
                       g_mean, cfg.beta2)
    v_max = np.maximum(state.v_max.to_flat(), v) if amsgrad else v
    eta = adaptive_step_size(cfg.server_lr, cfg.beta1, cfg.beta2, r)
    big_g = eta * m / (np.sqrt(v_max) + cfg.epsilon)
    like = state.m.with_flat
    return like(big_g), AggregatorState(
        r, like(m), like(v), like(v_max) if amsgrad else state.v_max,
        state.smoothed_angles)


def stacked_ewwa(updates, state, cfg):
    updates, g = stacked(updates)
    r = state.round + 1
    m = _first_moment(state.m.to_flat(), g, cfg.beta1)
    v = _second_moment(cfg.variant, state.v.to_flat(), g, cfg.beta2)
    like = state.m.with_flat
    new_state = AggregatorState(
        r, like(m.sum(axis=0) * (1.0 / len(g))),
        like(v.sum(axis=0) * (1.0 / len(g))), state.v_max,
        state.smoothed_angles)
    m /= 1.0 - cfg.beta1 ** r
    m *= cfg.server_lr
    v /= 1.0 - cfg.beta2 ** r
    np.sqrt(v, out=v)
    v += cfg.epsilon
    m /= v
    p = column_softmax(m)
    return (stacked_weighted_sum(updates, g, p), new_state,
            [like(row) for row in p])


def stacked_fedadp(updates, state, cfg, global_mean_grad):
    updates, g = stacked(updates)
    r = state.round + 1
    norm_global = l2_norm(global_mean_grad)
    angles = {}
    for u in updates:
        norm_local = l2_norm(u.pseudo_gradient)
        if norm_global < 1e-300 or norm_local < 1e-300:
            theta = np.pi / 2.0
        else:
            cos = flat_inner_product(global_mean_grad, u.pseudo_gradient) / (
                norm_global * norm_local)
            theta = float(np.arccos(np.clip(cos, -1.0, 1.0)))
        prev = state.smoothed_angles.get(u.client_id)
        angles[u.client_id] = theta if prev is None else ((r - 1) * prev + theta) / r
    contribs = np.array([gompertz_contribution(angles[u.client_id], cfg.adp_alpha)
                         for u in updates])
    return (stacked_weighted_sum(updates, g, column_softmax(contribs)),
            AggregatorState(r, state.m, state.v, state.v_max, angles))


def stacked_fedboosting(updates, cross_val, train_metrics):
    updates, g = stacked(updates)
    s = column_softmax(np.array(train_metrics, dtype=np.float64))
    off_diag_sums = cross_val.sum(axis=1) - np.diag(cross_val)
    return stacked_weighted_sum(updates, g,
                                column_softmax(s * off_diag_sums))


def stacked_mean(sets):
    total = np.stack([s.to_flat() for s in sets]).sum(axis=0)
    return sets[0].with_flat(total * (1.0 / len(sets)))


def bits(result):
    """Every value of a set, or of a (G, state) or (G, state, proportions)
    result, the arrays as bytes."""
    if isinstance(result, ParameterSet):
        return result.to_flat().tobytes()
    big_g, state, *proportions = result
    return [bits(big_g), *(bits(getattr(state, n)) for n in ("m", "v", "v_max")),
            state.round, state.smoothed_angles,
            *(bits(p) for props in proportions for p in props)]


def round_inputs(rng, c, p):
    """c shuffled updates of p values, with unequal sample counts, some
    -0.0 and some subnormal values, and a state with non-zero moments and
    angles for every other client."""
    grads = rng.normal(size=(c, p)) * 10.0 ** rng.integers(-3, 3, size=(c, p))
    grads[rng.random((c, p)) < 0.05] = -0.0
    grads[rng.random((c, p)) < 0.02] = -1e-320
    updates = [ClientUpdate(cid, ps(*grads[cid]), int(rng.integers(1, 500)),
                            0.0, float(rng.uniform())) for cid in range(c)]
    updates = [updates[i] for i in rng.permutation(c)]
    m, v = rng.normal(size=p), rng.random(size=p)
    v[: p // 3] = grads[0, : p // 3] ** 2  # yogi's sign(0)
    state = AggregatorState(
        4, ps(*m), ps(*v), ps(*np.maximum(v, rng.random(size=p))),
        {cid: float(rng.uniform(0, np.pi)) for cid in range(0, c, 2)})
    return updates, state


@pytest.mark.parametrize("p", [2, 3, 7, 511, 2762, 5001])
@pytest.mark.parametrize("c", [1, 2, 3, 10, 100, 257])
def test_every_strategy_equals_its_stacked_form_bit_for_bit(c, p):
    """Over one to several of ewwa's column blocks (257 x 5001 values take
    20), shuffled clients and a state from earlier rounds. At 257 x 511,
    blocks of a fixed 255 columns would leave a 1-column block, which
    NumPy sums pairwise."""
    rng = np.random.default_rng(1000 * c + p)
    updates, state = round_inputs(rng, c, p)
    grads = [u.pseudo_gradient for u in updates]
    g_mean = mean(grads)
    assert bits(g_mean) == bits(stacked_mean(grads))
    assert bits(fedavg_aggregate(updates)) == bits(stacked_fedavg(updates))
    for variant in VARIANTS:
        cfg = AggregatorConfig(variant=variant)
        assert (bits(fedopt_aggregate(updates, state, cfg))
                == bits(stacked_fedopt(updates, state, cfg)))
        reference = stacked_ewwa(updates, state, cfg)
        assert (bits(ewwa_aggregate(updates, state, cfg, return_proportions=True))
                == bits(reference))
        assert bits(ewwa_aggregate(updates, state, cfg)) == bits(reference[:2])
    cfg = AggregatorConfig()
    assert (bits(fedams_aggregate(updates, state, cfg))
            == bits(stacked_fedopt(updates, state, cfg, amsgrad=True)))
    assert (bits(fedadp_aggregate(updates, state, cfg, g_mean))
            == bits(stacked_fedadp(updates, state, cfg, g_mean)))
    cross_val = rng.uniform(size=(c, c))
    train = rng.uniform(size=c)
    assert (bits(fedboosting_aggregate(updates, cross_val, train))
            == bits(stacked_fedboosting(updates, cross_val, train)))


@pytest.mark.parametrize("c", [1, 2, 3, 7, 100, 257, 30000, 40000])
def test_column_blocks_cover_the_columns_at_least_two_wide(c):
    for p in range(1, 301):
        blocks = _column_blocks(c, p)
        assert blocks[0][0] == 0 and blocks[-1][1] == p
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        widths = [hi - lo for lo, hi in blocks]
        assert min(widths) >= min(2, p)
        assert max(widths) - min(widths) <= 1  # balanced
        if c * 3 <= BLOCK_VALUES:
            assert c * max(widths) <= BLOCK_VALUES
        if c * p <= BLOCK_VALUES:
            assert len(blocks) == 1


def test_a_skew_c100_round_takes_five_blocks():
    assert [hi - lo for lo, hi in _column_blocks(100, 2762)] == [552, 552, 553,
                                                                  552, 553]


def test_one_value_sets_fold_in_client_order():
    """At P = 1 the folding strategies add the clients in client order,
    where .sum(axis=0) over a (C, 1) stack adds pairwise."""
    rng = np.random.default_rng(8)
    cfg = AggregatorConfig()
    for _ in range(20):
        updates = [upd(c, [x], n=int(rng.integers(1, 500))) for c, x in
                   enumerate(rng.normal(size=100) * 10.0 ** rng.integers(
                       -10, 10, size=100))]
        counts = [u.num_samples for u in updates]
        total = 0.0
        for u, n in zip(updates, counts):
            total += n / sum(counts) * u.pseudo_gradient.to_flat()[0]
        assert fedavg_aggregate(updates[::-1]).to_flat()[0] == total
        total = 0.0
        for u in updates:
            total += u.pseudo_gradient.to_flat()[0]
        _, state = fedopt_aggregate(updates, initial_state(ps(0.0)), cfg)
        assert state.m.to_flat()[0] == (1 - cfg.beta1) * (total * (1.0 / 100))


def peak_stacks(call, stack_bytes):
    """call's peak of traced allocations, in (C, P) float64 stacks."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / stack_bytes


def wide_round(c, p):
    """A round of c clients' random P-vectors, and the zero state."""
    rng = np.random.default_rng(2)
    updates = [ClientUpdate(cid, ps(*rng.normal(size=p)), int(rng.integers(1, 50)),
                            0.0, 0.5) for cid in range(c)]
    return updates, initial_state(ps(*np.zeros(p)))


def test_no_strategy_allocates_half_a_stack():
    c, p = 64, 20_000
    updates, state = wide_round(c, p)
    grads = [u.pseudo_gradient for u in updates]
    g_mean = mean(grads)
    calls = {
        "mean": lambda: mean(grads),
        "fedavg": lambda: fedavg_aggregate(updates),
        "fedadp": lambda: fedadp_aggregate(updates, state, AggregatorConfig(),
                                           g_mean),
        "fedboosting": lambda: fedboosting_aggregate(
            updates, np.full((c, c), 0.5), np.full(c, 0.5)),
        "fedams": lambda: fedams_aggregate(updates, state, AggregatorConfig()),
        **{f"{name}-{variant}": (lambda fn=fn, variant=variant: fn(
            updates, state, AggregatorConfig(variant=variant)))
           for name, fn in (("fedopt", fedopt_aggregate),
                            ("ewwa", ewwa_aggregate))
           for variant in VARIANTS},
    }
    peaks = {name: peak_stacks(call, c * p * 8) for name, call in calls.items()}
    assert max(peaks.values()) < 0.5, peaks


@pytest.mark.parametrize("variant,bound", [
    ("adam", 0.29), ("adagrad", 0.34), ("yogi", 0.39)])
def test_ewwa_holds_one_column_block_at_a_time(variant, bound):
    """At (64, 20,000), 20 blocks of 1,000 columns, ewwa peaks at 0.236,
    0.285 and 0.335 stacks. Each is 0.1 more, two blocks' arrays, when a
    block's arrays are still held as the next block is gathered."""
    c, p = 64, 20_000
    updates, state = wide_round(c, p)
    assert len(_column_blocks(c, p)) == 20
    peak = peak_stacks(lambda: ewwa_aggregate(
        updates, state, AggregatorConfig(strategy="ewwa", variant=variant)),
        c * p * 8)
    assert peak < bound, peak
