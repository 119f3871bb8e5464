"""Walk through each aggregation strategy on the same stream of updates.

Three simulated clients send gradient-like updates for five rounds. For each
strategy we print the first few components of the combined update so the
differences in weighting behaviour are visible side by side:

- fedavg:      sample-count weighted mean, no state
- fedopt:      server-side Adam/Adagrad/Yogi on the mean update
- fedams:      Adam with a running element-wise max of the second moment
- ewwa:        per-client moments with an element-wise softmax over clients
- fedadp:      scalar weights from smoothed client/mean gradient angles
- fedboosting: scalar weights from cross-validated client model quality
"""
import numpy as np

from fedsim.aggregators import STRATEGIES, AggregatorConfig, aggregate, initial_state
from fedsim.tensors import ParameterSet
from fedsim.training import ClientUpdate

SIZE = 8
ROUNDS = 5


def make_updates(rng, round_num):
    """Client 0 is low-noise, client 2 is noisy and over-represented."""
    base = np.sin(np.arange(SIZE) + 0.3 * round_num)
    updates = []
    for cid, (noise, samples) in enumerate([(0.05, 40), (0.3, 40), (1.0, 120)]):
        grad = base + rng.normal(scale=noise, size=SIZE)
        updates.append(ClientUpdate(client_id=cid, pseudo_gradient=ParameterSet(
            [("w", (SIZE,), grad)]), num_samples=samples,
            train_loss=1.0 / round_num, train_accuracy=0.6 + 0.05 * cid))
    return updates


def show(label, combined):
    head = ", ".join(f"{x:+.4f}" for x in combined.to_flat()[:4])
    print(f"  {label:<16s} [{head}, ...]")


def main():
    rng = np.random.default_rng(42)
    template = ParameterSet([("w", (SIZE,), np.zeros(SIZE))])

    states = {name: initial_state(template) for name in STRATEGIES}
    configs = {name: AggregatorConfig(strategy=name) for name in STRATEGIES}

    def cross_validate(models):
        # a made-up cross-validation accuracy matrix: row i = client i's
        # model evaluated on each client's held-out split
        return rng.uniform(0.5, 0.95, size=(3, 3))

    for r in range(1, ROUNDS + 1):
        updates = make_updates(rng, r)
        print(f"round {r}")
        for name in STRATEGIES:
            combined, states[name] = aggregate(updates, states[name],
                                               configs[name], cross_validate)
            show(name, combined)

    print("\nsmoothed client angles after the run (fedadp):")
    for cid, angle in sorted(states["fedadp"].smoothed_angles.items()):
        print(f"  client {cid}: {angle:.4f} rad")


if __name__ == "__main__":
    main()
