"""Show how IID and label-skewed partitioning distribute classes.

Generates a synthetic blob dataset, then prints per-client class histograms
for an IID split and for Dirichlet label-skew splits at two concentration
values. Smaller concentration means more skew: each client ends up dominated
by a few classes, which is the regime where plain averaging struggles.
"""
import numpy as np

from fedsim.data import partition_iid, partition_label_skew, synth_blobs


def histogram_table(data, partition, title):
    print(title)
    for cid, shard in enumerate(partition.shards):
        counts = np.bincount(data.labels[shard], minlength=data.num_classes)
        row = " ".join(f"{c:4d}" for c in counts)
        print(f"  client {cid}: [{row}]  ({shard.size} samples)")
    print()


def main():
    data = synth_blobs(num_classes=6, per_class=150, dim=8, spread=0.4,
                       seed=11)
    print(f"dataset: {data.n} samples, {data.num_classes} classes\n")

    histogram_table(data, partition_iid(data, 4, seed=0),
                    "IID split (4 clients) — near-uniform rows:")
    histogram_table(data, partition_label_skew(data, 4, concentration=1.0,
                                               seed=0),
                    "label skew, concentration 1.0 — mild imbalance:")
    histogram_table(data, partition_label_skew(data, 4, concentration=0.1,
                                               seed=0),
                    "label skew, concentration 0.1 — heavy imbalance:")

    # the same seed always cuts the same shards
    a = partition_label_skew(data, 4, concentration=0.1, seed=5)
    b = partition_label_skew(data, 4, concentration=0.1, seed=5)
    same = all(np.array_equal(x, y) for x, y in zip(a.shards, b.shards))
    print(f"same seed reproduces the exact shards: {same}")


if __name__ == "__main__":
    main()
