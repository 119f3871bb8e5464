import struct

import numpy as np
import pytest

from fedsim.data import (
    IDX_MAGIC_IMAGES,
    IDX_MAGIC_LABELS,
    Batch,
    Dataset,
    Partition,
    load_idx,
    partition_iid,
    partition_label_skew,
    read_idx,
    split_train_test,
    synth_blobs,
)
from fedsim.errors import (
    EmptyInputError,
    IdxConsistencyError,
    IdxFormatError,
    IdxLengthError,
    InsufficientDataError,
)
from idx_files import write_idx


def write_fixture(tmp_path, pixels, labels, rows=2, cols=2):
    n = len(labels)
    img = tmp_path / "images.idx"
    lbl = tmp_path / "labels.idx"
    write_idx(img, IDX_MAGIC_IMAGES, (n, rows, cols),
              np.asarray(pixels, dtype=np.uint8))
    write_idx(lbl, IDX_MAGIC_LABELS, (n,), np.asarray(labels, dtype=np.uint8))
    return img, lbl


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        pixels = [0, 255, 51, 102, 255, 0, 153, 204]
        img, lbl = write_fixture(tmp_path, pixels, [3, 7])
        data = load_idx(img, lbl)
        assert data.features.shape == (2, 4)
        np.testing.assert_allclose(
            data.features[0], [0.0, 1.0, 51 / 255, 102 / 255])
        np.testing.assert_allclose(
            data.features[1], [1.0, 0.0, 153 / 255, 204 / 255])
        np.testing.assert_array_equal(data.labels, [3, 7])

    def test_empty_file_is_length_error(self, tmp_path):
        img = tmp_path / "empty.idx"
        img.write_bytes(b"")
        with pytest.raises(IdxLengthError):
            read_idx(img, IDX_MAGIC_IMAGES)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "short.idx"
        img.write_bytes(struct.pack(">IIII", IDX_MAGIC_IMAGES, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(IdxLengthError):
            read_idx(img, IDX_MAGIC_IMAGES)

    def test_dimension_product_beyond_int64_is_length_error(self, tmp_path):
        img = tmp_path / "huge.idx"
        write_idx(img, IDX_MAGIC_IMAGES, (4, 2 ** 31, 2 ** 31), np.zeros(0))
        with pytest.raises(IdxLengthError, match=str(2 ** 64)):
            read_idx(img, IDX_MAGIC_IMAGES)

    def test_wrong_magic_reports_observed_value(self, tmp_path):
        img = tmp_path / "magic.idx"
        img.write_bytes(struct.pack(">II", 0x00000805, 1) + b"\x00")
        with pytest.raises(IdxFormatError, match="0x00000805"):
            read_idx(img, IDX_MAGIC_IMAGES)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "images.idx"
        lbl = tmp_path / "labels.idx"
        write_idx(img, IDX_MAGIC_IMAGES, (3, 1, 1), np.zeros(3, dtype=np.uint8))
        write_idx(lbl, IDX_MAGIC_LABELS, (2,), np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxConsistencyError):
            load_idx(img, lbl)

    def test_round_trip_byte_identical(self, tmp_path):
        pixels = list(range(8))
        img, lbl = write_fixture(tmp_path, pixels, [1, 0])
        for path, magic in ((img, IDX_MAGIC_IMAGES), (lbl, IDX_MAGIC_LABELS)):
            dims, payload = read_idx(path, magic)
            out = tmp_path / ("re_" + path.name)
            write_idx(out, magic, dims, payload)
            assert out.read_bytes() == path.read_bytes()


class TestSynthBlobs:
    def test_deterministic(self):
        a = synth_blobs(3, 10, 4, 0.5, seed=9)
        b = synth_blobs(3, 10, 4, 0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_spread_is_nearest_centroid_separable(self):
        data = synth_blobs(4, 25, 6, 1e-6, seed=1)
        centers = np.stack([
            data.features[data.labels == k].mean(axis=0) for k in range(4)])
        dists = np.linalg.norm(
            data.features[:, None, :] - centers[None, :, :], axis=2)
        assert np.all(np.argmin(dists, axis=1) == data.labels)

    def test_empirical_means_near_centers(self):
        data = synth_blobs(3, 10_000, 5, 0.1, seed=2)
        for k in range(3):
            mean_k = data.features[data.labels == k].mean(axis=0)
            center = np.zeros(5)
            center[k] = 1.0
            assert np.max(np.abs(mean_k - center)) < 0.01

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 1, 1, 1.0, 0)
        with pytest.raises(ValueError):
            synth_blobs(2, 5, 3, 0.0, 0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_is_rejected(self, spread):
        with pytest.raises(ValueError, match="spread must be > 0 and finite"):
            synth_blobs(3, 5, 2, spread, 0)


class TestSplit:
    def test_paper_ratio_sizes(self):
        data = synth_blobs(2, 50, 3, 0.5, 0)
        train, test = split_train_test(data, 0.9, seed=0)
        assert (train.n, test.n) == (90, 10)

    def test_two_samples(self):
        data = synth_blobs(2, 1, 3, 0.5, 0)
        train, test = split_train_test(data, 0.5, seed=1)
        assert (train.n, test.n) == (1, 1)

    def test_too_small_rejected(self):
        data = synth_blobs(1, 1, 2, 0.5, 0)
        with pytest.raises(InsufficientDataError):
            split_train_test(data, 0.5, seed=0)
        # a ratio of 0 or 1 leaves one side empty whatever the data
        for ratio in (0.0, 1.0):
            with pytest.raises(ValueError, match="ratio"):
                split_train_test(synth_blobs(2, 5, 2, 0.5, 0), ratio, seed=0)

    def test_split_is_disjoint_union(self):
        data = synth_blobs(3, 20, 2, 0.5, 5)
        train, test = split_train_test(data, 0.7, seed=3)
        combined = np.vstack([train.features, test.features])
        original = data.features[np.lexsort(data.features.T)]
        recombined = combined[np.lexsort(combined.T)]
        np.testing.assert_array_equal(original, recombined)


def shard_histograms(train, partition):
    return [
        np.bincount(train.labels[idx], minlength=train.num_classes)
        for idx in partition.shards
    ]


class TestPartitionIid:
    def test_even_sizes(self):
        data = synth_blobs(3, 3, 2, 0.5, 0)
        part = partition_iid(data, 3, seed=0)
        assert [len(s) for s in part.shards] == [3, 3, 3]

    def test_single_client_identity(self):
        data = synth_blobs(2, 5, 2, 0.5, 0)
        part = partition_iid(data, 1, seed=0)
        np.testing.assert_array_equal(part.shards[0], np.arange(10))

    def test_shard_sizes_within_one(self):
        data = synth_blobs(2, 50, 2, 0.5, 0)
        part = partition_iid(data, 7, seed=2)
        sizes = [len(s) for s in part.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_histograms_close_to_global(self):
        data = synth_blobs(5, 2000, 2, 0.5, 1)
        part = partition_iid(data, 3, seed=4)
        global_frac = data.class_histogram() / data.n
        for hist in shard_histograms(data, part):
            frac = hist / hist.sum()
            assert np.max(np.abs(frac - global_frac)) < 0.05

    def test_insufficient_data(self):
        data = synth_blobs(2, 1, 2, 0.5, 0)
        with pytest.raises(InsufficientDataError):
            partition_iid(data, 5, seed=0)
        # label skew makes the same client checks, and checks concentration
        with pytest.raises(InsufficientDataError):
            partition_label_skew(data, 5, 0.5, seed=0)
        for call in (lambda: partition_iid(data, 0, seed=0),
                     lambda: partition_label_skew(data, 0, 0.5, seed=0)):
            with pytest.raises(ValueError, match="num_clients"):
                call()
        with pytest.raises(ValueError, match="concentration"):
            partition_label_skew(data, 2, 0.0, seed=0)


class TestPartitionLabelSkew:
    def test_large_concentration_approaches_iid(self):
        data = synth_blobs(5, 2000, 2, 0.5, 1)
        part = partition_label_skew(data, 3, concentration=1e6, seed=0)
        global_frac = data.class_histogram() / data.n
        for hist in shard_histograms(data, part):
            frac = hist / hist.sum()
            assert np.max(np.abs(frac - global_frac)) < 0.05

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("concentration, message", [
        (float("nan"), "concentration must be > 0 and finite"),
        (float("inf"), "concentration must be > 0 and finite"),
        # concentration x clients overflows, and NumPy draws all zeros
        (1e308, "concentration 1e\\+308 must give 3 clients a Dirichlet "
                "draw summing to 1"),
    ])
    def test_concentration_without_a_probability_draw_is_rejected(
            self, concentration, message):
        data = synth_blobs(3, 10, 2, 0.5, 0)
        with pytest.raises(ValueError, match=message):
            partition_label_skew(data, 3, concentration, seed=0)

    def test_low_concentration_starves_classes(self):
        data = synth_blobs(10, 100, 2, 0.5, 1)
        seen = False
        for seed in range(20):
            part = partition_label_skew(data, 3, concentration=0.1, seed=seed)
            for hist in shard_histograms(data, part):
                if np.sum(hist == 0) >= 2:
                    seen = True
        assert seen

    # a train split that keeps classes 0 and 2 of three, one sample each
    CLASS_ABSENT = split_train_test(synth_blobs(3, 1, 4, 0.3, 0), 0.9, 0)[0]

    def test_disjoint_and_covering(self):
        for data, clients in [(synth_blobs(4, 30, 2, 0.5, 2), 4),
                              (self.CLASS_ABSENT, 2)]:
            for seed in range(10):
                part = partition_label_skew(data, clients, concentration=0.3,
                                            seed=seed)
                allidx = np.concatenate(part.shards)
                np.testing.assert_array_equal(np.sort(allidx),
                                              np.arange(data.n))
                assert all(len(s) > 0 for s in part.shards)

    def test_deterministic(self):
        for data, clients in [(synth_blobs(4, 30, 2, 0.5, 2), 3),
                              (self.CLASS_ABSENT, 2)]:
            a = partition_label_skew(data, clients, 0.5, seed=7)
            b = partition_label_skew(data, clients, 0.5, seed=7)
            for sa, sb in zip(a.shards, b.shards):
                np.testing.assert_array_equal(sa, sb)


class TestPartitionInvariants:
    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError):
            Partition([np.array([0, 1]), np.array([1, 2])], 3)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            Partition([np.array([0, 1, 2]), np.array([], dtype=np.int64)], 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Partition([np.array([0, 2])], 3)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)
    # the shape checks a Dataset shares with a Batch
    for make in (Batch, lambda x, y: Dataset(x, y, 3)):
        with pytest.raises(ValueError, match="align"):
            make(np.zeros((2, 2)), np.array([0, 1, 2]))
        with pytest.raises(EmptyInputError):
            make(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
