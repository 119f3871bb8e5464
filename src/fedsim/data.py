"""Dataset loading, synthesis, splitting, and client partitioning.

Covers the big-endian IDX binary format (MNIST-style), a synthetic
Gaussian-blob generator for desk-scale runs, a seeded train/test split,
and two client partitioners: IID round-robin and Dirichlet label skew.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    FedSimError,
    IdxConsistencyError,
    IdxFormatError,
    IdxLengthError,
    InsufficientDataError,
)

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803


@dataclass(frozen=True)
class Batch:
    """Labelled rows: at least one feature row, one label per row."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64 class indices

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise EmptyInputError("need at least one row of 2-D features")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")


@dataclass(frozen=True)
class Dataset(Batch):
    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class Partition:
    """Disjoint, covering, non-empty index shards over a parent dataset."""

    shards: list  # list of int64 index arrays
    parent_size: int

    def __post_init__(self):
        seen = np.concatenate([np.asarray(s, dtype=np.int64) for s in self.shards])
        if any(len(s) == 0 for s in self.shards):
            raise ValueError("empty shard")
        if len(np.unique(seen)) != len(seen):
            raise ValueError("shards overlap")
        if not np.array_equal(np.sort(seen), np.arange(self.parent_size)):
            raise ValueError("shards do not cover the parent index set")


def read_idx(path, magic: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Parse one IDX file with the given magic into (dims, flat uint8
    payload). Any other magic is a format error; the dimension count is
    the magic's low byte."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FedSimError(
            f"cannot read IDX file '{path}': {exc.strerror}") from exc
    if len(raw) < 4:
        raise IdxLengthError(f"{path}: only {len(raw)} bytes, no magic")
    (found,) = struct.unpack(">I", raw[:4])
    if found != magic:
        raise IdxFormatError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxLengthError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = math.prod(dims) if dims else 0  # Python ints: no wrap-around
    payload = raw[header_len:]
    if len(payload) != expected:
        raise IdxLengthError(
            f"{path}: {len(payload)} payload bytes, header promises {expected}"
        )
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style image/label IDX pair, pixels scaled to [0,1]."""
    img_dims, img_data = read_idx(images_path, IDX_MAGIC_IMAGES)
    lbl_dims, lbl_data = read_idx(labels_path, IDX_MAGIC_LABELS)
    n, rows, cols = img_dims
    if n != lbl_dims[0]:
        raise IdxConsistencyError(
            f"image count {n} != label count {lbl_dims[0]}"
        )
    if rows * cols == 0:
        raise IdxFormatError(f"{images_path}: {rows} x {cols} images have no pixels")
    features = img_data.reshape(n, rows * cols).astype(np.float64) / 255.0
    labels = lbl_data.astype(np.int64)
    if np.unique(labels).size < 2:
        raise InsufficientDataError(f"{labels_path}: fewer than 2 classes")
    return Dataset(features, labels, int(labels.max()) + 1)


def _class_center(k: int, dim: int) -> np.ndarray:
    """Deterministic well-separated center for class k: unit-axis points,
    pushed out one unit further each time the axes wrap around."""
    center = np.zeros(dim)
    center[k % dim] = 1.0 + k // dim
    return center


def synth_blobs(num_classes: int, per_class: int, dim: int, spread: float,
                seed: int) -> Dataset:
    """Isotropic Gaussian blobs at fixed class centers."""
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("counts must be >= 1")
    if spread <= 0:
        raise ValueError("spread must be > 0")
    rng = np.random.default_rng(seed)
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for k in range(num_classes):
        lo = k * per_class
        feats[lo:lo + per_class] = _class_center(k, dim) + spread * rng.standard_normal(
            (per_class, dim)
        )
        labels[lo:lo + per_class] = k
    return Dataset(feats, labels, max(num_classes, 2))


def split_train_test(data: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform split; train gets ceil(ratio * n) samples."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if data.n < 2:
        raise InsufficientDataError("need at least 2 samples to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    n_train = int(np.ceil(ratio * data.n))
    n_train = min(n_train, data.n - 1)  # keep the test side non-empty
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])


def _check_clients(train: Dataset, num_clients: int) -> None:
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if train.n < num_clients:
        raise InsufficientDataError(f"{train.n} samples for {num_clients} clients")


def partition_iid(train: Dataset, num_clients: int, seed: int) -> Partition:
    """Global shuffle then round-robin; shard sizes differ by at most 1."""
    _check_clients(train, num_clients)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(train.n)
    shards = [np.sort(perm[c::num_clients]) for c in range(num_clients)]
    return Partition(shards, train.n)


def partition_label_skew(train: Dataset, num_clients: int, concentration: float,
                         seed: int) -> Partition:
    """Dirichlet label skew: each class is split among clients by
    proportions drawn from a symmetric Dirichlet(concentration)."""
    _check_clients(train, num_clients)
    if concentration <= 0:
        raise ValueError("concentration must be > 0")
    rng = np.random.default_rng(seed)
    shards: list[list[int]] = [[] for _ in range(num_clients)]
    for k in range(train.num_classes):
        idx = np.flatnonzero(train.labels == k)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        props = rng.dirichlet(np.full(num_clients, concentration))
        cuts = np.floor(np.cumsum(props) * idx.size).astype(np.int64)[:-1]
        for c, chunk in enumerate(np.split(idx, cuts)):
            shards[c].extend(chunk.tolist())
    # surplus pass: donate from the largest shards so none stays empty
    for c in range(num_clients):
        while not shards[c]:
            donor = max(range(num_clients), key=lambda j: len(shards[j]))
            shards[c].append(shards[donor].pop())
    return Partition([np.sort(np.asarray(s, dtype=np.int64)) for s in shards], train.n)
