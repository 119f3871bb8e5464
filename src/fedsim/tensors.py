"""Model parameters as one flat vector with a named layer layout.

A ParameterSet holds one read-only, contiguous float64 vector and an
immutable layout: for every layer its name, shape and the [start, stop)
slice of the vector it occupies. Only this module knows that layout.
Every set derived from another (with_flat, zip_map, mean) shares the
layout object, so element-wise arithmetic is one NumPy call over the
whole vector and a structure check between related sets is an identity
test. Values are checked to be finite whenever a set is built, or just before
for ParameterSet._adopt, so no public operation can hand back NaN or Inf.
Sets are built from a copy of their values, except that zip_map keeps a
result its function built: a writable float64 (P,) array that owns its
memory becomes the new set's vector, made read-only, with no copy.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EmptyFederationError, NonFiniteError, StructureMismatchError

# One entry per layer: (name, shape, start, stop) into the flat vector.
Layout = tuple[tuple[str, tuple[int, ...], int, int], ...]


def _check_finite(layout: Layout, flat: np.ndarray) -> None:
    """Raise NonFiniteError naming the first layer that holds NaN or Inf."""
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(np.argmin(finite))
        name = next(n for n, _, start, stop in layout if start <= bad < stop)
        raise NonFiniteError(f"layer {name!r}: non-finite values")


class ParameterSet:
    """Ordered named layers stored back to back in one flat float64 vector.

    Instances are immutable: every operation builds a new set, and the
    arrays handed out by layers() are read-only views.
    """

    __slots__ = ("_layout", "_flat")

    def __init__(self, layers: Iterable[tuple[str, Sequence[int], np.ndarray]]):
        layout = []
        chunks = []
        start = 0
        for name, shape, vals in layers:
            shape = tuple(int(s) for s in shape)
            if any(s <= 0 for s in shape):
                raise ValueError(f"layer {name!r}: non-positive dim in shape {shape}")
            arr = np.ravel(np.asarray(vals, dtype=np.float64))
            expected = int(np.prod(shape))
            if arr.size != expected:
                raise ValueError(
                    f"layer {name!r}: {arr.size} values for shape {shape} "
                    f"(expected {expected})"
                )
            if any(name == n for n, *_ in layout):
                raise ValueError(f"duplicate layer name {name!r}")
            layout.append((name, shape, start, start + expected))
            chunks.append(arr)
            start += expected
        self._layout: Layout = tuple(layout)
        flat = np.concatenate(chunks) if chunks else np.empty(0)
        _check_finite(self._layout, flat)
        flat.flags.writeable = False
        self._flat = flat

    def check_structure(self, other: "ParameterSet") -> None:
        if self._layout is other._layout:
            return
        a, b = self._layout, other._layout
        for i in range(max(len(a), len(b))):
            name_a = a[i][0] if i < len(a) else None
            name_b = b[i][0] if i < len(b) else None
            if name_a != name_b:
                raise StructureMismatchError(
                    f"layer {i}: name {name_a!r} vs {name_b!r}"
                )
            if a[i][1] != b[i][1]:
                raise StructureMismatchError(
                    f"layer {name_a!r}: shape {a[i][1]} vs {b[i][1]}"
                )

    def to_flat(self) -> np.ndarray:
        """A writable copy of the whole vector, in layer order."""
        return self._flat.copy()

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each layer's name mapped to a view, in the layer's shape, of a
        (P,) array laid out like this set. Writing to a view writes to
        `flat`, which lets a caller update weights in place."""
        if flat.shape != self._flat.shape:
            raise ValueError(f"flat shape {flat.shape} != {self._flat.shape}")
        return {n: flat[start:stop].reshape(s) for n, s, start, stop in self._layout}

    def layers(self) -> dict[str, np.ndarray]:
        """Each layer's name mapped to a read-only view of it in its shape."""
        return self.views(self._flat)

    def check_finite(self, flat: np.ndarray) -> None:
        """The check every set passes when built, on a (P,) array laid out
        like this set: NonFiniteError naming the first non-finite layer."""
        _check_finite(self._layout, flat)

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        """A set with this layout holding a frozen copy of one flat vector.

        Every derived set is built here or by _adopt, without __init__.
        """
        values = np.array(flat, dtype=np.float64, order="C", copy=True).reshape(-1)
        if values.size != self._flat.size:
            raise ValueError(f"flat vector size {values.size} != {self._flat.size}")
        _check_finite(self._layout, values)
        return self._adopt(values)

    def _adopt(self, flat: np.ndarray) -> "ParameterSet":
        """A set holding flat itself, unchecked: a finite vector no one else writes."""
        flat.flags.writeable = False
        out = object.__new__(ParameterSet)
        out._layout = self._layout
        out._flat = flat
        return out

    def __repr__(self) -> str:
        layers = ", ".join(f"{n}{list(s)}" for n, s, *_ in self._layout)
        return f"ParameterSet({layers})"


def zip_map(
    a: ParameterSet,
    b: ParameterSet,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ParameterSet:
    """Apply a binary element-wise function to the two whole vectors.

    A result that f built, a writable float64 array of shape (P,) that owns
    its memory (base is None), becomes the new set's vector as it is, made
    read-only, once it passes the finite check that names the first
    non-finite layer; f must keep no writable view of it. Any other result
    (a view, an input's vector, a list) is copied as with_flat copies it.
    """
    a.check_structure(b)
    out = f(a._flat, b._flat)
    if (isinstance(out, np.ndarray) and out.base is None and out.flags.writeable
            and out.dtype == np.float64 and out.shape == a._flat.shape):
        _check_finite(a._layout, out)
        return a._adopt(out)
    return a.with_flat(out)


def rows(sets: Sequence[ParameterSet]) -> list[np.ndarray]:
    """The sets' read-only vectors, once checked to share one structure."""
    if len(sets) == 0:
        raise EmptyFederationError("no parameter sets")
    for other in sets[1:]:
        sets[0].check_structure(other)
    return [s._flat for s in sets]


def fold(vectors: Sequence[np.ndarray], weights=None) -> np.ndarray:
    """sum_c weights[c] * vectors[c], or the plain sum, as a new vector:
    the terms added in the given order to zeros, as .sum(axis=0) over their
    (C, P) stack adds them when P >= 2 (it sums a (C, 1) stack pairwise)."""
    total, scratch = np.zeros(len(vectors[0])), np.empty(len(vectors[0]))
    for c, row in enumerate(vectors):
        total += row if weights is None else np.multiply(row, weights[c], out=scratch)
    return total


def mean(sets: Sequence[ParameterSet]) -> ParameterSet:
    """Uniform mean of structurally identical sets, folded in given order."""
    total = fold(rows(sets))
    total *= 1.0 / len(sets)
    return sets[0].with_flat(total)


def flat_inner_product(a: ParameterSet, b: ParameterSet) -> float:
    """Sum of element-wise products over all layers."""
    a.check_structure(b)
    return float(np.dot(a._flat, b._flat))


def l2_norm(a: ParameterSet) -> float:
    return float(np.sqrt(flat_inner_product(a, a)))


def column_softmax(mat: np.ndarray) -> np.ndarray:
    """Softmax down every column of a (C, P) array, or over a (C,) array,
    in place, as ewwa's blocks on skew_c100 need no second array.

    The column maximum is subtracted before exponentiation.
    """
    mat -= mat.max(axis=0)
    np.exp(mat, out=mat)
    mat /= mat.sum(axis=0)
    return mat

