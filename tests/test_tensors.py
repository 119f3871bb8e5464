import numpy as np
import pytest

from fedsim.errors import (
    EmptyFederationError,
    NonFiniteError,
    StructureMismatchError,
)
from fedsim.tensors import (
    ParameterSet,
    column_softmax,
    flat_inner_product,
    l2_norm,
    fold,
    mean,
    rows,
    zip_map,
)


def make(values_a, values_b=None):
    layers = [("a", (len(values_a),), np.asarray(values_a, dtype=float))]
    if values_b is not None:
        layers.append(("b", (len(values_b),), np.asarray(values_b, dtype=float)))
    return ParameterSet(layers)


def stack(sets):
    """The sets' vectors as the rows of one (C, P) array."""
    return np.stack(rows(sets))


def random_set(rng, sizes=(7, 13)):
    return ParameterSet(
        (f"layer{i}", (n,), rng.normal(size=n)) for i, n in enumerate(sizes)
    )


class TestParameterSet:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ParameterSet([("w", (2, 3), np.zeros(5))])
        with pytest.raises(ValueError, match="non-positive dim in shape"):
            ParameterSet([("w", (2, 0), np.zeros(0))])
        with pytest.raises(ValueError, match="size 3 != 2"):
            make([1.0, 2.0]).with_flat(np.zeros(3))

    def test_repr_names_each_layer_and_shape_in_order(self):
        ps = ParameterSet([("bias", (3,), np.zeros(3)),
                           ("weight", (2, 3), np.ones(6))])
        assert repr(ps) == "ParameterSet(bias[3], weight[2, 3])"
        assert repr(ps.with_flat(np.arange(9.0))) == repr(ps)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParameterSet([("w", (1,), [0.0]), ("w", (1,), [0.0])])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make([1.0, np.nan])

    def test_values_immutable(self):
        ps = make([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.layers()["a"][0] = 9.0

    def test_to_flat_is_a_copy(self):
        ps = make([1.0, 2.0])
        flat = ps.to_flat()
        flat[0] = 9.0
        np.testing.assert_array_equal(ps.layers()["a"], [1.0, 2.0])

    def test_derived_sets_read_only(self):
        ps = make([1.0, 2.0], [3.0])
        for derived in (ps.with_flat([4.0, 5.0, 6.0]), zip_map(ps, ps, np.add)):
            for values in derived.layers().values():
                with pytest.raises(ValueError):
                    values[0] = 0.0

    def test_with_flat_names_non_finite_layer(self):
        ps = make([1.0, 2.0], [3.0, 4.0])
        bad = np.array([1.0, 2.0, 3.0, np.inf])
        with pytest.raises(NonFiniteError, match="'b'"):
            ps.with_flat(bad)
        with pytest.raises(NonFiniteError, match="^layer 'b': non-finite values$"):
            ps.check_finite(bad)
        ps.check_finite(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_views_write_through_to_the_flat_array(self):
        ps = ParameterSet([("a", (2,), [1.0, 2.0]), ("m", (2, 3), np.zeros(6))])
        flat = ps.to_flat()
        views = ps.views(flat)
        assert {n: v.shape for n, v in views.items()} == {"a": (2,), "m": (2, 3)}
        views["m"][1, 0] = 7.0
        views["a"] += 1.0
        np.testing.assert_array_equal(flat, [2.0, 3.0, 0, 0, 0, 7.0, 0, 0])
        with pytest.raises(ValueError, match="shape"):
            ps.views(np.zeros(7))

    def test_flat_round_trip(self):
        rng = np.random.default_rng(3)
        ps = random_set(rng)
        again = ps.with_flat(ps.to_flat())
        for v0, v1 in zip(ps.layers().values(), again.layers().values()):
            np.testing.assert_array_equal(v0, v1)


class TestZipMap:
    def test_add(self):
        """A vector that f built becomes the set's own, made read-only."""
        result = np.empty(2)
        out = zip_map(make([1, 2]), make([3, 4]),
                      lambda a, b: np.add(a, b, out=result))
        np.testing.assert_array_equal(out.layers()["a"], [4, 6])
        assert out._flat is result and not result.flags.writeable

    def test_any_other_result_is_copied(self):
        """A view of a writable array, an input's read-only vector and a
        list each become a frozen copy; the view's base stays writable."""
        x = make([1.0, 2.0])
        base = np.array([5.0, 6.0, 7.0])
        outs = []
        for f in (lambda a, b: base[1:], lambda a, b: a, lambda a, b: [8.0, 9.0]):
            result = f(x._flat, x._flat)
            outs.append(zip_map(x, x, f))
            assert outs[-1]._flat is not result
            assert not outs[-1]._flat.flags.writeable
        base[1:] = 0.0
        assert [out.to_flat().tolist() for out in outs] == [
            [6.0, 7.0], [1.0, 2.0], [8.0, 9.0]]

    def test_a_non_finite_result_names_its_first_layer(self):
        x = make([1.0, 2.0], [3.0, 4.0])
        for f in (lambda a, b: a * np.array([1.0, 1.0, np.inf, 1.0]),  # built
                  lambda a, b: np.array([[1.0, 2.0, np.nan, 4.0]])[0]):  # a view
            with pytest.raises(NonFiniteError,
                               match="^layer 'b': non-finite values$"):
                zip_map(x, x, f)

    def test_independent_equal_layouts(self):
        out = zip_map(make([1, 2], [3]), make([4, 5], [6]), np.subtract)
        assert tuple(out.layers()) == ("a", "b")
        np.testing.assert_array_equal(out.layers()["a"], [-3, -3])
        np.testing.assert_array_equal(out.layers()["b"], [-3])

    def test_mul_by_zero_absorbs(self):
        rng = np.random.default_rng(0)
        x = random_set(rng)
        zeros = x.with_flat(np.zeros_like(x.to_flat()))
        out = zip_map(x, zeros, np.multiply)
        assert l2_norm(out) == 0.0

    def test_max(self):
        out = zip_map(make([1, 5]), make([2, 3]), np.maximum)
        np.testing.assert_array_equal(out.layers()["a"], [2, 5])

    def test_structure_mismatch_names_first_layer(self):
        lhs = make([1.0])
        rhs = ParameterSet([("z", (1,), [1.0])])
        with pytest.raises(StructureMismatchError, match="'a'"):
            zip_map(lhs, rhs, np.add)

    def test_structure_mismatch_shapes(self):
        lhs = make([1.0, 2.0])
        rhs = make([1.0, 2.0, 3.0])
        with pytest.raises(StructureMismatchError, match="shape"):
            zip_map(lhs, rhs, np.add)

    def test_add_mul_commute_elementwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y = random_set(rng), random_set(rng)
            for f in (np.add, np.multiply):
                fwd = zip_map(x, y, f).to_flat()
                rev = zip_map(y, x, f).to_flat()
                np.testing.assert_array_equal(fwd, rev)


class TestCrossClientSoftmax:
    """column_softmax over the clients' stacked sets: row c holds client
    c's per-element proportions."""

    def test_single_client_is_identity_proportion(self):
        rng = np.random.default_rng(1)
        (row,) = column_softmax(stack([random_set(rng)]))
        np.testing.assert_array_equal(row, 1.0)

    def test_two_client_exp_ratio(self):
        lo = make([0.0])
        hi = make([np.log(3.0)])
        p_lo, p_hi = column_softmax(stack([lo, hi]))
        assert p_lo[0] == pytest.approx(0.25, abs=1e-12)
        assert p_hi[0] == pytest.approx(0.75, abs=1e-12)

    def test_equal_inputs_give_uniform_proportions(self):
        same = make([7.0, 7.0])
        rows = column_softmax(stack([same, same, same]))
        np.testing.assert_allclose(rows, 1.0 / 3.0, atol=1e-12)

    def test_empty_rows_rejected(self):
        with pytest.raises(EmptyFederationError):
            rows([])

    @pytest.mark.parametrize("num_clients", [2, 3, 5])
    def test_proportions_sum_to_one(self, num_clients):
        rng = np.random.default_rng(num_clients)
        sets = [random_set(rng, sizes=(5000, 5000)) for _ in range(num_clients)]
        rows = column_softmax(stack(sets))
        np.testing.assert_allclose(rows.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(rows > 0.0) and np.all(rows <= 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        sets = [random_set(rng) for _ in range(4)]
        shifted = [s.with_flat(s.to_flat() + 17.5) for s in sets]
        base = column_softmax(stack(sets))
        moved = column_softmax(stack(shifted))
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_large_magnitudes_stay_finite(self):
        rows = column_softmax(stack([make([800.0, -800.0]),
                                     make([-800.0, 800.0])]))
        assert np.all(np.isfinite(rows))
        np.testing.assert_array_equal(rows, [[1.0, 0.0], [0.0, 1.0]])

    def test_works_in_place_and_returns_its_argument(self):
        # ewwa relies on this to keep its peak memory down
        rng = np.random.default_rng(4)
        mat = stack([random_set(rng) for _ in range(3)])
        assert not np.allclose(mat.sum(axis=0), 1.0)
        assert column_softmax(mat) is mat
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(mat > 0.0)


class TestInnerProduct:
    def test_orthogonal(self):
        assert flat_inner_product(make([1, 0]), make([0, 1])) == 0.0

    def test_self_product(self):
        assert flat_inner_product(make([3, 4]), make([3, 4])) == 25.0

    def test_matches_manual_flatten_and_dot(self):
        rng = np.random.default_rng(5)
        a, b = random_set(rng), random_set(rng)
        manual = 0.0
        for x, y in zip(a.to_flat(), b.to_flat()):
            manual += x * y
        assert flat_inner_product(a, b) == pytest.approx(manual, abs=1e-12)

    def test_l2_norm_definition(self):
        rng = np.random.default_rng(6)
        a = random_set(rng)
        assert l2_norm(a) == pytest.approx(
            np.sqrt(flat_inner_product(a, a)), abs=1e-12)


def test_mean_of_sets():
    xs = [make([0.0, 4.0]), make([2.0, 0.0])]
    np.testing.assert_array_equal(mean(xs).layers()["a"], [1.0, 2.0])
    with pytest.raises(EmptyFederationError):
        mean([])


def test_rows_are_the_read_only_vectors_and_check_the_structure():
    xs = [make([0.0, 4.0]), make([2.0, 0.0])]
    a, b = rows(xs)
    np.testing.assert_array_equal(a, [0.0, 4.0])
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(StructureMismatchError):
        rows([make([1.0]), make([1.0], [2.0])])


def left_fold(columns, weights=None):
    """One element's sum in plain Python floats: 0.0, then each term in
    turn."""
    total = 0.0
    for c, x in enumerate(columns):
        total += float(x) if weights is None else float(x) * float(weights[c])
    return total


@pytest.mark.parametrize("size", [1, 2, 5])
def test_fold_adds_the_terms_in_the_given_order(size):
    """Elementwise the Python left fold, for every size: at size 1 too,
    where NumPy sums a (C, 1) stack pairwise. The terms span 20 orders of
    magnitude, so the order of the additions shows in the result."""
    rng = np.random.default_rng(size)
    stacked_differs = 0
    for _ in range(50):
        vectors = [rng.normal(size=size) * 10.0 ** rng.integers(-10, 10)
                   for _ in range(100)]
        weights = rng.random(100)
        for w in (None, weights):
            total = fold(vectors, w)
            for j in range(size):
                column = [v[j] for v in vectors]
                assert total[j] == left_fold(column, w)
            stack_ = np.stack(vectors) * (1.0 if w is None else w[:, None])
            stacked_differs += not np.array_equal(total, stack_.sum(axis=0))
    # pairwise at size 1, row by row otherwise
    assert (stacked_differs > 0) == (size == 1)


def test_fold_starts_from_zero_as_a_stack_sum_does():
    """-0.0 + -0.0 is -0.0, but 0.0 + -0.0 is 0.0: a fold seeded with its
    first term would keep a -0.0 that .sum(axis=0) turns into 0.0."""
    vectors = [np.array([-0.0, -0.0, 1.0]), np.array([-0.0, 2.0, -0.0])]
    for w in (None, np.array([1.0, 1e-320])):
        total = fold(vectors, w)
        expected = (np.stack(vectors) * (1.0 if w is None else w[:, None])
                    ).sum(axis=0)
        assert total.tobytes() == expected.tobytes()
        assert not np.signbit(total[0])


def test_mean_of_one_value_sets_adds_in_the_given_order():
    rng = np.random.default_rng(3)
    for _ in range(50):
        xs = [make([x]) for x in rng.normal(size=100) * 10.0 ** rng.integers(
            -10, 10, size=100)]
        expected = left_fold([x.to_flat()[0] for x in xs]) * (1.0 / 100)
        assert mean(xs).to_flat()[0] == expected


def test_adopt_takes_the_vector_itself_and_freezes_it():
    template = make([0.0, 0.0])
    flat = np.array([1.0, 2.0])
    adopted = template._adopt(flat)
    assert not flat.flags.writeable
    assert np.shares_memory(adopted.layers()["a"], flat)
    assert repr(adopted) == repr(template)
