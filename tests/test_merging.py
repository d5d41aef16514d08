from __future__ import annotations

import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malsmerge import (
    METHODS,
    AllocationConfig,
    MergeConfig,
    ValidationError,
    disjoint_merge,
    elect_signs,
    group_layers,
    merge,
    merge_to_archive,
    read_archive,
    sparsify_top_fraction,
    tensor_shapes,
    write_archive,
    write_synthetic_set,
)
from malsmerge import cli, conflict, merging
from malsmerge.archive import Archive, archive_writer
from malsmerge.conflict import layer_conflict
from malsmerge.merging import compose_merged, masked_select, plan, simple_average
from malsmerge.task_vectors import TaskVector, compute_task_vector
from oracles import (
    allocation_oracle, disjoint_merge_oracle, elect_signs_oracle, merge_oracle, sparsify_oracle,
)


class TestSparsifyTopFraction:
    def test_zero_sparsity_keeps_everything(self):
        v = np.array([3.0, -1.0, 2.0, 0.5], dtype=np.float32)
        np.testing.assert_array_equal(sparsify_top_fraction(v, 0.0), v)

    def test_full_sparsity_keeps_nothing(self):
        v = np.array([3.0, -1.0], dtype=np.float32)
        assert not sparsify_top_fraction(v, 1.0).any()

    def test_oracle_half(self):
        v = np.array([3.0, -1.0, 2.0, 0.5])
        np.testing.assert_array_equal(sparsify_top_fraction(v, 0.5), sparsify_oracle(v, 0.5))
        np.testing.assert_array_equal(sparsify_top_fraction(v, 0.5), [3.0, 0.0, 2.0, 0.0])

    def test_ties_keep_lower_index(self):
        v = np.array([1.0, -1.0, 1.0, 1.0])
        np.testing.assert_array_equal(sparsify_top_fraction(v, 0.5), [1.0, -1.0, 0.0, 0.0])
        np.testing.assert_array_equal(sparsify_top_fraction(v, 0.5), sparsify_oracle(v, 0.5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sparsify_top_fraction(np.ones(2), 1.5)

    def test_non_flat_rejected(self):
        with pytest.raises(ValueError, match="flat vector"):
            sparsify_top_fraction(np.ones((2, 2)), 0.5)

    def test_oracle_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 64))
            v = rng.normal(size=n)
            if rng.random() < 0.3:
                v = np.round(v)  # force magnitude ties
            s = float(rng.random())
            np.testing.assert_array_equal(sparsify_top_fraction(v, s), sparsify_oracle(v, s))
        # large, tie-heavy vectors on a dyadic grid, with a share of signed zeros
        for n in (20_011, 49_999):
            v = np.round(rng.normal(size=n) * 8) / 8
            zeros = rng.random(n) < 0.2
            v[zeros] = np.where(rng.random(n) < 0.5, -0.0, 0.0)[zeros]
            for s in (0.1, 0.5, 0.9):
                expected = np.array(sparsify_oracle(v, s), dtype=v.dtype)
                assert sparsify_top_fraction(v, s).tobytes() == expected.tobytes()
        # a kept -0.0 stays -0.0; a dropped one becomes +0.0
        v = np.array([-0.0, 3.0, 0.0, -0.0], dtype=np.float32)
        kept = np.array([-0.0, 3.0, 0.0, 0.0], dtype=np.float32)
        assert sparsify_top_fraction(v, 0.5).tobytes() == kept.tobytes()
        assert sparsify_top_fraction(v, 0.0).tobytes() == v.tobytes()


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_masked_select_equals_where_bytewise(dtype):
    rng = np.random.default_rng(7)
    info = np.finfo(dtype)
    v = (rng.normal(size=1024) * rng.choice([1e-3, 1.0, 1e3], size=1024)).astype(dtype)
    v[:6] = [-0.0, 0.0, info.max, -info.max, info.smallest_subnormal, -info.smallest_subnormal]
    v[rng.random(v.size) < 0.2] *= dtype(0)  # keeps the sign: ±0.0
    for keep in (rng.random(v.size) < 0.5, np.ones(v.size, bool), np.zeros(v.size, bool)):
        for w in (v, v[::3]):  # contiguous and strided
            expected = np.where(keep[: w.size], w, w.dtype.type(0))
            selected = masked_select(w, keep[: w.size])
            assert selected.dtype == w.dtype and selected.tobytes() == expected.tobytes()


# complex128, and long double where it is wider than float64 (16 bytes on x86-64)
_WIDE_DTYPES = [np.dtype(t) for t in (np.complex128, np.longdouble) if np.dtype(t).itemsize > 8]


@pytest.mark.parametrize("dtype", _WIDE_DTYPES, ids=str)
@pytest.mark.parametrize(
    "kernel",
    [lambda v: sparsify_top_fraction(v, 0.5), lambda v: disjoint_merge([v, v]),
     lambda v: disjoint_merge([v, v], np.ones(v.size, np.int8))],
    ids=["sparsify", "disjoint_merge", "disjoint_merge-signs"],
)
def test_dtype_wider_than_8_bytes_rejected_naming_it(kernel, dtype):
    v = np.array([1.0, -2.0, 3.0, 0.0], dtype=dtype)
    message = f"^vector dtype {dtype} is {dtype.itemsize} bytes wide, not 1, 2, 4 or 8$"
    with pytest.raises(ValueError, match=message):
        kernel(v)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.int32], ids=str)
@pytest.mark.parametrize(
    "kernel",
    [lambda v: sparsify_top_fraction(v, 0.0), lambda v: sparsify_top_fraction(v, 0.5),
     lambda v: sparsify_top_fraction(v, 1.0), lambda v: elect_signs([v, v]),
     lambda v: disjoint_merge([v, v]), lambda v: disjoint_merge([v, v], np.ones(v.size, np.int8))],
    ids=["sparsify-0", "sparsify-0.5", "sparsify-1", "elect_signs", "disjoint_merge",
         "disjoint_merge-signs"],
)
def test_dtype_other_than_a_real_float_rejected_naming_it(kernel, dtype):
    # complex128 is too wide to select from and is named by its width; the others
    # are named as not a real float, whatever the sparsity level
    dtype = np.dtype(dtype)
    reason = f"is {dtype.itemsize} bytes wide, not 1, 2, 4 or 8" if dtype.itemsize > 8 else "is not a real float"
    with pytest.raises(ValueError, match=f"^vector dtype {dtype} {reason}$"):
        kernel(np.array([1, -2, 3, 0], dtype=dtype))


@st.composite
def _tie_heavy_vectors(draw):
    """Grid-snapped vectors with ±0.0: small integer grids tie most magnitudes, and a
    permutation of distinct grid points ties none, so no threshold has surplus ties."""
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    n = draw(st.integers(min_value=1, max_value=48))
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        steps = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return (np.array(steps, dtype=np.float64) * signs / 8).astype(dtype)


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_vectors(), st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from([1, 3, 8, merging._SLICE_ENTRIES]))
def test_sparsify_equals_oracle_on_ties_bytewise(v, s, slice_entries):
    # the keep mask is filled, and surplus ties are dropped, a slice at a time
    expected = np.array(sparsify_oracle(v, s), dtype=v.dtype)
    default, merging._SLICE_ENTRIES = merging._SLICE_ENTRIES, slice_entries
    try:
        assert sparsify_top_fraction(v, s).tobytes() == expected.tobytes()
    finally:
        merging._SLICE_ENTRIES = default


@st.composite
def _trims(draw):
    """A tie-heavy vector and a sparsity level: 0, 1, any, or one at or next to a level where
    (1 - s) * n is a whole number, where the ceil in the kept count changes."""
    v = draw(_tie_heavy_vectors())
    edge = 1.0 - draw(st.integers(0, v.size)) / v.size
    s = draw(st.sampled_from([0.0, 1.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)])
             | st.floats(min_value=0.0, max_value=1.0))
    return v, float(s)


@settings(max_examples=500, deadline=None)
@given(_trims(), st.sampled_from([1, 3, 7, merging._SLICE_ENTRIES]))
@example((np.array([-0.0, 0.0, -0.0, 0.5], np.float32), 0.5), 1)  # a kept -0.0 and a dropped one
@example((np.array([0.25, -0.25, 0.25, -0.25, 0.25], np.float16), 0.5), 3)  # surplus ties
def test_threshold_and_slice_trims_equal_the_oracle_bytewise(trim, slice_entries):
    # pass 2's trim: the threshold from the partitioned magnitudes, then each slice trimmed
    # on its own. The vector is taken again, for the cutoff, only if its threshold has ties
    # beyond those kept, a slice at a time from its start to the slice that holds the cutoff
    v, s = trim
    expected = np.array(sparsify_oracle(v, s), dtype=v.dtype)
    n_keep = merging._kept(s, v.size)
    magnitudes = np.sort(np.abs(v.astype(np.float64)))[::-1]
    surplus = 0 < n_keep < v.size and magnitudes[n_keep - 1] == magnitudes[n_keep]
    taken = []

    def again(start, stop):
        taken.append((start, stop))
        return np.abs(v[start:stop])

    default, merging._SLICE_ENTRIES = merging._SLICE_ENTRIES, slice_entries
    try:
        threshold, cutoff = merging._threshold(np.abs(v), n_keep, again)
    finally:
        merging._SLICE_ENTRIES = default
    trimmed = [merging._trim_slice(v[start:start + slice_entries], threshold, cutoff - start)
               for start in range(0, v.size, slice_entries)]
    assert np.concatenate(trimmed).tobytes() == expected.tobytes()
    end = -(-cutoff // slice_entries) * slice_entries if surplus else 0  # the cutoff's slice's end
    assert taken == [(start, min(start + slice_entries, v.size)) for start in range(0, end, slice_entries)]


class TestElectSigns:
    def test_majority_positive(self):
        signs = elect_signs([np.array([0.5]), np.array([-0.2]), np.array([0.4])])
        np.testing.assert_array_equal(signs, [1])

    def test_exact_cancellation_elects_zero(self):
        signs = elect_signs([np.array([0.5]), np.array([-0.5])])
        np.testing.assert_array_equal(signs, [0])

    def test_all_zero_column(self):
        signs = elect_signs([np.zeros(3), np.zeros(3)])
        np.testing.assert_array_equal(signs, [0, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            elect_signs([np.ones(2), np.ones(3)])

    def test_no_vectors_rejected(self):
        with pytest.raises(ValueError, match="at least one vector"):
            elect_signs([])


class TestDisjointMerge:
    def test_with_election_averages_matching_signs(self):
        vectors = [np.array([0.5]), np.array([-0.2]), np.array([0.4])]
        merged = disjoint_merge(vectors, elect_signs(vectors))
        np.testing.assert_allclose(merged, [0.45], atol=1e-15)

    def test_without_election_averages_nonzero(self):
        vectors = [np.array([0.5]), np.array([-0.2]), np.array([0.4])]
        merged = disjoint_merge(vectors, None)
        np.testing.assert_allclose(merged, [0.7 / 3.0], atol=1e-15)

    def test_identical_vectors_are_fixed_point(self):
        v = np.array([1.0, -2.0, 0.0, 3.5], dtype=np.float32)
        np.testing.assert_array_equal(disjoint_merge([v, v, v], elect_signs([v, v, v])), v)
        np.testing.assert_array_equal(disjoint_merge([v, v, v], None), v)

    def test_zero_sign_merges_to_zero(self):
        vectors = [np.array([0.5, 1.0]), np.array([-0.5, 1.0])]
        merged = disjoint_merge(vectors, elect_signs(vectors))
        np.testing.assert_array_equal(merged, [0.0, 1.0])

    def test_zeros_never_contribute(self):
        vectors = [np.array([0.0, 2.0]), np.array([4.0, 0.0])]
        np.testing.assert_array_equal(disjoint_merge(vectors, None), [4.0, 2.0])

    def test_signs_length_checked(self):
        with pytest.raises(ValueError, match="signs length"):
            disjoint_merge([np.ones(2)], np.array([1]))

    @pytest.mark.parametrize("signs", [np.int8(1), np.ones((2, 2), np.int8)], ids=["0-d", "2-D"])
    def test_signs_not_flat_rejected(self, signs):
        with pytest.raises(ValueError, match=re.escape(f"signs must be flat, got shape {signs.shape}")):
            disjoint_merge([np.ones(2)], signs)


@pytest.mark.parametrize("kernel", [elect_signs, disjoint_merge])
@pytest.mark.parametrize("row", [np.float32(1), np.ones((2, 2), np.float32)], ids=["0-d", "2-D"])
def test_rows_not_flat_rejected(kernel, row):
    message = re.escape(f"vectors must be flat, got one of shape {row.shape}")
    for rows in ([row], [np.ones(2, np.float32), row]):
        with pytest.raises(ValueError, match=message):
            kernel(rows)


def _sweep_rows(rng, n_tasks, n):
    """Float32 rows of signed zeros, equal magnitudes and magnitudes 2^-60 to 2^60."""
    exponents = rng.choice([-60, 0, 0, 60], size=(n_tasks, n))
    magnitudes = rng.choice([1.0, 1.0, 1.5, 4.5], size=(n_tasks, n)) * 2.0**exponents
    values = rng.choice([-1.0, 1.0], size=(n_tasks, n)) * magnitudes
    values[rng.random((n_tasks, n)) < 0.2] *= 0.0  # keeps the sign: ±0.0
    return list(values.astype(np.float32))


class TestTaskOrderSums:
    @pytest.mark.parametrize("n", [0, 1, 2, 17])
    @pytest.mark.parametrize("n_tasks", range(1, 11))
    def test_kernels_equal_oracles_bytewise(self, n_tasks, n):
        rng = np.random.default_rng(1000 * n_tasks + n)
        for _ in range(25):
            rows = _sweep_rows(rng, n_tasks, n)
            signs = elect_signs(rows)
            assert signs.tobytes() == np.array(elect_signs_oracle(rows), dtype=np.int8).tobytes()
            for given in (signs, None):
                expected = np.array(disjoint_merge_oracle(rows, given), dtype=np.float32)
                assert disjoint_merge(rows, given).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_signed_zeros_and_zero_signs_equal_oracle_bytewise(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(25):
            # magnitudes 2^-6 to 2^6 by powers of two, every sign, a fifth of them ±0.0
            values = rng.choice([-1.0, 1.0], size=(3, 64)) * 2.0 ** rng.integers(-6, 7, (3, 64))
            values[rng.random((3, 64)) < 0.2] *= 0.0
            rows = list(values.astype(dtype))
            # given signs, not elected ones: a 0 where rows hold nonzeros of both signs
            drawn = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=64)
            for signs in (None, elect_signs(rows), drawn):
                expected = np.array(disjoint_merge_oracle(rows, signs), dtype=dtype)
                assert disjoint_merge(rows, signs).tobytes() == expected.tobytes()

    def test_nine_one_element_tasks_add_in_task_order(self):
        # 2^60 + 1 rounds to 2^60, so the sum in task order is +0.5
        values = [2.0**60, 1, -(2.0**60), 1, 1, 1, 1, 1, -4.5]
        rows = [np.array([v], dtype=np.float32) for v in values]
        signs = elect_signs(rows)
        np.testing.assert_array_equal(signs, [1])
        assert disjoint_merge(rows, signs).tobytes() == np.float32(2**60 / 7).tobytes()
        assert disjoint_merge(rows, None).tobytes() == np.float32(0.5 / 9).tobytes()

    def test_output_dtype_is_the_rows_result_type(self):
        rows = [np.ones(3, dtype=np.float32), np.ones(3, dtype=np.float64)]
        assert disjoint_merge(rows).dtype == np.float64
        assert disjoint_merge(rows[:1], elect_signs(rows[:1])).dtype == np.float32


class TestComposeMerged:
    def test_zero_tau_identity(self):
        base = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        tau = TaskVector("t", {"w": np.zeros(2, dtype=np.float32)})
        np.testing.assert_array_equal(compose_merged(base, tau, 1.0)["w"], base["w"])

    def test_scaled_composition(self):
        base = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        tau = TaskVector("t", {"w": np.array([0.5, -0.5], dtype=np.float32)})
        np.testing.assert_array_equal(compose_merged(base, tau, 2.0)["w"], [2.0, 1.0])

    def test_incompatible_rejected(self):
        base = {"w": np.ones(2, dtype=np.float32)}
        tau = TaskVector("t", {"v": np.ones(2, dtype=np.float32)})
        with pytest.raises(ValidationError, match="incompatible"):
            compose_merged(base, tau, 1.0)


class TestSimpleAverage:
    def test_copies_average_to_self(self):
        tau = TaskVector("a", {"w": np.array([1.0, -2.0], dtype=np.float32)})
        merged = simple_average([tau, tau, tau])
        np.testing.assert_array_equal(merged.deltas["w"], tau.deltas["w"])

    def test_opposites_cancel(self):
        tau = TaskVector("a", {"w": np.array([1.0, -2.0], dtype=np.float32)})
        neg = TaskVector("b", {"w": -tau.deltas["w"]})
        assert not simple_average([tau, neg]).deltas["w"].any()

    def test_elementwise_mean(self):
        t1 = TaskVector("a", {"w": np.array([1.0, 3.0], dtype=np.float32)})
        t2 = TaskVector("b", {"w": np.array([3.0, 1.0], dtype=np.float32)})
        np.testing.assert_array_equal(simple_average([t1, t2]).deltas["w"], [2.0, 2.0])

    def test_no_task_vectors_rejected(self):
        with pytest.raises(ValidationError, match="at least one task vector"):
            simple_average([])


def _checkpoints(seed=0, tasks=3, layers=3, per_layer=24):
    rng = np.random.default_rng(seed)
    names = [
        (f"m.layers.{l}.attn.w", per_layer // 2)
        for l in range(layers)
    ] + [(f"m.layers.{l}.mlp.w", per_layer - per_layer // 2) for l in range(layers)]
    names.append(("embed.w", per_layer))
    base = {n: (np.round(rng.normal(size=k) * 256) / 256).astype(np.float32) for n, k in names}
    tuned = []
    for _ in range(tasks):
        deltas = {
            n: (np.round(rng.normal(size=k) * 256) / 256).astype(np.float32) for n, k in names
        }
        tuned.append(
            {n: (base[n].astype(np.float64) + deltas[n]).astype(np.float32) for n, _ in names}
        )
    return base, tuned


def _edge_checkpoints(seed, tasks=3):
    """:func:`_checkpoints` plus an empty and a 0-d tensor inside a layer group,
    and a second ungrouped tensor and a 0-d one."""
    base, tuned = _checkpoints(seed=seed, tasks=tasks)
    rng = np.random.default_rng(seed)
    edges = (("m.layers.1.empty", (0, 4)), ("head.b", (2, 3)))
    for name, shape in edges + (("m.layers.1.scale", ()), ("head.scale", ())):
        base[name] = np.asarray(rng.normal(size=shape), dtype=np.float32)
        for t in tuned:
            t[name] = np.asarray(base[name] + rng.normal(size=shape), dtype=np.float32)
    return base, tuned


def _merged_delta(base, tuned, config):
    """The merged update ``merge`` scales by lambda and adds onto ``base``.

    Merging the ``tuned - base`` deltas, subtracted at 64-bit and stored at
    32-bit, onto an all-zero base at lambda 1 scores, trims, elects and merges
    the same updates, and adds them to 0.
    """
    zero = {key: np.zeros_like(arr) for key, arr in base.items()}
    deltas = [
        {key: np.asarray(t[key].astype(np.float64) - base[key], dtype=np.float32) for key in base}
        for t in tuned
    ]
    merged, _, _ = merge(zero, deltas, replace(config, lam=1.0))
    return dict(merged)


class TestMerge:
    def test_collapsed_bounds_match_uniform_bitwise(self):
        base, tuned = _checkpoints()
        alloc = AllocationConfig(s_min=0.6, s_max=0.6, s_target=0.6)
        mals, _, _ = merge(base, tuned, MergeConfig(method="mals", allocation=alloc))
        uniform, _, _ = merge(
            base, tuned, MergeConfig(method="uniform_sparsity", allocation=alloc)
        )
        mals, uniform = dict(mals), dict(uniform)
        for key in base:
            assert mals[key].tobytes() == uniform[key].tobytes()

    def test_uniform_with_election_matches_ties_bitwise(self):
        base, tuned = _checkpoints(seed=1)
        alloc = AllocationConfig(s_target=0.5)
        uniform, _, _ = merge(
            base, tuned, MergeConfig(method="uniform_sparsity", sign_election=True, allocation=alloc)
        )
        ties, _, _ = merge(base, tuned, MergeConfig(method="ties", allocation=alloc))
        uniform, ties = dict(uniform), dict(ties)
        for key in base:
            assert uniform[key].tobytes() == ties[key].tobytes()

    def test_identity_merge_of_identical_checkpoints(self):
        base, tuned = _checkpoints(seed=2, tasks=1)
        copies = [tuned[0], tuned[0], tuned[0]]
        config = MergeConfig(
            method="mals",
            lam=1.0,
            sign_election=True,
            allocation=AllocationConfig(s_min=0.0, s_max=0.0, s_target=0.0),
        )
        merged, _, _ = merge(base, copies, config)
        merged = dict(merged)
        for key in base:
            np.testing.assert_array_equal(merged[key], tuned[0][key])

    def test_simple_average_of_one_task_equals_compose(self):
        self._check_simple_average_equals_compose(tasks=1)

    def test_simple_average_of_three_tasks_equals_compose(self):
        self._check_simple_average_equals_compose(tasks=3)

    @staticmethod
    def _check_simple_average_equals_compose(tasks):
        base, tuned = _edge_checkpoints(seed=3, tasks=tasks)
        config = MergeConfig(method="simple_average", lam=0.7)
        merged, conflict, allocation = merge(base, tuned, config)
        merged = dict(merged)
        task_vectors = [compute_task_vector(base, t, f"t{i}") for i, t in enumerate(tuned)]
        tau = simple_average(task_vectors)
        expected = compose_merged(base, tau, 0.7)
        delta = _merged_delta(base, tuned, config)
        assert set(merged) == set(delta) == set(base)
        for key in base:
            assert delta[key].tobytes() == tau.deltas[key].tobytes()
            assert merged[key].shape == expected[key].shape
            assert merged[key].tobytes() == expected[key].tobytes()
        assert allocation is None and conflict is None

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("method", METHODS)
    def test_merged_is_base_plus_scaled_merged_delta(self, method, lam):
        base, tuned = _edge_checkpoints(seed=8)
        config = MergeConfig(method=method, lam=lam)
        merged, _, _ = merge(base, tuned, config)
        merged = dict(merged)
        expected = compose_merged(base, TaskVector(method, _merged_delta(base, tuned, config)), lam)
        assert set(merged) == set(base)
        for key in base:
            assert merged[key].shape == expected[key].shape
            assert merged[key].tobytes() == expected[key].tobytes()

    @pytest.mark.parametrize("election", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_0d_tensor_merges_as_its_one_element_vector(self, method, election):
        base, tuned = _edge_checkpoints(seed=12)
        config = MergeConfig(method=method, sign_election=election)

        def as_vectors(m):
            return {k: v.reshape(1) if v.ndim == 0 else v for k, v in m.items()}

        out = dict(merge(base, tuned, config)[0])
        want = dict(merge(as_vectors(base), [as_vectors(t) for t in tuned], config)[0])
        assert out["m.layers.1.empty"].shape == (0, 4)
        for key in base:
            assert out[key].shape == base[key].shape
            assert out[key].tobytes() == want[key].tobytes()

    @pytest.mark.parametrize(
        "method, compose",
        [("mals", False), ("simple_average", False)]
        + [(method, True) for method in (*METHODS, "compose_merged")],
        ids=["mals", "simple_average"]
        + [f"compose-{method}" for method in (*METHODS, "compose_merged")],
    )
    def test_update_overflowing_32_bits_names_tensor(self, method, compose):
        base, tuned = _checkpoints(seed=10)
        name = "m.layers.1.mlp.w"
        if not compose:  # the update itself leaves the 32-bit range
            base[name][3], tuned[1][name][3] = -3e38, 3e38
            what, lam = "update of", 1.0
        else:  # every update is 3e37; the base plus three times that is not
            base[name][3] = 3e38
            for t in tuned:
                t[name][3] = 3.3e38
            what, lam = "merged", 3.0
        with pytest.raises(ValidationError, match=rf"{what} tensor '{re.escape(name)}' overflows"):
            if method == "compose_merged":
                compose_merged(base, compute_task_vector(base, tuned[0], "t0"), lam)
            else:  # pass 2's errors are raised as the merged pairs are taken
                dict(merge(base, tuned, MergeConfig(method=method, lam=lam))[0])

    @pytest.mark.parametrize(
        "base_value, tuned_value, config, what",
        [
            (-1e308, 1e308, MergeConfig(), "update of"),
            (0.0, 3e38, MergeConfig(method="simple_average", lam=1e300), "merged"),
        ],
        ids=["update", "compose"],
    )
    def test_64_bit_overflow_names_tensor(self, base_value, tuned_value, config, what):
        # float64 inputs: the 64-bit subtract or compose overflows before any cast
        name = "m.layers.0.w"
        base = {name: np.full(3, base_value)}
        tuned = [{name: np.full(3, tuned_value)}]
        with pytest.raises(ValidationError, match=rf"{what} tensor '{re.escape(name)}' overflows"):
            dict(merge(base, tuned, config)[0])

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_grouping_pattern_rejected_for_every_method(self, method):
        base, tuned = _checkpoints(seed=3)
        with pytest.raises(ValidationError, match="exactly one capture group"):
            merge(base, tuned, MergeConfig(method=method, grouping_pattern=r"layers\.\d+"))

    def test_conflict_equals_layer_conflict_of_task_vectors(self):
        base, tuned = _checkpoints(seed=9, tasks=4)
        rng = np.random.default_rng(9)
        # an all-empty layer group, and a second ungrouped tensor
        for name, shape in (("m.layers.7.w", (3, 0)), ("head.b", (5,))):
            base[name] = rng.normal(size=shape).astype(np.float32)
            for t in tuned:
                t[name] = (base[name] + rng.normal(size=shape)).astype(np.float32)
        grouping = group_layers(base)
        assert grouping.layer_ids[-2:] == ["layer.7", "ungrouped"]
        task_vectors = [compute_task_vector(base, t, f"t{i}") for i, t in enumerate(tuned)]
        expected = layer_conflict(task_vectors, grouping)
        _, got, _ = merge(base, tuned, MergeConfig(method="ties"))
        assert got.layer_ids == expected.layer_ids
        assert got.conflict.tobytes() == expected.conflict.tobytes()
        assert got.importance.tobytes() == expected.importance.tobytes()
        assert got.task_pairs == expected.task_pairs
        assert len(got.task_pairs) == 6
        for field in ("rho_abs", "sign_disagreement"):
            got_array, want_array = getattr(got, field), getattr(expected, field)
            assert got_array.shape == want_array.shape == (6, len(grouping))
            assert got_array.tobytes() == want_array.tobytes()

    def test_merged_preserves_keys_and_shapes(self):
        base, tuned = _checkpoints(seed=4)
        for method in ("mals", "uniform_sparsity", "ties", "simple_average"):
            merged, _, _ = merge(base, tuned, MergeConfig(method=method))
            merged = dict(merged)
            assert set(merged) == set(base)
            for key in base:
                assert merged[key].shape == base[key].shape
                assert merged[key].dtype == np.float32

    def test_sparsity_accounting(self):
        base, tuned = _checkpoints(seed=5)
        config = MergeConfig(method="uniform_sparsity")
        _, _, allocation = merge(base, tuned, config)
        delta = _merged_delta(base, tuned, config)
        grouping = group_layers(base)
        for level, (_, members) in zip(allocation.s_final, grouping.groups):
            n = sum(base[name].size for name in members)
            cap = len(tuned) * np.ceil((1.0 - level) * n)
            merged_nonzero = sum(np.count_nonzero(delta[name]) for name in members)
            assert merged_nonzero <= cap

    def test_election_consistency(self):
        base, tuned = _checkpoints(seed=6)
        config = MergeConfig(method="ties")
        _, _, allocation = merge(base, tuned, config)
        delta = _merged_delta(base, tuned, config)
        grouping = group_layers(base)
        # re-derive the elected signs with the brute-force trim oracle
        for level, (_, members) in zip(allocation.s_final, grouping.groups):
            ordered = sorted(members)
            trimmed = []
            for t in tuned:
                flat = np.concatenate([(t[n].astype(np.float64) - base[n]).ravel() for n in ordered])
                trimmed.append(sparsify_oracle(flat, float(level)))
            elected = np.sign(np.sum(trimmed, axis=0))
            merged = np.concatenate([delta[n].ravel() for n in ordered])
            nonzero = merged != 0
            assert np.all(np.sign(merged[nonzero]) == elected[nonzero])

    def test_incompatible_checkpoint_rejected(self):
        base, tuned = _checkpoints(seed=7)
        del tuned[1]["embed.w"]
        bad_label = r"checkpoint 'task-1' incompatible at 'embed\.w'"
        with pytest.raises(ValidationError, match=bad_label):
            merge(base, tuned, MergeConfig())

    @pytest.mark.parametrize("where, value", [("base", np.nan), ("checkpoint", np.nan), ("checkpoint", np.inf)])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_mapping_value_rejected_naming_the_input_and_tensor(self, method, where, value):
        # the message of an archive's read, naming the mapping in place of the file
        base, tuned = _edge_checkpoints(seed=7)
        (base if where == "base" else tuned[1])["m.layers.1.mlp.w"][3] = value
        what = "base" if where == "base" else "checkpoint 'task-1'"
        message = f"{what}: non-finite value detected in tensor 'm.layers.1.mlp.w'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            merge(base, tuned, MergeConfig(method=method))

    @pytest.mark.parametrize("where", ["base", "checkpoint"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, "<U1"])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_real_mapping_dtype_rejected_naming_the_input_tensor_and_dtype(self, method, dtype, where):
        # a complex or text tensor would otherwise fail deep inside numpy, in pass 1 or 2
        base, tuned = _edge_checkpoints(seed=7)
        target = base if where == "base" else tuned[1]
        target["m.layers.1.mlp.w"] = np.ones(target["m.layers.1.mlp.w"].shape, dtype)
        what = "base" if where == "base" else "checkpoint 'task-1'"
        message = f"{what}: tensor 'm.layers.1.mlp.w' has dtype {np.dtype(dtype)}, not a real number"
        config = MergeConfig(method=method, sign_election=True)
        for job in (plan, merge):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                job(base, tuned, config)

    @pytest.mark.parametrize("method", METHODS)
    def test_integer_bool_and_mixed_float_members_merge_as_their_float64_values(self, method):
        # one layer group of float32, float16, int64, uint8 and bool members: each merges by
        # its values, as the same values held in float64 do
        rng = np.random.default_rng(5)
        dtypes = {"f32": np.float32, "f16": np.float16, "i64": np.int64, "u8": np.uint8, "b": np.bool_}

        def checkpoint():
            return {f"m.layers.0.{key}": rng.integers(0, 2 if key == "b" else 9, size=(2, 3)).astype(dtype)
                    for key, dtype in dtypes.items()}

        def wide(tensors):
            return {name: tensor.astype(np.float64) for name, tensor in tensors.items()}

        base, tuned = checkpoint(), [checkpoint() for _ in range(3)]
        config = MergeConfig(method=method, sign_election=True)
        merged, _, _ = merge(base, tuned, config)
        expected, _, _ = merge(wide(base), [wide(t) for t in tuned], config)
        assert [(name, t.tobytes()) for name, t in merged] == [(name, t.tobytes()) for name, t in expected]

    @pytest.mark.parametrize("tensor", [np.arange(5), np.array([True, False]), np.float16([1, np.inf]),
                                        np.array(np.nan), np.array(2.5), np.zeros((0, 3)), np.full(3, -np.inf)])
    def test_mapping_finiteness_check_matches_isfinite(self, tensor):
        finite = bool(np.all(np.isfinite(tensor)))
        if finite:
            merging._require_finite({"t": tensor}, "base")
        else:
            with pytest.raises(ValidationError, match="^base: non-finite value detected in tensor 't'$"):
                merging._require_finite({"t": tensor}, "base")

    def test_mapping_finiteness_check_builds_no_mask(self):
        # max and min, not a bool array as long as the tensor (1 MB here)
        tensors = {"t": np.ones(1_000_000, np.float32)}
        assert _traced_peak(partial(merging._require_finite, tensors, "base")) < 64 * 1024

    def test_archive_inputs_are_not_scanned_for_non_finite_values(self, tmp_path, monkeypatch):
        # an archive checks each value as it reads it: plan() reads none of simple_average's
        base, tuned = _checkpoints(seed=7)
        paths = [tmp_path / f"{i}.st" for i in range(len(tuned) + 1)]
        for tensors, path in zip([base, *tuned], paths):
            write_archive(tensors, path)
        reads = []
        monkeypatch.setattr(Archive, "__getitem__", lambda self, name: reads.append(name))
        monkeypatch.setattr(Archive, "read_range", lambda self, name, start, stop: reads.append(name))
        plan(read_archive(paths[0]), [read_archive(path) for path in paths[1:]],
             MergeConfig(method="simple_average"))
        assert reads == []

    def test_empty_tuned_rejected(self):
        base, _ = _checkpoints()
        with pytest.raises(ValidationError, match="at least one"):
            merge(base, [], MergeConfig())

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError, match="method"):
            MergeConfig(method="fisher")

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValidationError, match="lambda"):
            MergeConfig(lam=0.0)

    @pytest.mark.parametrize("method", ["mals", "uniform_sparsity", "ties"])
    def test_empty_layer_group_merges(self, method):
        rng = np.random.default_rng(5)
        base = {
            "m.layers.0.w": rng.normal(size=(4, 5)).astype(np.float32),
            "m.layers.1.w": np.zeros((0, 3), dtype=np.float32),
            "m.layers.2.w": rng.normal(size=(3, 3)).astype(np.float32),
        }
        tuned = [
            {k: (v + rng.normal(size=v.shape)).astype(np.float32) for k, v in base.items()}
            for _ in range(3)
        ]
        merged, conflict, _ = merge(base, tuned, MergeConfig(method=method))
        merged = dict(merged)
        assert merged["m.layers.1.w"].shape == (0, 3)
        assert conflict.conflict[1] == 0.0
        assert conflict.importance[1] == 0.0
        assert conflict.rho_abs.shape == conflict.sign_disagreement.shape == (3, 3)
        assert not conflict.rho_abs[:, 1].any()
        assert not conflict.sign_disagreement[:, 1].any()
        if method != "mals":
            # one trim level everywhere, so the empty group leaves the rest untouched
            def drop(m):
                return {k: v for k, v in m.items() if k != "m.layers.1.w"}

            without, _, _ = merge(drop(base), [drop(t) for t in tuned], MergeConfig(method=method))
            for name, value in without:
                np.testing.assert_array_equal(merged[name], value)

    def test_determinism_across_runs(self):
        base, tuned = _checkpoints(seed=8)
        config = MergeConfig(method="mals", sign_election=True)
        first = dict(merge(base, tuned, config)[0])
        second = dict(merge(base, tuned, config)[0])
        for key in base:
            assert first[key].tobytes() == second[key].tobytes()

    def test_end_to_end_matches_composed_oracle_pipeline(self):
        from oracles import min_max_oracle, pearson_abs_oracle, sign_disagreement_oracle
        from malsmerge import synthesize_checkpoints

        base, tuned = synthesize_checkpoints(64, 3, 400, 3, [0.9, 0.4, 0.05])
        alloc = AllocationConfig(alpha=1.0, beta=1.0, s_min=0.1, s_max=0.9, s_target=0.5)
        config = MergeConfig(method="mals", lam=1.3, sign_election=True, allocation=alloc)
        merged, conflict, allocation = merge(base, tuned, config)
        merged = dict(merged)

        grouping = group_layers(base)
        groups = [sorted(members) for _, members in grouping.groups]
        deltas = [
            {k: t[k].astype(np.float64) - base[k].astype(np.float64) for k in base}
            for t in tuned
        ]
        flats = [
            [np.concatenate([deltas[i][n].ravel() for n in members]) for i in range(3)]
            for members in groups
        ]

        # conflict and importance via the brute-force kernels
        c, m = [], []
        for per_task in flats:
            scores = []
            for i in range(3):
                for j in range(i + 1, 3):
                    scores.append(
                        0.5 * pearson_abs_oracle(per_task[i], per_task[j])
                        + 0.5 * sign_disagreement_oracle(per_task[i], per_task[j])
                    )
            c.append(sum(scores) / len(scores))
            m.append(sum(float(np.mean(np.abs(f))) for f in per_task) / 3)
        np.testing.assert_allclose(conflict.conflict, c, atol=1e-12)
        np.testing.assert_allclose(conflict.importance, m, atol=1e-12)

        # allocation chain per the stated update rules
        r = np.array(min_max_oracle(c)) - np.array(min_max_oracle(m))
        e = np.exp(r - r.max())
        w = e / e.sum()
        s = 0.1 + w * 0.8
        for _ in range(100):
            delta = 0.5 - s.mean()
            if abs(delta) < 1e-6:
                break
            s = np.clip(s + delta, 0.1, 0.9)
            residual = 0.5 - s.mean()
            if abs(residual) >= 1e-6:
                free = (s > 0.1) & (s < 0.9)
                if free.any():
                    s[free] = np.clip(s[free] + residual * len(s) / free.sum(), 0.1, 0.9)
        np.testing.assert_allclose(allocation.s_final, s, atol=1e-12)
        assert int(np.argmax(allocation.s_final)) == 0  # the designed high-conflict layer

        # trim, elect, disjoint-average, and compose by enumeration
        expected = {}
        for members, per_task, level in zip(groups, flats, s):
            trimmed = [np.array(sparsify_oracle(f, float(level))) for f in per_task]
            merged_flat = np.zeros(len(trimmed[0]))
            for k in range(len(merged_flat)):
                column = [t[k] for t in trimmed]
                elected = np.sign(sum(column))
                surviving = [v for v in column if v != 0 and np.sign(v) == elected]
                merged_flat[k] = sum(surviving) / len(surviving) if surviving else 0.0
            offset = 0
            for name in members:
                size = base[name].size
                tau32 = merged_flat[offset : offset + size].astype(np.float32)
                expected[name] = (
                    base[name].astype(np.float64) + 1.3 * tau32.astype(np.float64)
                ).astype(np.float32).reshape(base[name].shape)
                offset += size
        for name in base:
            np.testing.assert_array_equal(merged[name], expected[name])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=32),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_sparsify_count_property(values, s):
    v = np.array(values)
    out = sparsify_top_fraction(v, s)
    n_keep = 0 if s == 1.0 else int(np.ceil((1.0 - s) * v.size))
    assert np.count_nonzero(out) <= n_keep
    if np.count_nonzero(v) >= n_keep:
        assert np.count_nonzero(out) == n_keep
    kept_magnitudes = np.abs(out[out != 0])
    dropped = np.abs(v[(out == 0) & (v != 0)])
    if kept_magnitudes.size and dropped.size:
        assert kept_magnitudes.min() >= dropped.max() - 1e-12


# eighths in [-1, 1] and -0.0: updates on this grid are exact, often tied in magnitude,
# often zero, and -0.0 where a tuned -0.0 meets a base +0.0
_GRID = np.array([k / 8 for k in range(-8, 9)] + [-0.0], np.float32)
_ALLOCATION = AllocationConfig(alpha=1.0, beta=0.5, s_min=0.1, s_max=0.9, s_target=0.5, epsilon=1e-13)


@settings(max_examples=30, deadline=None)
@given(tasks=st.integers(1, 4), sizes=st.lists(st.integers(0, 300), min_size=1, max_size=2),
       order=st.randoms(use_true_random=False), seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([1.0, 0.7, 1.3]))
def test_merge_matches_the_reference_merge(tasks, sizes, order, seed, lam):
    # every method, election on and off, with an empty group and a one-entry group in every
    # case; a group of two or more entries is split into two members at a drawn point
    sizes = [0, 1, *sizes]
    order.shuffle(sizes)
    rng = np.random.default_rng(seed)
    base, tuned, groups = {}, [{} for _ in range(tasks)], []
    for l, n in enumerate(sizes):
        cut = int(rng.integers(1, n)) if n >= 2 else n
        members = [f"model.layers.{l}.a", f"model.layers.{l}.b"][:1 + (n >= 2)]
        for name, size in zip(members, (cut, n - cut)):
            base[name] = rng.choice(_GRID, size)
            for checkpoint in tuned:
                checkpoint[name] = rng.choice(_GRID, size)
        groups.append(members)
    for method in METHODS:
        for sign_election in (False, True):
            _check_against_the_oracle(base, tuned, groups, method, sign_election, lam)


def _check_against_the_oracle(base, tuned, groups, method, sign_election, lam) -> None:
    """Pass 1 agrees with the oracle's to 1e-12, the allocation on pass 1's scores with the
    exact projection (epsilon 1e-13), and pass 2, at plan()'s own levels, to the byte."""
    config = MergeConfig(method=method, sign_election=sign_election, lam=lam, allocation=_ALLOCATION)
    merged, report, allocation = merge(base, tuned, config)
    merged = {name: tensor.tobytes() for name, tensor in merged}
    s_final = None if allocation is None else allocation.s_final.tolist()
    conflict, importance, _, expected = merge_oracle(base, tuned, groups, method, sign_election, lam,
                                                     vars(_ALLOCATION), s_final)
    expected = {name: np.array(values, np.float32).tobytes() for name, values in expected.items()}
    assert merged == expected, method
    if method == "simple_average":
        assert report is None and allocation is None
        return
    np.testing.assert_allclose(report.conflict, conflict, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.importance, importance, rtol=0, atol=1e-12)
    box = (0.5, 0.5) if method in ("uniform_sparsity", "ties") else (0.1, 0.9)
    levels = allocation_oracle(report.conflict.tolist(), report.importance.tolist(), 1.0, 0.5, *box, 0.5)
    np.testing.assert_allclose(allocation.s_final, levels, rtol=0, atol=1e-12)


def _peak_bytes(out_dir, num_layers: int, job, num_tasks: int = 3, elems: int = 50_000,
                runs: int = 1) -> int:
    """Peak traced memory of ``job(paths)`` over a synthetic set of ``num_layers``
    layers of ``elems`` entries and ``num_tasks`` tasks, the archives opened inside ``job``,
    the largest of ``runs`` runs."""
    paths = write_synthetic_set(out_dir, seed=3, num_layers=num_layers, elems_per_layer=elems,
                                num_tasks=num_tasks, conflict_profile=[0.5] * num_layers)
    return _traced_peak(partial(job, paths), runs)


# runs whose largest traced peak a test takes at each size when it charges for two workers'
# jobs overlapping: on busy CPUs a run's jobs miss each other about two times in five, at
# either size, and three runs each still let the smaller miss in all three one time in eight
_OVERLAP_RUNS = 5


def _traced_peak(job, runs: int = 1) -> int:
    """Peak traced memory of ``job()``, the largest of ``runs`` runs."""
    peaks = []
    for _ in range(runs):
        tracemalloc.start()
        try:
            job()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


def _plan(paths) -> None:
    plan(read_archive(paths["base"]), [read_archive(path) for path in paths["tasks"]], MergeConfig())


def _cli_merge(paths, options={"method": "mals", "sign_election": True}) -> None:
    config = Path(paths["base"]).with_name("merge.json")
    config.write_text(json.dumps({
        "base_path": str(paths["base"]),
        "tuned_paths": [{"path": str(path)} for path in paths["tasks"]],
        "output_path": str(config.with_name("merged.safetensors")),
        **options,
    }))
    assert cli.run(["merge", "--config", str(config)]) == 0


def _write_merged(base, merged, path) -> None:
    """Write ``merge()``'s pairs through the range writer, one tensor alive at a time."""
    with archive_writer(tensor_shapes(base), path) as write_range:
        for name, tensor in merged:
            write_range(name, 0, tensor)
            del tensor  # a tensor may hold its whole layer: free it before the next is built


def _library_merge(paths, config=MergeConfig(method="mals", sign_election=True)) -> None:
    base = read_archive(paths["base"])
    tuned = [read_archive(path) for path in paths["tasks"]]
    merged, _, _ = merge(base, tuned, config)
    _write_merged(base, merged, Path(paths["base"]).with_name("merged.safetensors"))


def _off_grid_set(root: Path, tied: bool) -> tuple[Path, list[Path]]:
    """Three layer groups of two 32-entry members, a base and three tasks, written as archives:
    continuous values, so no two magnitudes of an update tie. With ``tied``, task 0's update
    of the first group is ±0.5 at every entry, so any trim of it that keeps some has surplus
    ties at its threshold."""
    rng = np.random.default_rng(3)
    names = [f"model.layers.{layer}.{member}.weight" for layer in range(3) for member in ("attn", "mlp")]
    base = {name: rng.standard_normal(32).astype(np.float32) for name in names}
    tuned = [{name: (values + 0.02 * rng.standard_normal(32)).astype(np.float32) for name, values in base.items()}
             for _ in range(3)]
    if tied:
        for name in names[:2]:
            base[name] = rng.integers(-8, 8, 32).astype(np.float32)  # base ± 0.5 is exact
            tuned[0][name] = base[name] + rng.choice([-0.5, 0.5], 32).astype(np.float32)
    paths = [root / f"{i}.st" for i in range(4)]
    for tensors, path in zip([base, *tuned], paths):
        write_archive(tensors, path)
    return paths[0], paths[1:]


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("method", ["mals", "ties", "simple_average"])
def test_merge_to_archive_reads_every_entry_twice_a_trimmed_pass(tmp_path, monkeypatch, method, tied):
    # each pass of a trimmed merge reads the base and every task's update twice: whole, for
    # pass 1's means or pass 2's thresholds, then a part or slice at a time, the base's entries
    # once for every task. A threshold with surplus ties reads its task's group once more, a
    # slice at a time up to the slice that holds the cutoff, the index after the last tie
    # kept. simple_average runs pass 2 alone and reads every entry once, a slice at a time
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 7)
    monkeypatch.setattr(conflict, "_NODE_ENTRIES", 20)
    monkeypatch.setattr(merging, "_workers", lambda: 2)
    base_path, task_paths = _off_grid_set(tmp_path, tied)
    reads = []  # appended from the workers; an append is atomic
    read_range = Archive.read_range

    def counted(self, name, start, stop, out=None):
        reads.append((self.path, name, stop - start))
        return read_range(self, name, start, stop, out)

    monkeypatch.setattr(Archive, "read_range", counted)
    base, tuned = read_archive(base_path), [read_archive(path) for path in task_paths]
    _, allocation = merge_to_archive(base, tuned, MergeConfig(method=method, sign_election=True),
                                     tmp_path / "merged.st")
    counts = {}
    for path, name, entries in reads:
        counts[path, name] = counts.get((path, name), 0) + entries
    passes = 1 if method == "simple_average" else 4
    expected = {(archive.path, name): passes * 32 for archive in (base, *tuned) for name in archive}
    if tied and method != "simple_average":
        # task 0's update of group 0 is ±0.5 at all 64 entries, so the kept ties are the first
        # n_keep, and the cutoff n_keep lies in the slice of 7 that ends at `end`
        n_keep = merging._kept(float(allocation.s_final[0]), 64)
        assert 0 < n_keep < 64
        end = min(64, -(-n_keep // 7) * 7)
        expected[tuned[0].path, "model.layers.0.attn.weight"] += min(end, 32)
        expected[tuned[0].path, "model.layers.0.mlp.weight"] += max(end - 32, 0)
    assert counts == expected


def test_each_pass_drops_the_base_flat_before_its_walk(tmp_path, monkeypatch):
    # each pass reads a group's base whole for its per-task round alone: when its walk reads
    # the base (pass 1 a part of 20 entries at a time, pass 2 a slice of 7), no flat is held
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 7)
    monkeypatch.setattr(conflict, "_NODE_ENTRIES", 20)
    base_path, task_paths = _off_grid_set(tmp_path, tied=True)  # the tied group re-reads in slices
    flats, held = [], []
    flat_reader, slice_walk = merging.flat_reader, merging._slice_walk

    def recording_reader(tensors, members, offsets):
        flat = flat_reader(tensors, members, offsets)

        def read(start, stop):
            values = flat(start, stop)
            if (start, stop) == (0, offsets[-1]):
                flats.append(weakref.ref(values))
            else:
                held.append(any(ref() is not None for ref in flats))
            return values

        return read

    def recording_walk(*args):
        held.append(any(ref() is not None for ref in flats))
        slice_walk(*args)

    monkeypatch.setattr(merging, "flat_reader", recording_reader)
    monkeypatch.setattr(merging, "_slice_walk", recording_walk)
    base, tuned = read_archive(base_path), [read_archive(path) for path in task_paths]
    merge_to_archive(base, tuned, MergeConfig(method="mals", sign_election=True), tmp_path / "merged.st")
    assert len(flats) == 6 and len(held) > 6 and not any(held), held


@pytest.mark.parametrize("job", [_plan, _cli_merge, _library_merge], ids=lambda job: job.__name__[1:])
def test_memory_follows_the_layer_not_the_model(tmp_path, job):
    # archives are read a tensor at a time, and each merged layer is written at its
    # offsets as soon as it is composed, so four times the layers at the same layer
    # size cost no more memory
    small = _peak_bytes(tmp_path / "small", 4, job)
    large = _peak_bytes(tmp_path / "large", 16, job)
    assert large <= 1.1 * small


def test_simple_average_memory_follows_one_task_not_the_task_count(tmp_path):
    # each raw update is added into the layer's float64 total and dropped before
    # the next checkpoint is read, so eight tasks cost no more than two
    def job(paths):
        _library_merge(paths, MergeConfig(method="simple_average"))

    small = _peak_bytes(tmp_path / "small", 4, job, num_tasks=2)
    large = _peak_bytes(tmp_path / "large", 4, job, num_tasks=8)
    assert large <= 1.1 * small


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("job, bytes_per_entry", [
    (partial(_library_merge, config=MergeConfig(method="simple_average")), 5),
    (partial(_cli_merge, options={"method": "simple_average"}), 0.5),
], ids=["library", "cli"])
def test_simple_average_memory_is_the_layer_output_plus_the_slices(tmp_path, monkeypatch, workers, job,
                                                                   bytes_per_entry):
    # each slice's reads, update and float64 total are slice-sized, so a layer four times
    # as large adds to merge() only its float32 output (4 bytes an entry) and the writer's
    # check of it, and to the CLI's merge, which writes each slice where it is composed, nothing
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4096)
    monkeypatch.setattr(merging, "_workers", lambda: workers)
    runs = _OVERLAP_RUNS if workers > 1 else 1
    small = _peak_bytes(tmp_path / "small", 2, job, elems=50_000, runs=runs)
    large = _peak_bytes(tmp_path / "large", 2, job, elems=200_000, runs=runs)
    assert (large - small) / 150_000 <= bytes_per_entry


@pytest.mark.parametrize("election", [False, True])
def test_disjoint_merge_holds_one_contributor_mask_at_a_time(election):
    # the total, the count and one task's mask and masked row are alive at once,
    # whatever the number of tasks
    rng = np.random.default_rng(5)
    n = 100_000

    def peak(num_tasks):
        rows = [rng.standard_normal(n).astype(np.float32) for _ in range(num_tasks)]
        signs = elect_signs(rows) if election else None
        tracemalloc.start()
        try:
            disjoint_merge(rows, signs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(8) - peak(2)) / (6 * n) < 0.5


@pytest.mark.parametrize("phase", ["plan", "pass 2"])
def test_memory_per_added_task_is_about_nothing(tmp_path, monkeypatch, phase):
    # neither pass keeps a task's update of a layer group: a task's job builds it whole, keeps
    # its mean and magnitude or its threshold, and drops it, and the rest is built a part of
    # the sums' tree or a slice at a time, 512 entries here, no cost per entry of these
    # 50,000-entry groups. One worker, so one whole update is in flight at either task count.
    # The archives are opened before tracing: their objects, about 4 KiB each, are not the
    # passes'. Pass 2 runs with the plan computed beforehand
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    monkeypatch.setattr(conflict, "_NODE_ENTRIES", 512)
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 512)
    monkeypatch.setattr(merging, "_workers", lambda: 1)
    config = MergeConfig(method="mals", sign_election=True)
    peaks = {}
    for tasks in (2, 8):
        paths = write_synthetic_set(tmp_path / str(tasks), seed=3, num_layers=4, elems_per_layer=50_000,
                                    num_tasks=tasks, conflict_profile=[0.5] * 4)
        base, tuned = read_archive(paths["base"]), [read_archive(path) for path in paths["tasks"]]
        if phase == "plan":
            job = partial(plan, base, tuned, config)
        else:
            cached = plan(base, tuned, config)
            monkeypatch.setattr(merging, "plan", lambda *args: cached)
            job = partial(merge_to_archive, base, tuned, config, tmp_path / "merged.safetensors")
        peaks[tasks] = _traced_peak(job)
    assert (peaks[8] - peaks[2]) / (6 * 50_000) <= 0.5, peaks


@pytest.mark.parametrize("phase", ["plan", "pass 2"])
def test_memory_grows_by_at_most_one_raw_update_per_added_worker(tmp_path, monkeypatch, phase):
    # a task's job holds one whole update, read into its own array (pass 1 takes its magnitudes
    # in the update's place, pass 2 partitions them there), and every other job slice- or
    # part-sized temporaries: never more than one layer-sized array per worker
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4096)
    monkeypatch.setattr(conflict, "_NODE_ENTRIES", 4096)
    elems = 300_000
    paths = write_synthetic_set(tmp_path, seed=3, num_layers=2, elems_per_layer=elems, num_tasks=4,
                                conflict_profile=[0.8, 0.2])
    config = MergeConfig(method="mals", sign_election=True)
    peaks = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(merging, "_workers", lambda: workers)
        base, tuned = read_archive(paths["base"]), [read_archive(path) for path in paths["tasks"]]
        if phase == "pass 2":
            merged, _, _ = merge(base, tuned, config)
            job = partial(_write_merged, base, merged, tmp_path / "merged.safetensors")
        else:
            job = partial(plan, base, tuned, config)
        peaks[workers] = _traced_peak(job)
    slice_temporaries = 64 * merging._SLICE_ENTRIES
    for workers in (2, 4):
        assert peaks[workers] - peaks[1] <= (workers - 1) * (4 * elems + slice_temporaries), peaks


# bytes per entry of a layer group that each pass may hold beyond its fixed cost, with ``jobs``
# task jobs in flight, whatever the task count, and the margin over it that each pass is
# allowed. A trimmed merge's pass keeps the group's base (4), and each task job in flight one
# whole update (4), read into its own array: pass 1's job takes its mean and then its
# magnitudes in its place, pass 2's partitions its magnitudes there. The rest is built a part
# of the sums' tree or a slice at a time. Averaging holds slices alone. The trimmed passes
# measured 6.6 to 12.0 against these budgets and averaging at most 0.02, so one more
# layer-sized float32 array (4) fails each, as does a return to a float32 update kept per task
# (36.8 in pass 1 and 39.9 in pass 2 at T = 8 on 1 worker)
_PASS_BUDGETS = {
    ("mals", "plan"): (lambda tasks, jobs: 4 + 4 * jobs, 0.25),
    ("mals", "pass 2"): (lambda tasks, jobs: 4 + 4 * jobs, 0.25),
    ("simple_average", "plan"): (lambda tasks, jobs: 0, 1.0),
    ("simple_average", "pass 2"): (lambda tasks, jobs: 0, 1.0),
}
_GROUP_SIZES = (16_000, 256_000)
_TASK_COUNTS = (2, 4, 8)


@pytest.fixture(scope="module")
def sized_sets(tmp_path_factory):
    """Two layer groups of each size in ``_GROUP_SIZES``, at each of ``_TASK_COUNTS`` tasks."""
    root = tmp_path_factory.mktemp("sized")
    return {(n, tasks): write_synthetic_set(root / f"{n}-{tasks}", seed=3, num_layers=2, elems_per_layer=n,
                                            num_tasks=tasks, conflict_profile=[0.8, 0.2])
            for n in _GROUP_SIZES for tasks in _TASK_COUNTS}


@pytest.mark.parametrize("method, phase", list(_PASS_BUDGETS))
def test_memory_per_entry_stays_within_each_pass_budget(tmp_path, monkeypatch, sized_sets, method, phase):
    # the traced peak's growth per added group entry, at T = 2, 4 and 8 and 1 and 2 workers; pass 2
    # is merge_to_archive's, the CLI's, with the plan computed beforehand
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4096)
    monkeypatch.setattr(conflict, "_NODE_ENTRIES", 4096)
    config = MergeConfig(method=method, sign_election=True)
    for workers in (1, 2):
        monkeypatch.setattr(merging, "_workers", lambda: workers)
        for tasks in _TASK_COUNTS:
            peaks = []
            for n in _GROUP_SIZES:
                paths = sized_sets[n, tasks]
                base, tuned = read_archive(paths["base"]), [read_archive(path) for path in paths["tasks"]]
                if phase == "plan":
                    job = partial(plan, base, tuned, config)
                else:
                    cached = plan(base, tuned, config)
                    monkeypatch.setattr(merging, "plan", lambda *args: cached)
                    job = partial(merge_to_archive, base, tuned, config, tmp_path / "merged.safetensors")
                peaks.append(_traced_peak(job, runs=_OVERLAP_RUNS if workers > 1 else 1))
            per_entry = (peaks[1] - peaks[0]) / (_GROUP_SIZES[1] - _GROUP_SIZES[0])
            budget, margin = _PASS_BUDGETS[method, phase]
            assert per_entry <= budget(tasks, min(workers, tasks)) + margin, (workers, tasks, per_entry)
