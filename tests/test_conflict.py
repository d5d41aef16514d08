from __future__ import annotations

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import (
    MergeConfig,
    ValidationError,
    group_layers,
    pearson_abs,
    sign_disagreement,
    synthesize_checkpoints,
)
from malsmerge.archive import tensor_shapes
from malsmerge.conflict import (
    _NODE_ENTRIES, _PART_BYTES, Layer, _constant, _cut, _mean, _part_walk, _views, layer_conflict, score_layers,
)
from malsmerge.grouping import flatten_group, member_offsets
from malsmerge.merging import plan
from malsmerge.task_vectors import TaskVector, compute_task_vector, flat_reader, range_reader, update_range
from oracles import pearson_abs_oracle, sign_disagreement_oracle


class TestPearsonAbs:
    def test_identical_non_constant(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_abs(x, x) == 1.0

    def test_negated_is_still_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_abs(x, -x) == 1.0

    def test_frozen_oracle_value(self):
        # 7/sqrt(145), computed by the two-pass textbook oracle
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 3.0, -4.0])
        assert pearson_abs(x, y) == pytest.approx(0.5813183589761798, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-170])
    def test_identical_at_the_edges_of_float64(self, scale):
        # the sum of squares overflows, or underflows to 0, unless rescaled
        x = scale * np.array([1.0, -2.0, 0.5, 3.0])
        assert pearson_abs(x, x) == 1.0

    def test_far_apart_scales(self):
        # 1e160 * 3 rounds, so the pair is one rounding short of proportional
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert pearson_abs(1e160 * x, x) == pytest.approx(1.0, abs=1e-15)

    def test_zero_variance_returns_zero(self):
        assert pearson_abs(np.array([2.0, 2.0]), np.array([1.0, 3.0])) == 0.0
        assert pearson_abs(np.array([1.0]), np.array([5.0])) == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1001, 12345])
    @pytest.mark.parametrize("value", [0.1, 1 / 3, -7.3, 1e-30, 3e38])
    def test_constant_vector_returns_exactly_zero(self, dtype, n, value):
        # the computed mean of 0.1 repeated is not 0.1, which left rounding noise
        # (8.7e-17 for n = 3) standing in for a correlation
        y = np.arange(n, dtype=np.float64) ** 2
        assert pearson_abs(np.full(n, value, dtype), y) == 0.0
        assert pearson_abs(y, np.full(n, value, dtype)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1001, 12345])
    @pytest.mark.parametrize("value", [1e308, -1e308, np.finfo(np.float64).max])
    def test_constant_vector_whose_sum_overflows_returns_exactly_zero(self, n, value):
        # the mean's sum overflows to inf: it is taken with overflow ignored, and the copy
        # rescaled by a power of two is found constant, with no warning
        y = np.arange(n, dtype=np.float64) ** 2
        assert pearson_abs(np.full(n, value), y) == 0.0
        assert pearson_abs(y, np.full(n, value)) == 0.0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("other", [[1.0, 2.0, 0.5], [3.0, 3.0, 3.0], [np.inf, 0.0, -1.0]])
    def test_a_non_finite_entry_gives_nan_with_no_warning(self, dtype, bad, other):
        # warnings are errors here: float64's rescaled second walk must ignore the NaNs it
        # makes as the first does, and a NaN wins over a constant partner's 0
        x, y = np.array([bad, 1.0, 2.0], dtype), np.array(other, dtype)
        assert math.isnan(pearson_abs(x, y))
        assert math.isnan(pearson_abs(y, x))
        assert sign_disagreement(x, y) == sign_disagreement_oracle(x, y)
        assert sign_disagreement(y, x) == sign_disagreement_oracle(y, x)

    def test_near_constant_vector_keeps_its_correlation(self):
        # one ulp apart: small enough for the exact check, which finds it not constant
        x = np.array([1.0, 1.0 + 2.0**-52])
        assert pearson_abs(x, np.array([0.0, 1.0])) > 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pearson_abs(np.ones(2), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pearson_abs(np.array([]), np.array([]))

    def test_non_flat_rejected(self):
        with pytest.raises(ValueError, match="flat vectors"):
            pearson_abs(np.ones((2, 2)), np.ones((2, 2)))


class TestSignDisagreement:
    def test_total_disagreement(self):
        x = np.array([1.0, -2.0, 3.0])
        assert sign_disagreement(x, -x) == 1.0

    def test_no_disagreement(self):
        x = np.array([1.0, -2.0, 0.0])
        assert sign_disagreement(x, x) == 0.0

    def test_frozen_counted_value(self):
        # numerator 2*2, denominator 2+3, counted by enumeration
        x = np.array([1.0, 0.0, -2.0])
        y = np.array([-1.0, 3.0, 2.0])
        assert sign_disagreement(x, y) == 0.8

    def test_all_zeros_returns_zero(self):
        assert sign_disagreement(np.zeros(4), np.zeros(4)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            sign_disagreement(np.ones(2), np.ones(3))


def test_oracle_equivalence_battery():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        # sprinkle zeros and exact collinearity into some draws
        if rng.random() < 0.3:
            x[rng.random(n) < 0.4] = 0.0
            y[rng.random(n) < 0.4] = 0.0
        if rng.random() < 0.1:
            y = -2.0 * x
        assert pearson_abs(x, y) == pytest.approx(pearson_abs_oracle(x, y), abs=1e-12)
        assert sign_disagreement(x, y) == pytest.approx(
            sign_disagreement_oracle(x, y), abs=1e-12
        )


@pytest.mark.parametrize("n", [*range(18), 8191, 8192, 8193])
def test_sign_disagreement_equals_oracle_exactly(n):
    # signed zeros and subnormals of either sign, at lengths short and long
    rng = np.random.default_rng(n)
    tiny = np.finfo(np.float64).smallest_subnormal
    values = np.array([0.0, -0.0, tiny, -tiny, 1.5, -2.0, 3e-310, -3e-310])
    for _ in range(3):
        x, y = rng.choice(values, size=n), rng.choice(values, size=n)
        assert sign_disagreement(x, y) == sign_disagreement_oracle(x, y)
        assert sign_disagreement(x, -x) == sign_disagreement_oracle(x, -x)


@pytest.mark.parametrize("n", [1, 7, 8, 9, _NODE_ENTRIES - 1, _NODE_ENTRIES, _NODE_ENTRIES + 1,
                               3 * _NODE_ENTRIES + 5])
def test_part_walk_sign_disagreements_equal_the_oracle(n):
    # the signs are counted over each part of the sums' tree and the counts added: around
    # a part's edges, and through the builtin map and a pool's, each pair's ratio is the
    # oracle's count over the whole vectors, with a NaN counted as nonzero
    rng = np.random.default_rng(n)
    values = [-1.0, -0.0, 0.0, 1.0, np.nan, -np.inf]
    xs = [rng.choice(values, size=n).astype(np.float32) for _ in range(3)]
    xs[0][0], xs[1][0] = 1.0, -1.0  # one opposite pair at least, so the ratio is not 0 / 0
    pairs = list(combinations(range(3), 2))
    expected = [sign_disagreement_oracle(xs[i], xs[j]) for i, j in pairs]
    assert _part_walk(_views(xs), n, (), (), pairs)[1] == expected
    with ThreadPoolExecutor(2) as pool:
        assert _part_walk(_views(xs), n, (), (), pairs, pool.map)[1] == expected


@pytest.mark.parametrize("dtype, scale, bound", [(np.float32, 1.0, 1.0), (np.float64, 1.0, 1.0),
                                                 (np.float64, 1e-170, 17.0)])
def test_pearson_abs_holds_no_deviations_per_entry(dtype, scale, bound):
    # the sums are taken a part at a time, so the peak does not grow with the vectors:
    # whole float64 deviations of both would add 16 bytes an entry. At 1e-170 the sums of
    # squares underflow, and each vector's rescaled float64 copy is the one array it adds
    peaks = {}
    for n in (250_000, 1_000_000):
        rng = np.random.default_rng(n)
        x, y = ((scale * rng.standard_normal(n)).astype(dtype) for _ in range(2))
        tracemalloc.start()
        try:
            pearson_abs(x, y)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[1_000_000] - peaks[250_000]) / 750_000 < bound


def test_sign_disagreement_holds_no_byte_per_entry():
    # the signs are counted a part at a time, so the peak does not grow with the vectors:
    # whole sign masks of both would add a byte an entry, and packed ones a quarter
    peaks = {}
    for n in (250_000, 1_000_000):
        rng = np.random.default_rng(n)
        x, y = (rng.choice([-1.0, 0.0, 1.0], size=n) for _ in range(2))
        tracemalloc.start()
        try:
            sign_disagreement(x, y)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[1_000_000] - peaks[250_000]) / 750_000 < 0.1


@pytest.mark.parametrize("tasks", [2, 4, 8, 16])
def test_part_walk_job_holds_one_bounded_block_whatever_the_task_count(tasks):
    # a part job holds its vectors' float64 deviations, cut to fill at most _PART_BYTES (2 MiB),
    # each vector's two sign masks (a quarter of that), one product buffer of a part's float64
    # row and bool temporaries. Cut at 65,536 entries whatever the count, the deviations alone
    # would take 4 MiB at eight tasks and 8 MiB at sixteen
    n = 2 * _NODE_ENTRIES  # whole parts at every cut
    rng = np.random.default_rng(tasks)
    xs = [rng.standard_normal(n).astype(np.float32) for _ in range(tasks)]
    means = [_mean(x) for x in xs]
    pairs = list(combinations(range(tasks), 2))
    assert tasks * _cut(tasks) * 8 <= _PART_BYTES
    tracemalloc.start()
    try:
        _part_walk(_views(xs), n, means, [(t, t) for t in range(tasks)] + pairs, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PART_BYTES + _PART_BYTES // 4 + 8 * _NODE_ENTRIES + (64 << 10), peak


vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=64,
)


@settings(max_examples=100, deadline=None)
@given(vectors, st.randoms())
def test_symmetry_and_range(values, shuffler):
    x = np.array(values)
    mixed = list(values)
    shuffler.shuffle(mixed)
    y = np.array(mixed)
    assert pearson_abs(x, y) == pearson_abs(y, x)
    assert 0.0 <= pearson_abs(x, y) <= 1.0
    assert sign_disagreement(x, y) == sign_disagreement(y, x)
    assert 0.0 <= sign_disagreement(x, y) <= 1.0


@settings(max_examples=100, deadline=None)
@given(vectors, st.sampled_from([0.5, 2.0, 4.0, 256.0]))
def test_scale_invariance_under_exact_scaling(values, scale):
    # power-of-two scaling is exact, so equality is exact too
    x = np.array(values)
    y = np.array(values[::-1])
    assert pearson_abs(scale * x, y) == pearson_abs(x, y)
    assert sign_disagreement(scale * x, scale * y) == sign_disagreement(x, y)


# dyadic values whose scaled copies stay normal floats for any scale 2**±900
dyadic_pairs = st.lists(
    st.tuples(st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20)),
    min_size=1,
    max_size=32,
)


@settings(max_examples=100, deadline=None)
@given(dyadic_pairs, st.integers(-900, 900), st.integers(-900, 900))
def test_scale_invariance_across_the_float64_range(pairs, k, j):
    x, y = (np.ldexp(np.array(column, dtype=np.float64), -10) for column in zip(*pairs))
    assert pearson_abs(np.ldexp(x, k), np.ldexp(y, j)) == pearson_abs(x, y)


def _two_layer_vectors(*flat_pairs):
    """Build task vectors with tensors m.layers.0.w and m.layers.1.w."""
    out = []
    for i, (l0, l1) in enumerate(flat_pairs):
        out.append(
            TaskVector(
                label=f"t{i}",
                deltas={
                    "m.layers.0.w": np.asarray(l0, dtype=np.float32),
                    "m.layers.1.w": np.asarray(l1, dtype=np.float32),
                },
            )
        )
    return out, group_layers(out[0].deltas)


def _checkpoint_conflict(tvs, grouping):
    """merge()'s pass 1 on tuned = deltas over an all-zero base: for F32, ``x - 0.0`` is ``x``
    and ``-0.0 - 0.0`` is ``-0.0``, so it scores the same bytes as :func:`layer_conflict`."""
    base = {name: np.zeros_like(delta) for name, delta in tvs[0].deltas.items()}
    planned, conflict, _ = plan(base, [tv.deltas for tv in tvs], MergeConfig())
    assert planned == grouping
    return conflict


# each property runs on the whole-model scorer and on merge()'s per-layer pass 1
class _ConflictCases:
    def test_two_identical_tasks_score_half(self):
        tvs, grouping = _two_layer_vectors(
            ([1.0, -2.0], [3.0, 4.0]), ([1.0, -2.0], [3.0, 4.0])
        )
        report = self.score(tvs, grouping)
        np.testing.assert_allclose(report.conflict, [0.5, 0.5], atol=1e-15)

    def test_opposite_tasks_score_one(self):
        tvs, grouping = _two_layer_vectors(
            ([1.0, -2.0], [3.0, 4.0]), ([-1.0, 2.0], [-3.0, -4.0])
        )
        report = self.score(tvs, grouping)
        np.testing.assert_allclose(report.conflict, [1.0, 1.0], atol=1e-15)

    def test_single_task_scores_zero(self):
        tvs, grouping = _two_layer_vectors(([1.0, 2.0], [3.0, 4.0]))
        report = self.score(tvs, grouping)
        np.testing.assert_array_equal(report.conflict, [0.0, 0.0])
        assert report.task_pairs == ()
        assert report.rho_abs.shape == report.sign_disagreement.shape == (0, 2)

    def test_pair_metrics_within_range(self):
        rng = np.random.default_rng(7)
        tvs, grouping = _two_layer_vectors(
            *(tuple(rng.normal(size=5) for _ in range(2)) for _ in range(4))
        )
        report = self.score(tvs, grouping)
        assert len(report.task_pairs) == 6
        assert report.rho_abs.shape == report.sign_disagreement.shape == (6, 2)
        assert np.all(report.rho_abs >= 0) and np.all(report.rho_abs <= 1)
        assert np.all(report.sign_disagreement >= 0)
        assert np.all(report.sign_disagreement <= 1)
        assert np.all(report.conflict >= 0) and np.all(report.conflict <= 1)

    def test_task_order_invariance(self):
        rng = np.random.default_rng(11)
        pairs = [tuple(rng.normal(size=6) for _ in range(2)) for _ in range(3)]
        tvs, grouping = _two_layer_vectors(*pairs)
        reversed_tvs = list(reversed(tvs))
        np.testing.assert_allclose(
            self.score(tvs, grouping).conflict,
            self.score(reversed_tvs, grouping).conflict,
            atol=1e-15,
        )

    def test_fused_loop_matches_public_kernels_exactly(self):
        base, tuned = synthesize_checkpoints(17, 5, 3000, 4, [0.9, 0.7, 0.5, 0.3, 0.1])
        tvs = [compute_task_vector(base, t, f"t{i}") for i, t in enumerate(tuned)]
        grouping = group_layers(base)
        report = self.score(tvs, grouping)
        assert report.task_pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert report.rho_abs.shape == report.sign_disagreement.shape == (6, 5)
        for k, (i, j) in enumerate(report.task_pairs):
            for l, (_, members) in enumerate(grouping.groups):
                x = flatten_group(tvs[i].deltas, members)
                y = flatten_group(tvs[j].deltas, members)
                assert report.rho_abs[k, l] == pearson_abs(x, y)
                assert report.sign_disagreement[k, l] == sign_disagreement(x, y)


# lengths around numpy's split points: under, at and over 8 and 128, and one or many
# product nodes either side of _NODE_ENTRIES
SUM_LENGTHS = sorted({1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 16384, 16385, 20000, 65536,
                      99999, 100000, 400000, 1000003, 2000000,
                      _NODE_ENTRIES - 1, _NODE_ENTRIES, _NODE_ENTRIES + 1})


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_part_walk_from_zero_means_equals_numpy_sum_bit_for_bit(n):
    # x - 0.0 is x, so the part walk's sums are those of x and y themselves
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * rng.uniform(1e-3, 1e3, n)
    y = rng.standard_normal(n)
    (xy, xx), _ = _part_walk(_views([x, y]), n, [0.0, 0.0], [(0, 1), (0, 0)], ())
    (reversed_xy,), _ = _part_walk(_views([x[::-1], y[::-1]]), n, [0.0, 0.0], [(0, 1)], ())
    assert xy == float(np.sum(x * y))
    assert xx == float(np.sum(x * x))
    assert reversed_xy == float(np.sum(x[::-1] * y[::-1]))


def _center_reference(x):
    """Pass 1's centring as whole-layer formulas: the deviations from np.sum's float64 mean,
    np.sum of their squares, and zeros for a vector whose entries all equal the first."""
    dx = np.subtract(x, np.sum(x, dtype=np.float64) / len(x), dtype=np.float64)
    var = float(np.sum(dx * dx))
    if math.sqrt(var / len(x)) <= 2.0**-30 * abs(float(x[0])) and np.all(x == x[0]):
        return np.zeros_like(dx), 0.0
    return dx, var


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_centring_equals_the_whole_layer_formulas(n):
    # the sum of squares and a product with y from the part walk, and _constant, equal
    # the whole-layer formulas: a constant vector is exactly the one they zero, and a tiny
    # one, whose squares underflow to 0, is not constant
    rng = np.random.default_rng(n + 1)
    varied = (rng.standard_normal(n) * 0.02 + 0.001).astype(np.float32)
    near_constant = np.full(n, 0.1, np.float32)
    near_constant[rng.integers(n, size=3)] = np.nextafter(np.float32(0.1), np.float32(1))
    tiny = np.full(n, np.float32(2.0**-149))
    tiny[-1] = 0.0
    y = rng.standard_normal(n)
    for x in (varied, near_constant, np.full(n, np.float32(1 / 3)), tiny):
        expected_dx, expected_var = _center_reference(x)
        (var, product), _ = _part_walk(_views([x, y]), n, [_mean(x), 0.0], [(0, 0), (0, 1)], ())
        constant = _constant(var, n, x[0], lambda: x)
        assert constant == (not expected_dx.any())
        assert (0.0 if constant else var) == expected_var
        if not constant:
            assert product == float(np.sum(expected_dx * y))


@pytest.mark.parametrize("tasks", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [n for n in SUM_LENGTHS if n <= 400_000])
def test_part_walk_equals_numpy_sums_and_the_oracle_bit_for_bit(n, tasks):
    # one walk over the tree's parts gives every sum of squares and pair product that
    # np.sum(dx * dy) gives over the whole layer's deviations, and with them each pair's
    # sign disagreement, through either map
    rng = np.random.default_rng(n + tasks)
    xs = [(rng.standard_normal(n) * rng.uniform(1e-3, 1e3, n)).astype(np.float32) for _ in range(tasks)]
    for x in xs:
        x[rng.integers(n, size=n // 10)] = 0.0
    means = [np.sum(x, dtype=np.float64) / n for x in xs]
    signs = list(combinations(range(tasks), 2))
    products = [(t, t) for t in range(tasks)] + signs
    devs = [_center_reference(x)[0] for x in xs]
    expected = [float(np.sum(devs[i] * devs[j])) for i, j in products]
    # the oracle's counts, vectorised: every entry is finite
    ratios = [2.0 * np.count_nonzero(np.sign(xs[i]) * np.sign(xs[j]) < 0)
              / (np.count_nonzero(xs[i]) + np.count_nonzero(xs[j])) for i, j in signs]
    with ThreadPoolExecutor(2) as pool:
        for map_jobs in (map, pool.map):
            sums, dis = _part_walk(_views(xs), n, means, products, signs, map_jobs)
            assert [float(v) for v in sums] == expected
            assert dis == ratios


@pytest.mark.parametrize("tasks", [5, 8])
@pytest.mark.parametrize("n", [8, 128, 8192, 8193, 32767, 32768, 32769, 65535, _NODE_ENTRIES, 65537,
                               3 * _NODE_ENTRIES + 5])
def test_score_layers_equals_the_public_kernels_per_pair(n, tasks):
    # a constant task, one at about 1e-30 and an all-zero one among five or eight float32
    # updates: the constant's and the zero's |rho| is exactly 0, and every pair's scores equal
    # pearson_abs's and sign_disagreement's on the same updates. At eight tasks the walk cuts
    # its parts at 32,768 entries, where pearson_abs's two vectors cut at 65,536: both follow
    # numpy's own pairwise tree, so the sums agree bit for bit on either side of each cut
    rng = np.random.default_rng(n)
    xs = [rng.standard_normal(n).astype(np.float32), np.full(n, np.float32(0.1)),
          rng.standard_normal(n).astype(np.float32), (rng.standard_normal(n) * 1e-30).astype(np.float32),
          np.zeros(n, np.float32), (rng.standard_normal(n) * 1e3).astype(np.float32),
          rng.choice([-1.0, 0.0, 1.0], n).astype(np.float32), rng.uniform(0, 1, n).astype(np.float32)][:tasks]

    # each update built over a zero base, in a new array: scoring may overwrite what it is given
    updates = [partial(update_range, range_reader({"x": x}, ["x"]), ["x"], [0, n]) for x in xs]
    importance = float(sum(np.sum(np.abs(x), dtype=np.float64) / n for x in xs)) / len(xs)
    zeros = lambda start, stop: np.zeros(stop - start, np.float32)
    with ThreadPoolExecutor(2) as pool:
        for map_jobs in (map, pool.map):
            report = score_layers(["l"], len(xs), [Layer(("x",), [0, n], map_jobs, zeros, updates)])
            for k, (i, j) in enumerate(report.task_pairs):
                assert report.rho_abs[k, 0] == pearson_abs(xs[i], xs[j])
                assert report.sign_disagreement[k, 0] == sign_disagreement(xs[i], xs[j])
                if {i, j} & {1, 4}:
                    assert report.rho_abs[k, 0] == 0.0
            assert report.importance[0] == importance


def test_score_layers_takes_each_layer_as_a_one_shot_iterator():
    # each layer is a Layer (its members, their offsets, map_jobs, a reader of the base's
    # entries over a range of its flat, a function per task building its update over a range
    # from them). Updates built from the checkpoints by the range builder, through a thread
    # pool's map running tasks and parts side by side, score as the task vectors' updates
    # through the builtin map do
    base, tuned = synthesize_checkpoints(5, 3, 1000, 4, [0.9, 0.5, 0.1])
    tvs = [compute_task_vector(base, t, f"t{i}") for i, t in enumerate(tuned)]
    grouping = group_layers(base)

    def layers(map_jobs):
        for _, members in grouping.groups:
            offsets = member_offsets(tensor_shapes(base), members)
            updates = [partial(update_range, range_reader(t, members), members, offsets) for t in tuned]
            yield Layer(members, offsets, map_jobs, flat_reader(base, members, offsets), updates)

    fresh = layer_conflict(tvs, grouping)
    with ThreadPoolExecutor(3) as pool:
        in_place = score_layers(grouping.layer_ids, len(tvs), layers(pool.map))
    for field in ("conflict", "importance", "rho_abs", "sign_disagreement"):
        assert getattr(in_place, field).tobytes() == getattr(fresh, field).tobytes()


class TestLayerConflict(_ConflictCases):
    score = staticmethod(layer_conflict)

    def test_name_set_mismatch_rejected(self):
        tvs, grouping = _two_layer_vectors(([1.0], [2.0]))
        bad = TaskVector(label="bad", deltas={"other": np.ones(1, np.float32)})
        with pytest.raises(ValidationError, match="name set"):
            layer_conflict([bad], grouping)

    @pytest.mark.parametrize("order", [1, -1])
    def test_shape_mismatch_rejected_in_either_order(self, order):
        tvs = [TaskVector(label=f"t{i}", deltas={"m.layers.0.w": np.ones(k, np.float32)})
               for i, k in enumerate((2, 3))][::order]
        with pytest.raises(ValidationError, match=f"task vector {tvs[1].label!r} incompatible at 'm.layers.0.w'"):
            layer_conflict(tvs, group_layers(tvs[0].deltas))

    def test_float64_task_vectors_score_as_stored_at_32_bit(self):
        rng = np.random.default_rng(13)
        shapes = {"m.layers.0.w": (9,), "m.layers.1.w": (4, 2)}
        wide = [TaskVector(f"t{i}", {name: rng.normal(size=shape) for name, shape in shapes.items()})
                for i in range(3)]
        narrow = [TaskVector(tv.label, {name: d.astype(np.float32) for name, d in tv.deltas.items()})
                  for tv in wide]
        report, expected = layer_conflict(wide, group_layers(shapes)), layer_conflict(narrow, group_layers(shapes))
        for field in ("conflict", "importance", "rho_abs", "sign_disagreement"):
            assert getattr(report, field).tobytes() == getattr(expected, field).tobytes()

    def test_float64_update_beyond_float32_range_rejected(self):
        tvs, grouping = _two_layer_vectors(([1.0], [2.0]), ([3.0], [4.0]))
        tvs[1].deltas["m.layers.1.w"] = np.array([1e39])
        with pytest.raises(ValidationError, match=r"update of tensor 'm\.layers\.1\.w' overflows 32-bit precision$"):
            layer_conflict(tvs, grouping)

    def test_no_task_vectors_rejected(self):
        _, grouping = _two_layer_vectors(([1.0], [2.0]))
        with pytest.raises(ValidationError, match="at least one task vector"):
            layer_conflict([], grouping)


class TestCheckpointConflict(_ConflictCases):
    score = staticmethod(_checkpoint_conflict)


class _ImportanceCases:
    def test_all_zero_vectors(self):
        tvs, grouping = _two_layer_vectors(([0.0, 0.0], [0.0]))
        np.testing.assert_array_equal(self.score(tvs, grouping).importance, [0.0, 0.0])

    def test_single_task_mean_abs(self):
        tvs, grouping = _two_layer_vectors(([1.0, -1.0, 2.0, 0.0], [3.0]))
        m = self.score(tvs, grouping).importance
        assert m[0] == pytest.approx(1.0, abs=1e-15)
        assert m[1] == pytest.approx(3.0, abs=1e-15)

    def test_homogeneous_in_scale(self):
        rng = np.random.default_rng(3)
        pairs = [tuple(rng.normal(size=8) for _ in range(2)) for _ in range(3)]
        tvs, grouping = _two_layer_vectors(*pairs)
        scaled = [
            TaskVector(label=tv.label, deltas={k: 4.0 * v for k, v in tv.deltas.items()})
            for tv in tvs
        ]
        np.testing.assert_allclose(
            self.score(scaled, grouping).importance,
            4.0 * self.score(tvs, grouping).importance,
            rtol=1e-15,
        )

    def test_averaged_over_tasks(self):
        tvs, grouping = _two_layer_vectors(([2.0], [0.0]), ([4.0], [0.0]))
        importance = self.score(tvs, grouping).importance
        np.testing.assert_allclose(importance, [3.0, 0.0], atol=1e-15)


class TestLayerImportance(_ImportanceCases):
    score = staticmethod(layer_conflict)


class TestCheckpointImportance(_ImportanceCases):
    score = staticmethod(_checkpoint_conflict)
