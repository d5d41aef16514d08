from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import (
    AllocationConfig,
    ConflictReport,
    ValidationError,
    allocate,
    allocation_scores,
    initial_sparsity,
    min_max_normalize,
    project_to_budget,
    softmax_weights,
)
from oracles import min_max_oracle, project_to_budget_oracle


def _report(c, m):
    c = np.asarray(c, dtype=np.float64)
    return ConflictReport(
        layer_ids=tuple(f"layer.{i}" for i in range(len(c))),
        conflict=c,
        importance=np.asarray(m, dtype=np.float64),
        task_pairs=(),
        rho_abs=np.zeros((0, len(c))),
        sign_disagreement=np.zeros((0, len(c))),
    )


class TestMinMaxNormalize:
    def test_endpoints(self):
        np.testing.assert_array_equal(min_max_normalize([1.0, 2.0, 3.0]), [0.0, 0.5, 1.0])

    def test_degenerate_all_equal(self):
        np.testing.assert_array_equal(min_max_normalize([7.0, 7.0, 7.0]), [0.0, 0.0, 0.0])

    def test_oracle_value(self):
        np.testing.assert_allclose(
            min_max_normalize([-2.0, 0.0, 6.0]), min_max_oracle([-2.0, 0.0, 6.0]), atol=1e-15
        )
        np.testing.assert_array_equal(min_max_normalize([-2.0, 0.0, 6.0]), [0.0, 0.25, 1.0])

    def test_span_beyond_float64_range(self):
        np.testing.assert_array_equal(min_max_normalize([0.0, 1e308, -1e308]), [0.5, 1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            min_max_normalize([])


class TestAllocationScores:
    def test_zero_weights(self):
        np.testing.assert_array_equal(allocation_scores([1.0, 0.5], [0.2, 0.3], 0.0, 0.0), [0.0, 0.0])

    def test_direct_substitution(self):
        np.testing.assert_array_equal(allocation_scores([1.0, 0.0], [0.0, 1.0], 1.0, 1.0), [1.0, -1.0])

    def test_oracle_value(self):
        np.testing.assert_allclose(allocation_scores([0.5], [0.2], 2.0, 1.0), [0.8], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            allocation_scores([1.0], [1.0, 2.0], 1.0, 1.0)


class TestSoftmaxWeights:
    def test_uniform_for_equal_scores(self):
        np.testing.assert_allclose(softmax_weights([3.0, 3.0, 3.0, 3.0]), np.full(4, 0.25), atol=1e-15)

    def test_log_two_closed_form(self):
        np.testing.assert_allclose(
            softmax_weights([math.log(2.0), 0.0]), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )

    def test_shift_invariance(self):
        r = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(softmax_weights(r + 17.5), softmax_weights(r), atol=1e-12)

    def test_positive_and_normalized(self):
        w = softmax_weights([-50.0, 0.0, 50.0])
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_shift_overflow_gives_zero_weight_without_warning(self):
        # r - max(r) overflows to -inf for the two lower scores; exp(-inf) = 0
        np.testing.assert_array_equal(softmax_weights([1.5e308, -1.5e308, 0.0]), [1.0, 0.0, 0.0])
        w = allocate(_report([1.0, 0.0], [0.0, 1.0]), AllocationConfig(alpha=1.5e308, beta=1.5e308)).w
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_weights([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmax_weights([np.inf, 0.0])


class TestInitialSparsity:
    def test_midpoint(self):
        np.testing.assert_allclose(initial_sparsity([0.5, 0.5], 0.1, 0.9), [0.5, 0.5], atol=1e-15)

    def test_single_layer_hits_upper_bound(self):
        np.testing.assert_allclose(initial_sparsity([1.0], 0.2, 0.8), [0.8], atol=1e-15)

    def test_oracle_value(self):
        np.testing.assert_allclose(
            initial_sparsity([0.75, 0.25], 0.0, 0.4), [0.3, 0.1], atol=1e-15
        )

    def test_bound_violation(self):
        with pytest.raises(ValidationError, match="exceeds"):
            initial_sparsity([0.5], 0.9, 0.1)

    @pytest.mark.parametrize("w", [[-0.1, 1.1], [1.5]], ids=["negative", "above-one"])
    def test_weights_outside_unit_interval_rejected(self, w):
        with pytest.raises(ValidationError, match=r"weights must lie in \[0, 1\]"):
            initial_sparsity(w, 0.1, 0.9)


class TestProjectToBudget:
    def test_fixed_point_in_one_iteration(self):
        s, iterations, converged = project_to_budget(
            np.array([0.4, 0.6]), 0.5, 0.1, 0.9, 1e-6, 100
        )
        np.testing.assert_array_equal(s, [0.4, 0.6])
        assert iterations == 1 and converged

    def test_pure_affine_shift(self):
        s, _, converged = project_to_budget(np.array([0.1, 0.1]), 0.5, 0.1, 0.9, 1e-6, 100)
        np.testing.assert_allclose(s, [0.5, 0.5], atol=1e-9)
        assert converged

    def test_clip_then_redistribute_trace(self):
        # traced by hand: shift by 0.3 clips layer 1 at 0.9, leaving mean
        # 0.675; the residual 0.125 scaled by L/|F| = 2 lifts layer 2 to 0.7
        s, iterations, converged = project_to_budget(
            np.array([0.85, 0.15]), 0.8, 0.1, 0.9, 1e-6, 100
        )
        np.testing.assert_allclose(s, [0.9, 0.7], atol=1e-12)
        assert converged
        assert iterations == 2

    @pytest.mark.parametrize("max_iterations", [1, 2])
    def test_the_last_correction_is_checked(self, max_iterations):
        # one shift by 0.05 lands the mean on the target up to rounding (5.6e-17 off): the
        # levels it returns have converged, in the one iteration that was allowed
        s, iterations, converged = project_to_budget(
            np.array([0.2, 0.4, 0.6, 0.6]), 0.5, 0.1, 0.9, 1e-6, max_iterations
        )
        np.testing.assert_allclose(s, [0.25, 0.45, 0.65, 0.65], atol=1e-12)
        assert converged and iterations == max_iterations

    def test_a_last_correction_off_the_target_is_not_converged(self):
        # shifting by 0.523 clips the first level at 0.9, and spreading the residual over
        # the other two clips the second: one iteration leaves the mean 0.0027 short
        s, iterations, converged = project_to_budget(
            np.array([0.645, 0.251, 0.204]), 0.89, 0.1, 0.9, 1e-6, 1
        )
        assert abs(float(np.mean(s)) - 0.89) > 1e-3
        assert iterations == 1 and not converged

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            project_to_budget(np.array([0.5]), 0.95, 0.1, 0.9)

    def test_out_of_box_input_rejected(self):
        with pytest.raises(ValidationError, match="within"):
            project_to_budget(np.array([0.05]), 0.5, 0.1, 0.9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            project_to_budget(np.array([np.nan]), 0.5, 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            project_to_budget(np.array([]), 0.5, 0.0, 1.0)


class TestAllocate:
    def test_no_layers_rejected(self):
        with pytest.raises(ValidationError, match="at least one layer"):
            allocate(_report([], []), AllocationConfig())

    def test_zero_weights_yield_target_everywhere(self):
        report = _report([0.9, 0.2, 0.4], [0.5, 0.1, 0.3])
        config = AllocationConfig(alpha=0.0, beta=0.0, s_target=0.45)
        result = allocate(report, config)
        np.testing.assert_allclose(result.s_final, np.full(3, 0.45), atol=1e-9)
        assert result.converged

    def test_collapsed_bounds_force_target(self):
        report = _report([0.9, 0.2], [0.5, 0.1])
        config = AllocationConfig(s_min=0.5, s_max=0.5, s_target=0.5)
        result = allocate(report, config)
        np.testing.assert_array_equal(result.s_final, [0.5, 0.5])
        assert result.converged and result.iterations == 1

    def test_composed_chain_matches_component_oracle_trace(self):
        # chained by hand through normalize -> scores -> softmax -> linear map
        report = _report([0.9, 0.1, 0.5], [0.1, 0.1, 0.1])
        config = AllocationConfig(alpha=1.0, beta=0.0, s_min=0.1, s_max=0.9, s_target=0.5)
        result = allocate(report, config)
        np.testing.assert_array_equal(result.c_hat, [1.0, 0.0, 0.5])
        np.testing.assert_array_equal(result.m_hat, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(result.r, [1.0, 0.0, 0.5])
        e = np.exp(np.array([0.0, -1.0, -0.5]))
        expected_w = e / e.sum()
        np.testing.assert_allclose(result.w, expected_w, atol=1e-15)
        np.testing.assert_allclose(result.s_initial, 0.1 + expected_w * 0.8, atol=1e-15)
        shift = 0.5 - float(np.mean(result.s_initial))
        np.testing.assert_allclose(result.s_final, result.s_initial + shift, atol=1e-12)
        assert result.s_final[0] > result.s_final[2] > result.s_final[1]
        assert result.converged

    def test_invariants_hold(self):
        rng = np.random.default_rng(5)
        report = _report(rng.random(16), rng.random(16))
        result = allocate(report, AllocationConfig())
        assert np.sum(result.w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.w > 0)
        assert np.all(result.s_final >= 0.1) and np.all(result.s_final <= 0.9)
        assert abs(result.mean_sparsity - 0.5) < 1e-6

    def test_monotone_ranking_with_beta_zero(self):
        rng = np.random.default_rng(9)
        c = rng.permutation(np.linspace(0.05, 0.95, 12))
        report = _report(c, np.full(12, 0.2))
        result = allocate(report, AllocationConfig(alpha=1.0, beta=0.0))
        interior = (result.s_final > 0.1 + 1e-12) & (result.s_final < 0.9 - 1e-12)
        order_c = np.argsort(c[interior])
        order_s = np.argsort(result.s_final[interior])
        np.testing.assert_array_equal(order_c, order_s)

    def test_shift_invariance_through_the_chain(self):
        rng = np.random.default_rng(21)
        r = rng.normal(size=10)
        w_base, w_shifted = softmax_weights(r), softmax_weights(r + 3.25)
        np.testing.assert_allclose(w_shifted, w_base, atol=1e-12)
        s0_base = initial_sparsity(w_base, 0.1, 0.9)
        s0_shifted = initial_sparsity(w_shifted, 0.1, 0.9)
        np.testing.assert_allclose(s0_shifted, s0_base, atol=1e-12)
        final_base, _, _ = project_to_budget(s0_base, 0.5, 0.1, 0.9)
        final_shifted, _, _ = project_to_budget(s0_shifted, 0.5, 0.1, 0.9)
        np.testing.assert_allclose(final_shifted, final_base, atol=1e-12)

    def test_config_invariant_enforced(self):
        with pytest.raises(ValidationError, match="bounds"):
            AllocationConfig(s_min=0.6, s_target=0.5, s_max=0.9)
        with pytest.raises(ValidationError, match="epsilon"):
            AllocationConfig(epsilon=0.0)
        with pytest.raises(ValidationError, match="epsilon must be at least 1e-15"):
            AllocationConfig(epsilon=1e-16)
        AllocationConfig(epsilon=1e-15)
        with pytest.raises(ValidationError, match="positive integer"):
            AllocationConfig(max_iterations=0)
        with pytest.raises(ValidationError, match="non-negative"):
            AllocationConfig(alpha=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "epsilon"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_config_rejected_by_name(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            AllocationConfig(**{field: value})


@st.composite
def projection_instances(draw):
    n = draw(st.integers(min_value=2, max_value=64))
    s_min = draw(st.floats(min_value=0.0, max_value=0.4))
    s_max = draw(st.floats(min_value=0.5, max_value=1.0))
    target = draw(st.floats(min_value=s_min, max_value=s_max))
    values = draw(
        st.lists(st.floats(min_value=s_min, max_value=s_max), min_size=n, max_size=n)
    )
    return np.array(values), target, s_min, s_max


@settings(max_examples=200, deadline=None)
@given(projection_instances())
def test_projection_budget_and_box_property(instance):
    s0, target, s_min, s_max = instance
    s, iterations, converged = project_to_budget(s0, target, s_min, s_max, 1e-6, 100)
    assert np.all(s >= s_min) and np.all(s <= s_max)
    assert iterations <= 100
    if converged:
        assert abs(float(np.mean(s)) - target) < 1e-6
    assert converged


@st.composite
def wide_projection_instances(draw):
    n = draw(st.integers(min_value=1, max_value=2000))
    s_min = draw(st.floats(min_value=0.0, max_value=0.4))
    s_max = draw(st.floats(min_value=0.5, max_value=1.0))
    target = draw(st.floats(min_value=s_min, max_value=s_max))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    skew = draw(st.sampled_from([0.1, 1.0, 10.0]))  # levels bunched high, spread, bunched low
    s0 = np.clip(s_min + (s_max - s_min) * rng.random(n) ** skew, s_min, s_max)
    return s0, target, s_min, s_max


@settings(max_examples=100, deadline=None)
@given(wide_projection_instances())
def test_projection_converges_at_the_epsilon_floor(instance):
    s0, target, s_min, s_max = instance
    s, _, converged = project_to_budget(s0, target, s_min, s_max, 1e-15, 100)
    assert converged
    assert abs(float(np.mean(s)) - target) < 1e-15


@st.composite
def budgeted_projection_instances(draw):
    s0, target, s_min, s_max = draw(st.one_of(projection_instances(), wide_projection_instances()))
    epsilon = draw(st.sampled_from([1e-3, AllocationConfig.epsilon, 1e-9]))
    return s0, target, s_min, s_max, epsilon


def _shift_rounding(iterations: int) -> float:
    """How far the shifts of two free layers can drift apart in float64: each
    iteration shifts a free layer twice, each sum (below 2) rounds by at most
    2**-53, and reading the shift back as s - s0 rounds once more."""
    return 2 * (2 * iterations + 1) * 2**-53


@settings(max_examples=200, deadline=None)
@given(budgeted_projection_instances())
def test_projection_is_one_clipped_shift(instance):
    s0, target, s_min, s_max, epsilon = instance
    s, iterations, converged = project_to_budget(s0, target, s_min, s_max, epsilon)
    assert converged
    shift = s - s0
    inside = (s > s_min) & (s < s_max)
    # s = clip(s0 + tau) for every tau with lowest <= tau <= highest
    lowest = max([*shift[inside], *(s_max - s0[s == s_max])], default=-math.inf)
    highest = min([*shift[inside], *(s_min - s0[s == s_min])], default=math.inf)
    assert lowest <= highest + _shift_rounding(iterations)


@settings(max_examples=200, deadline=None)
@given(budgeted_projection_instances())
def test_projection_is_within_the_derived_bound_of_the_oracle(instance):
    s0, target, s_min, s_max, epsilon = instance
    s, iterations, converged = project_to_budget(s0, target, s_min, s_max, epsilon)
    exact = np.array(project_to_budget_oracle(s0, target, s_min, s_max))
    n = len(s0)
    assert converged
    assert np.all(exact >= s_min) and np.all(exact <= s_max)
    assert abs(math.fsum(exact) / n - target) <= 8 * 2**-52
    # Both are clip(s0 + shift), and clip is 1-Lipschitz in the shift, so no layer is
    # further from the oracle than the shifts are apart. Between the two shifts every
    # layer strictly inside the box in both results is unclipped, so the mean rises with
    # slope at least k / n there, and the two means differ by less than epsilon plus
    # rounding: n values in [0, 1] sum with an error below n * 2**-53.
    k = int(np.count_nonzero((s > s_min) & (s < s_max) & (exact > s_min) & (exact < s_max)))
    rounding = _shift_rounding(iterations)
    if k == 0:
        return
    mean_gap = epsilon + n * 2**-53 + 8 * 2**-52 + rounding
    assert np.max(np.abs(s - exact)) <= n * mean_gap / k + 2 * rounding
