from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import (
    ValidationError,
    flatten_group,
    group_layers,
    pearson_abs,
    sign_disagreement,
    synthesize_checkpoints,
)
from malsmerge.conflict import checkpoint_conflict, layer_conflict
from malsmerge.task_vectors import TaskVector, compute_task_vector
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

    def test_zero_variance_returns_zero(self):
        assert pearson_abs(np.array([2.0, 2.0]), np.array([1.0, 3.0])) == 0.0
        assert pearson_abs(np.array([1.0]), np.array([5.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pearson_abs(np.ones(2), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pearson_abs(np.array([]), np.array([]))


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
    return checkpoint_conflict(base, [tv.deltas for tv in tvs], grouping)


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


class TestLayerConflict(_ConflictCases):
    score = staticmethod(layer_conflict)

    def test_name_set_mismatch_rejected(self):
        tvs, grouping = _two_layer_vectors(([1.0], [2.0]))
        bad = TaskVector(label="bad", deltas={"other": np.ones(1, np.float32)})
        with pytest.raises(ValidationError, match="name set"):
            layer_conflict([bad], grouping)


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
