from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
    sparsify_top_fraction,
)
from malsmerge.conflict import layer_conflict
from malsmerge.merging import compose_merged, simple_average
from malsmerge.task_vectors import TaskVector, compute_task_vector
from oracles import disjoint_merge_oracle, elect_signs_oracle, sparsify_oracle


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
    """:func:`_checkpoints` plus an empty tensor inside a layer group and a second ungrouped one."""
    base, tuned = _checkpoints(seed=seed, tasks=tasks)
    rng = np.random.default_rng(seed)
    for name, shape in (("m.layers.1.empty", (0, 4)), ("head.b", (2, 3))):
        base[name] = rng.normal(size=shape).astype(np.float32)
        for t in tuned:
            t[name] = (base[name] + rng.normal(size=shape)).astype(np.float32)
    return base, tuned


def _merged_delta(base, tuned, config):
    """The merged update ``merge`` scales by lambda and adds onto ``base``.

    Merging the ``tuned - base`` deltas onto an all-zero base at lambda 1
    scores, trims, elects and merges the same updates, and adds them to 0.
    """
    zero = {key: np.zeros_like(arr) for key, arr in base.items()}
    deltas = [compute_task_vector(base, t, f"t{i}").deltas for i, t in enumerate(tuned)]
    return merge(zero, deltas, replace(config, lam=1.0)).merged


class TestMerge:
    def test_collapsed_bounds_match_uniform_bitwise(self):
        base, tuned = _checkpoints()
        alloc = AllocationConfig(s_min=0.6, s_max=0.6, s_target=0.6)
        mals_out = merge(base, tuned, MergeConfig(method="mals", allocation=alloc))
        uniform_out = merge(
            base, tuned, MergeConfig(method="uniform_sparsity", allocation=alloc)
        )
        for key in base:
            assert mals_out.merged[key].tobytes() == uniform_out.merged[key].tobytes()

    def test_uniform_with_election_matches_ties_bitwise(self):
        base, tuned = _checkpoints(seed=1)
        alloc = AllocationConfig(s_target=0.5)
        uniform_out = merge(
            base, tuned, MergeConfig(method="uniform_sparsity", sign_election=True, allocation=alloc)
        )
        ties_out = merge(base, tuned, MergeConfig(method="ties", allocation=alloc))
        for key in base:
            assert uniform_out.merged[key].tobytes() == ties_out.merged[key].tobytes()

    def test_identity_merge_of_identical_checkpoints(self):
        base, tuned = _checkpoints(seed=2, tasks=1)
        copies = [tuned[0], tuned[0], tuned[0]]
        config = MergeConfig(
            method="mals",
            lam=1.0,
            sign_election=True,
            allocation=AllocationConfig(s_min=0.0, s_max=0.0, s_target=0.0),
        )
        out = merge(base, copies, config)
        for key in base:
            np.testing.assert_array_equal(out.merged[key], tuned[0][key])

    def test_simple_average_of_one_task_equals_compose(self):
        self._check_simple_average_equals_compose(tasks=1)

    def test_simple_average_of_three_tasks_equals_compose(self):
        self._check_simple_average_equals_compose(tasks=3)

    @staticmethod
    def _check_simple_average_equals_compose(tasks):
        base, tuned = _edge_checkpoints(seed=3, tasks=tasks)
        config = MergeConfig(method="simple_average", lam=0.7)
        out = merge(base, tuned, config)
        task_vectors = [compute_task_vector(base, t, f"t{i}") for i, t in enumerate(tuned)]
        tau = simple_average(task_vectors)
        expected = compose_merged(base, tau, 0.7)
        delta = _merged_delta(base, tuned, config)
        assert set(out.merged) == set(delta) == set(base)
        for key in base:
            assert delta[key].tobytes() == tau.deltas[key].tobytes()
            assert out.merged[key].shape == expected[key].shape
            assert out.merged[key].tobytes() == expected[key].tobytes()
        assert out.allocation is None and out.conflict is None

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("method", METHODS)
    def test_merged_is_base_plus_scaled_merged_delta(self, method, lam):
        base, tuned = _edge_checkpoints(seed=8)
        config = MergeConfig(method=method, lam=lam)
        out = merge(base, tuned, config)
        expected = compose_merged(base, TaskVector(method, _merged_delta(base, tuned, config)), lam)
        assert set(out.merged) == set(base)
        for key in base:
            assert out.merged[key].shape == expected[key].shape
            assert out.merged[key].tobytes() == expected[key].tobytes()

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
            else:
                merge(base, tuned, MergeConfig(method=method, lam=lam))

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_grouping_pattern_rejected_for_every_method(self, method):
        base, tuned = _checkpoints(seed=3)
        config = MergeConfig(method=method, grouping_pattern=r"layers\.\d+")
        with pytest.raises(ValidationError, match="exactly one capture group"):
            merge(base, tuned, config)

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
        got = merge(base, tuned, MergeConfig(method="ties")).conflict
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
            out = merge(base, tuned, MergeConfig(method=method))
            assert set(out.merged) == set(base)
            for key in base:
                assert out.merged[key].shape == base[key].shape
                assert out.merged[key].dtype == np.float32

    def test_sparsity_accounting(self):
        base, tuned = _checkpoints(seed=5)
        config = MergeConfig(method="uniform_sparsity")
        out = merge(base, tuned, config)
        delta = _merged_delta(base, tuned, config)
        grouping = group_layers(base)
        for level, (_, members) in zip(out.allocation.s_final, grouping.groups):
            n = sum(base[name].size for name in members)
            cap = len(tuned) * np.ceil((1.0 - level) * n)
            merged_nonzero = sum(np.count_nonzero(delta[name]) for name in members)
            assert merged_nonzero <= cap

    def test_election_consistency(self):
        base, tuned = _checkpoints(seed=6)
        config = MergeConfig(method="ties")
        out = merge(base, tuned, config)
        delta = _merged_delta(base, tuned, config)
        grouping = group_layers(base)
        # re-derive the elected signs with the brute-force trim oracle
        for level, (_, members) in zip(out.allocation.s_final, grouping.groups):
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
        out = merge(base, tuned, MergeConfig(method=method))
        assert out.merged["m.layers.1.w"].shape == (0, 3)
        assert out.conflict.conflict[1] == 0.0
        assert out.conflict.importance[1] == 0.0
        assert out.conflict.rho_abs.shape == out.conflict.sign_disagreement.shape == (3, 3)
        assert not out.conflict.rho_abs[:, 1].any()
        assert not out.conflict.sign_disagreement[:, 1].any()
        if method != "mals":
            # one trim level everywhere, so the empty group leaves the rest untouched
            def drop(m):
                return {k: v for k, v in m.items() if k != "m.layers.1.w"}

            without = merge(drop(base), [drop(t) for t in tuned], MergeConfig(method=method))
            for name, value in without.merged.items():
                np.testing.assert_array_equal(out.merged[name], value)

    def test_determinism_across_runs(self):
        base, tuned = _checkpoints(seed=8)
        config = MergeConfig(method="mals", sign_election=True)
        first = merge(base, tuned, config)
        second = merge(base, tuned, config)
        for key in base:
            assert first.merged[key].tobytes() == second.merged[key].tobytes()

    def test_end_to_end_matches_composed_oracle_pipeline(self):
        from oracles import min_max_oracle, pearson_abs_oracle, sign_disagreement_oracle
        from malsmerge import synthesize_checkpoints

        base, tuned = synthesize_checkpoints(64, 3, 400, 3, [0.9, 0.4, 0.05])
        alloc = AllocationConfig(alpha=1.0, beta=1.0, s_min=0.1, s_max=0.9, s_target=0.5)
        config = MergeConfig(method="mals", lam=1.3, sign_election=True, allocation=alloc)
        out = merge(base, tuned, config)

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
        np.testing.assert_allclose(out.conflict.conflict, c, atol=1e-12)
        np.testing.assert_allclose(out.conflict.importance, m, atol=1e-12)

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
        np.testing.assert_allclose(out.allocation.s_final, s, atol=1e-12)
        assert int(np.argmax(out.allocation.s_final)) == 0  # the designed high-conflict layer

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
            np.testing.assert_array_equal(out.merged[name], expected[name])


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
