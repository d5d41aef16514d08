from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import MergeConfig, ValidationError, merge
from malsmerge.task_vectors import compute_task_vector, validate_compatibility


def _map(**kwargs):
    return {k: np.asarray(v, dtype=np.float32) for k, v in kwargs.items()}


def test_self_difference_is_zero():
    base = _map(w=[1.0, 2.0], b=[[3.0]])
    tv = compute_task_vector(base, base, "same")
    assert tv.label == "same"
    for arr in tv.deltas.values():
        assert not arr.any()


def test_zero_base_yields_tuned():
    base = _map(w=[0.0, 0.0, 0.0])
    tuned = _map(w=[1.5, -2.0, 0.25])
    tv = compute_task_vector(base, tuned, "t")
    np.testing.assert_array_equal(tv.deltas["w"], tuned["w"])


def test_shape_mismatch_names_offender():
    base = _map(w=[1.0, 2.0])
    tuned = {"w": np.zeros((2, 2), dtype=np.float32)}
    with pytest.raises(ValidationError, match="'w'"):
        compute_task_vector(base, tuned, "t")


def test_key_mismatch_reports_both_sides():
    base = _map(w=[1.0], extra=[2.0])
    tuned = _map(w=[1.0], other=[3.0])
    with pytest.raises(ValidationError) as err:
        compute_task_vector(base, tuned, "t")
    assert "extra" in str(err.value) and "other" in str(err.value)


def test_update_overflowing_32_bits_names_tensor():
    base = _map(w=[1.0], b=[2.0, -3e38])
    tuned = _map(w=[1.0], b=[2.0, 3e38])
    with pytest.raises(ValidationError, match="'b' overflows 32-bit"):
        compute_task_vector(base, tuned, "t")


def test_deltas_stored_at_32_bit():
    base = _map(w=[1.0])
    tuned = _map(w=[1.5])
    assert compute_task_vector(base, tuned, "t").deltas["w"].dtype == np.float32


def test_compatibility_all_pass():
    base = _map(w=[1.0, 2.0], h=[3.0])
    report = validate_compatibility(base, [base, base, base])
    assert report.all_ok
    assert len(report.entries) == 3


def test_compatibility_missing_key_cited():
    base = _map(w=[1.0], **{"head.w": [2.0]})
    bad = _map(w=[1.0])
    report = validate_compatibility(base, [base, bad], labels=["ok", "bad"])
    assert not report.all_ok
    ok, failed = report.entries
    assert ok.ok and failed.first_mismatch == "head.w"


def test_compatibility_empty_list_rejected():
    with pytest.raises(ValidationError, match="at least one"):
        validate_compatibility(_map(w=[1.0]), [])


@pytest.mark.parametrize(
    "check",
    [
        lambda base, tuned, labels: merge(base, tuned, MergeConfig(), labels=labels),
        lambda base, tuned, labels: validate_compatibility(base, tuned, labels=labels),
    ],
    ids=["merge", "validate_compatibility"],
)
@pytest.mark.parametrize("n_labels", [1, 3])
def test_label_count_mismatch_rejected(check, n_labels):
    base = _map(w=[1.0, 2.0])
    labels = [f"t{i}" for i in range(n_labels)]
    with pytest.raises(ValidationError, match=f"^{n_labels} labels provided for 2 checkpoints$"):
        check(base, [base, base], labels)


# values on a dyadic grid: float32 addition and subtraction are exact there,
# which is what makes the recovery assertions legitimately bit-exact
grid_f32 = st.integers(min_value=-4096, max_value=4096).map(
    lambda k: np.float32(k) / np.float32(1024.0)
)


@st.composite
def base_and_tau(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    base = np.array(draw(st.lists(grid_f32, min_size=size, max_size=size)), dtype=np.float32)
    tau = np.array(draw(st.lists(grid_f32, min_size=size, max_size=size)), dtype=np.float32)
    return base, tau


@settings(max_examples=150, deadline=None)
@given(base_and_tau())
def test_recovers_tau_exactly(pair):
    base_values, tau = pair
    base = {"w": base_values}
    tuned = {"w": (base_values.astype(np.float64) + tau).astype(np.float32)}
    recovered = compute_task_vector(base, tuned, "t").deltas["w"]
    np.testing.assert_array_equal(recovered, tau)


@settings(max_examples=150, deadline=None)
@given(base_and_tau())
def test_adding_delta_back_recovers_tuned(pair):
    base_values, tau = pair
    base = {"w": base_values}
    tuned = {"w": (base_values.astype(np.float64) + tau).astype(np.float32)}
    deltas = compute_task_vector(base, tuned, "t").deltas
    np.testing.assert_array_equal(
        (base["w"].astype(np.float64) + deltas["w"]).astype(np.float32), tuned["w"]
    )
