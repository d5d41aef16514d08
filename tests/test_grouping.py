from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import ValidationError, group_layers, unflatten_group
from malsmerge.grouping import flatten_group, member_offsets
from malsmerge.grouping import _group_sort_key


def test_default_pattern_groups_layer_indices():
    names = ["m.layers.0.w", "m.layers.1.w", "embed.w"]
    grouping = group_layers(names)
    assert grouping.groups == (
        ("layer.0", ("m.layers.0.w",)),
        ("layer.1", ("m.layers.1.w",)),
        ("ungrouped", ("embed.w",)),
    )


def test_all_non_matching_pools_into_ungrouped():
    grouping = group_layers(["embed.w", "head.w"])
    assert grouping.groups == (("ungrouped", ("embed.w", "head.w")),)


def test_numeric_capture_sorts_numerically():
    grouping = group_layers(["a.3.w", "a.10.w"], pattern=r"a\.(\d+)\.")
    assert grouping.layer_ids == ["layer.3", "layer.10"]


@pytest.mark.parametrize("names", [["m.layers.3.w", "m.layers.03.w"], ["m.layers.03.w", "m.layers.3.w"]])
def test_equal_numbers_in_different_text_sort_by_the_text(names):
    assert group_layers(names).layer_ids == ["layer.03", "layer.3"]


def test_non_decimal_digit_capture_sorts_lexicographically():
    # "²".isdigit() holds, yet int("²") raises
    grouping = group_layers(["m.layers.².w", "m.layers.1.w"], pattern=r"layers\.(\w+)\.")
    assert grouping.layer_ids == ["layer.1", "layer.²"]


def test_capture_beyond_the_int_digit_limit_sorts_by_value():
    # int() refuses strings of more than 4,300 digits
    huge = "1" * 5000
    grouping = group_layers([f"m.layers.{huge}.w", "m.layers.2.w"])
    assert grouping.layer_ids == ["layer.2", f"layer.{huge}"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("0123456789٣٠۷१߀"), min_size=1, max_size=50),
                min_size=1, max_size=8))
def test_decimal_captures_sort_as_int_does(captures):
    # leading zeros and non-ASCII decimal digits included
    assert sorted(captures, key=_group_sort_key) == sorted(captures, key=lambda c: (int(c), c))


def test_non_numeric_captures_sort_lexicographically():
    grouping = group_layers(["m.b.w", "m.a.w"], pattern=r"m\.([a-z])\.")
    assert grouping.layer_ids == ["layer.a", "layer.b"]


def test_accepts_tensor_map_input():
    grouping = group_layers({"m.layers.2.w": np.zeros(1), "m.layers.0.w": np.zeros(1)})
    assert grouping.layer_ids == ["layer.0", "layer.2"]


def test_zero_capture_groups_rejected():
    with pytest.raises(ValidationError, match="capture group"):
        group_layers(["a"], pattern=r"a")


def test_multiple_capture_groups_rejected():
    with pytest.raises(ValidationError, match="capture group"):
        group_layers(["a"], pattern=r"(a)(b)")


def test_invalid_pattern_rejected():
    with pytest.raises(ValidationError, match="invalid"):
        group_layers(["a"], pattern=r"(unclosed")


def test_flatten_row_major():
    tensors = {"t": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)}
    np.testing.assert_array_equal(flatten_group(tensors, ["t"]), [1, 2, 3, 4])


def test_flatten_lexicographic_member_order():
    tensors = {
        "b": np.array([5.0, 6.0], dtype=np.float32),
        "a": np.array([1.0, 2.0], dtype=np.float32),
    }
    np.testing.assert_array_equal(flatten_group(tensors, ["b", "a"]), [1, 2, 5, 6])


def test_flatten_empty_member_list():
    assert flatten_group({"a": np.ones(2)}, []).shape == (0,)


def test_flatten_missing_name():
    with pytest.raises(ValidationError, match="missing"):
        flatten_group({"a": np.ones(2)}, ["a", "gone"])


def test_unflatten_reverses_flatten():
    tensors = {
        "b": np.arange(6, dtype=np.float32).reshape(2, 3),
        "a": np.array([9.0, 8.0], dtype=np.float32),
    }
    flat = flatten_group(tensors, ["a", "b"])
    shapes = {name: arr.shape for name, arr in tensors.items()}
    out = unflatten_group(flat, shapes, ["a", "b"])
    for name in tensors:
        np.testing.assert_array_equal(out[name], tensors[name])


def test_unflatten_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="holds 3 values, member shapes demand 2"):
        unflatten_group(np.zeros(3), {"a": (2,)}, ["a"])
    with pytest.raises(ValidationError, match="holds 1 values, member shapes demand 2"):
        unflatten_group(np.zeros(1), {"a": (2,)}, ["a"])


def test_member_offsets_lay_members_end_to_end_in_the_given_order():
    shapes = {"a": (3, 4), "b": (), "c": (0, 2), "d": (5,)}
    assert member_offsets(shapes, ["d", "a", "c", "b"]) == [0, 5, 17, 17, 18]
    assert member_offsets(shapes, []) == [0]


def test_unflatten_missing_member_rejected():
    with pytest.raises(ValidationError, match=r"names missing from shape map: \['b'\]"):
        unflatten_group(np.zeros(2, dtype=np.float32), {"a": (2,)}, ["a", "b"])


name_lists = st.lists(
    st.text(alphabet=st.sampled_from("abclayers.0123456789"), min_size=1, max_size=16),
    min_size=1,
    max_size=12,
    unique=True,
)


@settings(max_examples=100, deadline=None)
@given(name_lists)
def test_grouping_is_a_partition(names):
    grouping = group_layers(names)
    members = [name for _, group in grouping.groups for name in group]
    assert sorted(members) == sorted(names)
    assert len(members) == len(set(members))
    assert all(group for _, group in grouping.groups)


@settings(max_examples=50, deadline=None)
@given(st.permutations(["m.layers.1.a", "m.layers.1.b", "x", "m.layers.20.c", "m.layers.01.d"]))
def test_insertion_order_never_changes_output(names):
    tensors = {name: np.full(2, float(i)) for i, name in enumerate(sorted(names))}
    shuffled = {name: tensors[name] for name in names}
    grouping = group_layers(shuffled)
    assert grouping == group_layers(sorted(tensors))
    for _, group in grouping.groups:
        np.testing.assert_array_equal(
            flatten_group(shuffled, group), flatten_group(tensors, group)
        )
