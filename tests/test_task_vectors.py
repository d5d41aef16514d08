from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import MergeConfig, ValidationError, merge
from malsmerge.grouping import member_offsets
from malsmerge.task_vectors import (compute_task_vector, range_reader, stored_sum, update_range,
                                    validate_compatibility)


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


def _sum_64(x, scale, y):
    """The 64-bit route: add at 64-bit, round once to 32-bit."""
    return (x.astype(np.float64) + scale * y.astype(np.float64)).astype(np.float32)


_F32 = np.finfo(np.float32)
# subnormals, the normal boundary, and the neighbours of ±F32 max; 2**102 is under half
# an ulp of F32 max, so F32 max + 2**102 still rounds to F32 max
_EDGES = np.array(
    [0.0, _F32.smallest_subnormal, 2 * _F32.smallest_subnormal, _F32.tiny - _F32.smallest_subnormal,
     _F32.tiny, np.nextafter(_F32.tiny, np.float32(1)), 1.0, np.nextafter(np.float32(1), np.float32(2)),
     2.0**102, _F32.max, np.nextafter(_F32.max, np.float32(0)), _F32.max / 2],
    dtype=np.float32,
)


# scale -1 is the update ``tuned - base``; 1 and 0.7 are merged tensors at those lambdas
@pytest.mark.parametrize("scale", [-1, 1, 0.7])
def test_float32_stored_sum_equals_the_64_bit_route_bytewise(scale):
    edges = np.concatenate([_EDGES, -_EDGES])
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**32, size=(2, 200_000), dtype=np.uint64).astype(np.uint32)
    random = bits.view(np.float32)
    random = random[:, np.isfinite(random).all(axis=0)]
    with np.errstate(over="ignore"):  # an infinite product is filtered out below
        near = random[0] * np.float32(1 + 2.0**-20)  # cancellation: a few ulps apart
    x = np.concatenate([np.tile(edges, edges.size), random[1], near, random[0]])
    y = np.concatenate([np.repeat(edges, edges.size), random[0], -scale * random[0], -scale * near])
    with np.errstate(over="ignore"):
        fits = np.isfinite(_sum_64(x, scale, y))
    assert fits.sum() > 200_000 and not fits.all()  # overflowing pairs are left to the next test
    x, y = x[fits], y[fits]
    stored = stored_sum("w", x, scale, y)
    assert stored.dtype == np.float32 and stored.tobytes() == _sum_64(x, scale, y).tobytes()
    # stored into ``y`` itself, as a merged layer is composed into its update's buffer
    assert stored_sum("w", x, scale, y, out=y) is y and y.tobytes() == stored.tobytes()


@pytest.mark.parametrize(
    "x, scale, y",
    [(_F32.max, -1, -_F32.max), (_F32.max, -1, -(2.0**103)),
     (-np.nextafter(_F32.max, np.float32(0)), -1, _F32.max),
     (_F32.max, 1, _F32.max), (_F32.max, 1, 2.0**103), (-_F32.max, 1, -_F32.max)],
    ids=["max-minus-min", "half-ulp-over-max", "min-minus-max",
         "max-plus-max", "max-plus-half-ulp", "min-plus-min"],
)
def test_float32_delta_overflow_names_the_tensor(x, scale, y):
    x, y = np.array([0, x], np.float32), np.array([0, y], np.float32)
    what = "update of tensor 'w'" if scale < 0 else "merged tensor 'w'"
    with pytest.raises(ValidationError, match=f"^{what} overflows 32-bit precision$"):
        stored_sum(what, x, scale, y)


@pytest.mark.parametrize("scale", [-1, 1])
def test_other_dtypes_add_at_64_bits(scale):
    stored = stored_sum("w", np.array([1 + 1e-9]), scale, np.array([-scale * 1.0]))
    assert stored.dtype == np.float32 and stored[0] == np.float32((1 + 1e-9) - 1.0) != 0


_SHAPES = {"b": (5,), "a": (3, 4), "c": (0, 2)}
_MEMBERS = ["a", "c", "b"]  # three members, one of them empty, not in the map's order
_OFFSETS = member_offsets(_SHAPES, _MEMBERS)


def _ranges():
    return [(a, b) for a in range(_OFFSETS[-1] + 1) for b in range(a, _OFFSETS[-1] + 1)]


@pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_update_range_over_every_range_equals_the_member_deltas_concatenated(dtype, given_out):
    rng = np.random.default_rng(9)

    def checkpoint():
        return {name: rng.normal(size=shape).astype(dtype) for name, shape in _SHAPES.items()}

    base, tuned = checkpoint(), [checkpoint(), checkpoint()]
    flat_base = np.concatenate([base[name].ravel() for name in _MEMBERS])
    for t in tuned:
        expected = np.concatenate([np.ravel(_sum_64(t[n], -1, base[n])) for n in _MEMBERS])
        read = range_reader(t, _MEMBERS)
        for a, b in _ranges():
            out = np.full(b - a, np.nan, np.float32) if given_out else None
            update = update_range(read, _MEMBERS, _OFFSETS, a, flat_base[a:b], out=out)
            assert update.dtype == np.float32 and update.tobytes() == expected[a:b].tobytes(), (a, b)
            assert update is out if given_out else update.base is None  # a new array


def test_update_range_reads_only_the_member_pieces_in_its_range():
    # each member piece that the range covers is read once, over just those entries; an
    # empty member, and any member outside the range, is not read
    tensors = {name: np.ones(shape, np.float32) for name, shape in _SHAPES.items()}
    reader = range_reader(tensors, _MEMBERS)
    for a, b in _ranges():
        reads = []

        def read(name, start, stop, out=None):
            reads.append((name, start, stop))
            return reader(name, start, stop, out)

        update_range(read, _MEMBERS, _OFFSETS, a, np.zeros(b - a, np.float32))
        pieces = [(name, max(a, at) - at, min(b, end) - at)
                  for name, at, end in zip(_MEMBERS, _OFFSETS, _OFFSETS[1:]) if max(a, at) < min(b, end)]
        assert reads == pieces, (a, b)


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
