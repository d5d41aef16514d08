from __future__ import annotations

import numpy as np
import pytest

from malsmerge import AllocationConfig, MergeConfig, ValidationError, config_metadata
from malsmerge.merging import config_fields


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: MergeConfig(sign_election="no"), "sign_election"),
        (lambda: MergeConfig(sign_election=np.True_), "sign_election"),
        (lambda: MergeConfig(grouping_pattern=None), "grouping_pattern"),
        (lambda: MergeConfig(method=3), "method"),
        (lambda: MergeConfig(lam=True), "lambda"),
        (lambda: MergeConfig(lam="1.0"), "lambda"),
        (lambda: AllocationConfig(max_iterations=1.5), "max_iterations"),
        (lambda: AllocationConfig(max_iterations=True), "max_iterations"),
        (lambda: AllocationConfig(alpha=True), "alpha"),
        (lambda: AllocationConfig(s_min=None), "s_min"),
        (lambda: MergeConfig(allocation=None), "allocation"),
        (lambda: MergeConfig(allocation={"alpha": 1.0}), "allocation"),
    ],
    ids=["sign_election-str", "sign_election-numpy-bool", "grouping_pattern-none", "method-int",
         "lambda-bool", "lambda-str", "max_iterations-float", "max_iterations-bool",
         "alpha-bool", "s_min-none", "allocation-none", "allocation-dict"],
)
def test_wrongly_typed_field_names_its_config_key(build, key):
    with pytest.raises(ValidationError, match=f"config key '{key}' has wrong type"):
        build()


@pytest.mark.parametrize(
    "build, plain",
    [
        (lambda: MergeConfig(lam=1), MergeConfig(lam=1.0)),
        (lambda: MergeConfig(lam=np.float32(0.5)), MergeConfig(lam=0.5)),
        (
            lambda: MergeConfig(allocation=AllocationConfig(max_iterations=np.int64(5))),
            MergeConfig(allocation=AllocationConfig(max_iterations=5)),
        ),
        (
            lambda: MergeConfig(allocation=AllocationConfig(alpha=2, s_target=np.float64(0.5))),
            MergeConfig(allocation=AllocationConfig(alpha=2.0)),
        ),
    ],
    ids=["lambda-int", "lambda-float32", "max_iterations-int64", "alpha-int"],
)
def test_numeric_forms_give_one_config_and_one_digest(build, plain):
    config = build()
    assert config == plain
    assert config_metadata(config) == config_metadata(plain)
    stored = {key: type(value) for key, value in config_fields(config).items()}
    assert stored == {key: type(value) for key, value in config_fields(MergeConfig()).items()}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MergeConfig(lam=10**400), "lambda must be finite"),
        (lambda: AllocationConfig(alpha=-(10**400)), "alpha must be finite"),
    ],
    ids=["lambda", "alpha"],
)
def test_int_beyond_float_range_is_rejected_as_non_finite(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_config_digests_are_pinned():
    assert config_metadata(MergeConfig())["config_digest"] == "fb651daa6d79bba0"
    config = MergeConfig(
        method="ties", lam=0.7, sign_election=True,
        allocation=AllocationConfig(alpha=2.0, max_iterations=7),
    )
    assert config_metadata(config) == {
        "method": "ties", "lambda": "0.7", "config_digest": "e50a7644e259722f"
    }
