from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import malsmerge

PUBLIC_NAMES = [
    "AllocationConfig", "AllocationResult", "ArchiveError", "ConflictReport",
    "ConvergenceError", "DEFAULT_GROUPING_PATTERN", "LayerDiagnostics", "LayerGrouping",
    "METHODS", "MergeConfig", "MergeToolError", "TensorInfo", "ValidationError",
    "allocate", "allocation_scores", "config_metadata", "disjoint_merge",
    "elect_signs", "group_layers", "initial_sparsity", "merge",
    "merge_to_archive", "min_max_normalize", "pearson_abs", "project_to_budget", "read_archive",
    "sign_disagreement", "softmax_weights", "sparsify_top_fraction",
    "synthesize_checkpoints", "tensor_shapes",
    "unflatten_group", "write_archive", "write_synthetic_set",
]

# the whole-model helpers, kept in their modules but not exported
WHOLE_MODEL_HELPERS = {
    "TaskVector": "malsmerge.task_vectors",
    "compute_task_vector": "malsmerge.task_vectors",
    "validate_compatibility": "malsmerge.task_vectors",
    "CompatibilityReport": "malsmerge.task_vectors",
    "layer_conflict": "malsmerge.conflict",
    "flatten_group": "malsmerge.grouping",
    "simple_average": "malsmerge.merging",
    "compose_merged": "malsmerge.merging",
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(malsmerge.__all__) == sorted(PUBLIC_NAMES)
    for name in malsmerge.__all__:
        assert hasattr(malsmerge, name), name


@pytest.mark.parametrize("name, module", WHOLE_MODEL_HELPERS.items())
def test_whole_model_helpers_live_only_in_their_modules(name, module):
    assert not hasattr(malsmerge, name)
    assert name not in malsmerge.__all__
    assert callable(getattr(importlib.import_module(module), name))


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    """The pytest settings turn warnings into errors; a failing hypothesis test must still
    be reported as one failure, with the tests after it run."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
