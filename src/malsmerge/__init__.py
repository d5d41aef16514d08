"""Conflict-aware model merging with adaptive layerwise sparsity allocation."""

from .allocation import (
    AllocationConfig,
    AllocationResult,
    allocate,
    allocation_scores,
    initial_sparsity,
    min_max_normalize,
    project_to_budget,
    softmax_weights,
)
from .archive import TensorInfo, read_archive, tensor_shapes, write_archive
from .conflict import ConflictReport, pearson_abs, sign_disagreement
from .diagnostics import LayerDiagnostics
from .errors import ArchiveError, ConvergenceError, MergeToolError, ValidationError
from .grouping import (
    DEFAULT_GROUPING_PATTERN,
    LayerGrouping,
    group_layers,
    unflatten_group,
)
from .merging import (
    METHODS,
    MergeConfig,
    config_metadata,
    disjoint_merge,
    elect_signs,
    merge,
    merge_to_archive,
    sparsify_top_fraction,
)
from .synthetic import synthesize_checkpoints, write_synthetic_set

__version__ = "0.1.0"

__all__ = [
    "AllocationConfig",
    "AllocationResult",
    "ArchiveError",
    "ConflictReport",
    "ConvergenceError",
    "DEFAULT_GROUPING_PATTERN",
    "LayerDiagnostics",
    "LayerGrouping",
    "METHODS",
    "MergeConfig",
    "MergeToolError",
    "TensorInfo",
    "ValidationError",
    "allocate",
    "allocation_scores",
    "config_metadata",
    "disjoint_merge",
    "elect_signs",
    "group_layers",
    "initial_sparsity",
    "merge",
    "merge_to_archive",
    "min_max_normalize",
    "pearson_abs",
    "project_to_budget",
    "read_archive",
    "sign_disagreement",
    "softmax_weights",
    "sparsify_top_fraction",
    "synthesize_checkpoints",
    "tensor_shapes",
    "unflatten_group",
    "write_archive",
    "write_synthetic_set",
]
