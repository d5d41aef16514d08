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
from .archive import TensorInfo, archive_info, read_archive, write_archive
from .conflict import ConflictReport, layer_conflict, pearson_abs, sign_disagreement
from .diagnostics import LayerDiagnostics
from .errors import ArchiveError, ConvergenceError, MergeToolError, ValidationError
from .grouping import (
    DEFAULT_GROUPING_PATTERN,
    LayerGrouping,
    flatten_group,
    group_layers,
    unflatten_group,
)
from .merging import (
    METHODS,
    MergeConfig,
    MergeOutput,
    compose_merged,
    config_metadata,
    disjoint_merge,
    elect_signs,
    merge,
    simple_average,
    sparsify_top_fraction,
)
from .synthetic import synthesize_checkpoints, write_synthetic_set
from .task_vectors import (
    CompatibilityReport,
    TaskVector,
    compute_task_vector,
    validate_compatibility,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationConfig",
    "AllocationResult",
    "ArchiveError",
    "CompatibilityReport",
    "ConflictReport",
    "ConvergenceError",
    "DEFAULT_GROUPING_PATTERN",
    "LayerDiagnostics",
    "LayerGrouping",
    "METHODS",
    "MergeConfig",
    "MergeOutput",
    "MergeToolError",
    "TaskVector",
    "TensorInfo",
    "ValidationError",
    "allocate",
    "allocation_scores",
    "archive_info",
    "compose_merged",
    "compute_task_vector",
    "config_metadata",
    "disjoint_merge",
    "elect_signs",
    "flatten_group",
    "group_layers",
    "initial_sparsity",
    "layer_conflict",
    "merge",
    "min_max_normalize",
    "pearson_abs",
    "project_to_budget",
    "read_archive",
    "sign_disagreement",
    "simple_average",
    "softmax_weights",
    "sparsify_top_fraction",
    "synthesize_checkpoints",
    "unflatten_group",
    "validate_compatibility",
    "write_archive",
    "write_synthetic_set",
]
