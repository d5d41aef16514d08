"""Turn conflict and importance scores into per-layer sparsity levels.

The chain is min-max normalization of conflict and importance, a raw score
``alpha * c_hat - beta * m_hat`` per layer, a softmax over layers, a linear
map into ``[s_min, s_max]``, and an iterative projection that enforces the
mean-sparsity budget while respecting the box bounds.
"""

from __future__ import annotations

import numbers
from dataclasses import Field, dataclass, fields

import numpy as np

from .conflict import ConflictReport
from .errors import ValidationError

_ACCEPTS = {float: numbers.Real, int: numbers.Integral, bool: bool, str: str}
# a field's declared type, a string under postponed annotations, to the type it stores
_KINDS = {"float": float, "int": int, "bool": bool, "str": str, "str | None": str}


def config_key(f: Field) -> str:
    """A config field's key in the config file: its name unless renamed."""
    return f.metadata.get("key", f.name)


def wrong_type(key: str, expected: type, value: object) -> ValidationError:
    """The error for a config key that holds a value of the wrong type."""
    return ValidationError(
        f"config key {key!r} has wrong type: expected {expected.__name__}, got {type(value).__name__}"
    )


def coerce_field_types(config: object) -> None:
    """Store each field of a frozen config dataclass declared float, int, bool, str or
    ``str | None`` (also ``None``) as that type, or raise naming its key. A float field takes
    any real, an int field any integer, neither a bool; a float must be finite (an int beyond
    float range reads as ±inf). A field whose default factory is a class holds an instance."""
    for f in fields(config):
        kind, value = _KINDS.get(f.type, f.default_factory), getattr(config, f.name)
        if not isinstance(kind, type) or (value is None and f.type == "str | None"):
            continue
        if not isinstance(value, _ACCEPTS.get(kind, kind)) or (
            isinstance(value, bool) and kind is not bool
        ):
            raise wrong_type(config_key(f), kind, value)
        try:
            value = kind(value) if kind in _ACCEPTS else value
        except OverflowError:
            value = np.inf if value > 0 else -np.inf
        object.__setattr__(config, f.name, value)
        if kind is float and not np.isfinite(value):
            raise ValidationError(f"{config_key(f)} must be finite, got {value}")


@dataclass(frozen=True)
class AllocationConfig:
    """Hyperparameters of the sparsity allocation.

    ``alpha`` weights conflict, ``beta`` weights importance; neither has a
    canonical value, so both are exposed. The projection stops once the mean
    sparsity is within ``epsilon`` (at least 1e-15) of ``s_target``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    s_min: float = 0.1
    s_max: float = 0.9
    s_target: float = 0.5
    epsilon: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self) -> None:
        coerce_field_types(self)
        if not (0.0 <= self.s_min <= self.s_target <= self.s_max <= 1.0):
            raise ValidationError(
                f"bounds must satisfy 0 <= s_min <= s_target <= s_max <= 1, "
                f"got s_min={self.s_min}, s_target={self.s_target}, s_max={self.s_max}"
            )
        if not (self.alpha >= 0.0 and self.beta >= 0.0):
            raise ValidationError("alpha and beta must be non-negative")
        # below about one ulp of s_target the float64 mean cannot land within epsilon
        if not self.epsilon >= 1e-15:
            raise ValidationError(f"epsilon must be at least 1e-15, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be a positive integer")


@dataclass(frozen=True)
class AllocationResult:
    """Full allocation trace, from normalized scores to final levels."""

    layer_ids: tuple[str, ...]
    c_hat: np.ndarray
    m_hat: np.ndarray
    r: np.ndarray
    w: np.ndarray
    s_initial: np.ndarray
    s_final: np.ndarray
    iterations: int
    converged: bool

    @property
    def mean_sparsity(self) -> float:
        return float(np.mean(self.s_final))


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    """Map values linearly onto [0, 1]; an all-equal input maps to zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot normalize an empty vector")
    lo, hi = float(np.min(v)), float(np.max(v))
    if hi == lo:
        return np.zeros_like(v)
    if hi - lo == np.inf:  # the span overflows: halve every value, exactly but for subnormals
        v, lo, hi = v / 2, lo / 2, hi / 2
    return (v - lo) / (hi - lo)


def allocation_scores(c_hat: np.ndarray, m_hat: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Raw per-layer score trading conflict reduction against importance."""
    c_hat = np.asarray(c_hat, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    if c_hat.shape != m_hat.shape:
        raise ValueError(f"length mismatch: {c_hat.shape} vs {m_hat.shape}")
    return alpha * c_hat - beta * m_hat


def softmax_weights(r: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over layers; non-negative, sums to one."""
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0:
        raise ValueError("cannot take softmax of an empty vector")
    if not np.all(np.isfinite(r)):
        raise ValueError("scores must be finite")
    with np.errstate(over="ignore"):  # a shift below -max float is -inf, and exp(-inf) = 0
        e = np.exp(r - np.max(r))
    return e / np.sum(e)


def initial_sparsity(w: np.ndarray, s_min: float, s_max: float) -> np.ndarray:
    """Linearly map softmax weights into the allowed sparsity range."""
    if s_min > s_max:
        raise ValidationError(f"s_min={s_min} exceeds s_max={s_max}")
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValidationError("weights must lie in [0, 1]")
    return s_min + w * (s_max - s_min)


def project_to_budget(
    s0: np.ndarray,
    s_target: float,
    s_min: float,
    s_max: float,
    epsilon: float = AllocationConfig.epsilon,
    max_iterations: int = AllocationConfig.max_iterations,
) -> tuple[np.ndarray, int, bool]:
    """Project per-layer sparsities onto the mean budget within the box.

    Each iteration checks convergence, applies the uniform affine correction
    with box clipping, and, when clipping leaves a residual, redistributes it
    over the free (non-saturated) layers with one scaled correction. When the
    iterations run out, the last correction is checked as the next iteration
    would check it, without counting one more. Returns the projected vector,
    the iteration count, and the convergence flag.
    """
    if not (s_min <= s_target <= s_max):
        raise ValidationError(
            f"infeasible target: s_target={s_target} outside [{s_min}, {s_max}]"
        )
    s = np.asarray(s0, dtype=np.float64).copy()
    if s.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("sparsity levels must be finite")
    if np.any(s < s_min) or np.any(s > s_max):
        raise ValidationError("initial sparsities must lie within [s_min, s_max]")

    n = s.size
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        delta = s_target - float(np.mean(s))
        if abs(delta) < epsilon:
            converged = True
            break
        s = np.clip(s + delta, s_min, s_max)
        residual = s_target - float(np.mean(s))
        if abs(residual) >= epsilon:
            free = (s > s_min) & (s < s_max)
            n_free = int(np.count_nonzero(free))
            if n_free > 0:
                s[free] = np.clip(s[free] + residual * n / n_free, s_min, s_max)
    else:  # the last correction is checked too
        converged = abs(s_target - float(np.mean(s))) < epsilon
    return s, iterations, converged


def allocate(report: ConflictReport, config: AllocationConfig) -> AllocationResult:
    """Run the full allocation chain on a conflict report."""
    if len(report.layer_ids) < 1:
        raise ValidationError("report must cover at least one layer")
    c_hat = min_max_normalize(report.conflict)
    m_hat = min_max_normalize(report.importance)
    r = allocation_scores(c_hat, m_hat, config.alpha, config.beta)
    w = softmax_weights(r)
    s_initial = initial_sparsity(w, config.s_min, config.s_max)
    s_final, iterations, converged = project_to_budget(
        s_initial,
        config.s_target,
        config.s_min,
        config.s_max,
        config.epsilon,
        config.max_iterations,
    )
    return AllocationResult(
        layer_ids=tuple(report.layer_ids),
        c_hat=c_hat,
        m_hat=m_hat,
        r=r,
        w=w,
        s_initial=s_initial,
        s_final=s_final,
        iterations=iterations,
        converged=converged,
    )
