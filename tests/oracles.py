"""Independent brute-force oracles for the numeric kernels.

Deliberately naive: pure-Python loops, textbook formulas, fsum accumulation.
These must never import from the package under test.
"""

from __future__ import annotations

import math


def pearson_abs_oracle(x, y) -> float:
    """Two-pass textbook Pearson correlation, absolute value."""
    assert len(x) == len(y) and len(x) >= 1
    n = len(x)
    mx = math.fsum(float(v) for v in x) / n
    my = math.fsum(float(v) for v in y) / n
    num = math.fsum((float(a) - mx) * (float(b) - my) for a, b in zip(x, y))
    den_x = math.fsum((float(a) - mx) ** 2 for a in x)
    den_y = math.fsum((float(b) - my) ** 2 for b in y)
    if den_x == 0.0 or den_y == 0.0:
        return 0.0
    return min(abs(num / math.sqrt(den_x * den_y)), 1.0)


def sign_disagreement_oracle(x, y) -> float:
    """Counted sign-disagreement ratio, position by position."""
    assert len(x) == len(y)
    opposite = 0
    nonzero = 0
    for a, b in zip(x, y):
        a, b = float(a), float(b)
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            opposite += 1
        if a != 0:
            nonzero += 1
        if b != 0:
            nonzero += 1
    if nonzero == 0:
        return 0.0
    return 2.0 * opposite / nonzero


def sparsify_oracle(v, s) -> list[float]:
    """Keep the ceil((1-s)*n) largest magnitudes via explicit sorting.

    Ties are resolved toward the lower flat index by sorting on
    (-magnitude, index) pairs.
    """
    n = len(v)
    n_keep = 0 if s == 1.0 else math.ceil((1.0 - s) * n)
    ranked = sorted(range(n), key=lambda i: (-abs(float(v[i])), i))
    kept = set(ranked[:n_keep])
    return [float(v[i]) if i in kept else 0.0 for i in range(n)]


def min_max_oracle(values) -> list[float]:
    assert len(values) >= 1
    lo = min(float(v) for v in values)
    hi = max(float(v) for v in values)
    if hi == lo:
        return [0.0 for _ in values]
    return [(float(v) - lo) / (hi - lo) for v in values]


def _task_order_total(values) -> float:
    # left-to-right +=, never sum(): Python >= 3.12 compensates sum() of floats
    total = 0.0
    for value in values:
        total += value
    return total


def elect_signs_oracle(rows) -> list[int]:
    """Sign of each position's sum over tasks, added in task order."""
    n = len(rows[0])
    out = []
    for i in range(n):
        total = _task_order_total(float(row[i]) for row in rows)
        out.append((total > 0) - (total < 0))
    return out


def disjoint_merge_oracle(rows, signs=None) -> list[float]:
    """Mean of each position's contributing entries, added in task order.

    A nonzero entry contributes when no signs are given, or when it has the
    position's nonzero elected sign; no contributor merges to 0.
    """
    n = len(rows[0])
    out = []
    for i in range(n):
        values = [float(row[i]) for row in rows]
        if signs is None:
            kept = [v for v in values if v != 0]
        else:
            s = int(signs[i])
            kept = [v for v in values if (s > 0 and v > 0) or (s < 0 and v < 0)]
        out.append(_task_order_total(kept) / max(len(kept), 1))
    return out


def project_to_budget_oracle(s0, s_target, s_min, s_max) -> list[float]:
    """Euclidean projection of ``s0`` onto {mean = s_target, s_min <= s <= s_max}.

    The projection is clip(s0 + t) for the shift t at which the mean is
    s_target. The mean is nondecreasing in t and linear between consecutive
    breakpoints s_min - x and s_max - x, so a bisection over the sorted
    breakpoints finds the segment holding t, and one interpolation finds t.
    """
    s0 = [float(x) for x in s0]
    n = len(s0)

    def mean_at(t):
        return math.fsum(min(max(x + t, s_min), s_max) for x in s0) / n

    breaks = sorted({b for x in s0 for b in (s_min - x, s_max - x)})
    lo, hi = 0, len(breaks) - 1  # every layer at s_min at breaks[0], at s_max at breaks[-1]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mean_at(breaks[mid]) <= s_target:
            lo = mid
        else:
            hi = mid
    m_lo, m_hi = mean_at(breaks[lo]), mean_at(breaks[hi])
    t = breaks[lo]
    if m_hi > m_lo:
        t += (s_target - m_lo) * (breaks[hi] - breaks[lo]) / (m_hi - m_lo)
    return [min(max(x + t, s_min), s_max) for x in s0]
