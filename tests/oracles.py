"""Independent brute-force oracles for the numeric kernels.

Deliberately naive: pure-Python loops, textbook formulas, fsum accumulation.
These must never import from the package under test.
"""

from __future__ import annotations

import math
import struct


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


def _f32(x: float) -> float:
    """``x`` rounded to the nearest float32, ties to even."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


def allocation_oracle(conflict, importance, alpha, beta, s_min, s_max, s_target) -> list[float]:
    """Min-max normalize both scores, score ``alpha * c - beta * m``, take the max-shifted
    softmax, map it into ``[s_min, s_max]`` and project exactly onto the mean budget."""
    c_hat, m_hat = min_max_oracle(conflict), min_max_oracle(importance)
    r = [alpha * c - beta * m for c, m in zip(c_hat, m_hat)]
    e = [math.exp(v - max(r)) for v in r]
    s0 = [s_min + v / math.fsum(e) * (s_max - s_min) for v in e]
    return project_to_budget_oracle(s0, s_target, s_min, s_max)


def merge_oracle(base, tuned, groups, method, sign_election, lam, alloc, s_final=None):
    """The whole merge, entry by entry: ``(conflict, importance, s_final, merged)``.

    ``groups`` lists each layer group's member names in flat order; ``alloc`` holds
    ``alpha``, ``beta``, ``s_min``, ``s_max`` and ``s_target``. Each task's update is
    ``tuned - base`` rounded to float32. Pass 1 scores each group: conflict is the pairs'
    mean of half |Pearson| plus half the sign disagreement, importance the tasks' mean of
    mean |update|; the allocation runs on those scores, with the box collapsed onto the
    target for ``uniform_sparsity`` and ``ties``. Pass 2 trims each update to the group's
    level (``s_final`` if given, else the allocation's), elects signs for ``ties`` or with
    ``sign_election``, merges the survivors and rounds the merge to float32; or, for
    ``simple_average``, rounds the task-order mean of the updates to float32. The merged
    tensor is ``base + lam * merge`` rounded once to float32, as flat lists by name.
    ``simple_average`` runs no pass 1: its scores and levels are None.
    """
    def flat(tensors, members):
        return [float(v) for name in members for v in tensors[name].flat]

    updates = [[[_f32(t - b) for b, t in zip(flat(base, members), flat(checkpoint, members))]
                for checkpoint in tuned] for members in groups]
    conflict = importance = None
    if method != "simple_average":
        pairs = [(i, j) for i in range(len(tuned)) for j in range(i + 1, len(tuned))]
        conflict, importance = [], []
        for xs in updates:
            n = len(xs[0])
            terms = [0.5 * pearson_abs_oracle(xs[i], xs[j]) + 0.5 * sign_disagreement_oracle(xs[i], xs[j])
                     for i, j in pairs] if n else [0.0] * len(pairs)
            conflict.append(_task_order_total(terms) / max(len(pairs), 1))
            magnitudes = [math.fsum(abs(v) for v in x) / n for x in xs] if n else [0.0]
            importance.append(_task_order_total(magnitudes) / len(magnitudes))
        box = ((alloc["s_target"],) * 2 if method in ("uniform_sparsity", "ties")
               else (alloc["s_min"], alloc["s_max"]))
        own = allocation_oracle(conflict, importance, alloc["alpha"], alloc["beta"], *box, alloc["s_target"])
        s_final = own if s_final is None else s_final
    merged = {}
    for l, (members, xs) in enumerate(zip(groups, updates)):
        if method == "simple_average":
            delta = [_f32(_task_order_total(column) / len(xs)) for column in zip(*xs)]
        else:
            rows = [sparsify_oracle(x, s_final[l]) for x in xs]
            signs = elect_signs_oracle(rows) if sign_election or method == "ties" else None
            delta = [_f32(v) for v in disjoint_merge_oracle(rows, signs)]
        out = [_f32(b + lam * d) for b, d in zip(flat(base, members), delta)]
        for name in members:
            size = base[name].size
            merged[name], out = out[:size], out[size:]
    return conflict, importance, s_final, merged
