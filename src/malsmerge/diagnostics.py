"""Per-layer allocation diagnostics and their JSON/CSV serializations."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .allocation import AllocationResult
from .archive import atomic_file, write_at
from .conflict import ConflictReport
from .errors import ValidationError

REPORT_FORMATS = ("json", "csv")

# Per-layer columns after layer_id, in report order, each with the array it
# reads from the conflict report or the allocation
_COLUMNS = {
    "c": attrgetter("conflict.conflict"),
    "m": attrgetter("conflict.importance"),
    "c_hat": attrgetter("allocation.c_hat"),
    "m_hat": attrgetter("allocation.m_hat"),
    "r": attrgetter("allocation.r"),
    "w": attrgetter("allocation.w"),
    "s_initial": attrgetter("allocation.s_initial"),
    "s_final": attrgetter("allocation.s_final"),
}
_HEADER = ("layer_id", *_COLUMNS)


def _round12(x: float) -> float:
    # 12 significant digits, applied once at construction: JSON and CSV then
    # serialize the same float and parse back to identical values
    return float(f"{float(x):.12g}")


def _csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else value


@dataclass(frozen=True)
class LayerDiagnostics:
    """Reporting view of one allocation run: its globals, then one row per layer.

    Every field but ``rows`` is a global. A row holds the layer id and the
    ``_COLUMNS`` values, in ``_HEADER`` order.
    """

    method: str
    iterations: int
    converged: bool
    mean_sparsity: float
    rows: tuple[tuple[str | float, ...], ...]

    @classmethod
    def from_results(
        cls, conflict: ConflictReport, allocation: AllocationResult, method: str
    ) -> LayerDiagnostics:
        if tuple(conflict.layer_ids) != tuple(allocation.layer_ids):
            raise ValidationError("conflict report and allocation cover different layers")
        sources = SimpleNamespace(conflict=conflict, allocation=allocation)
        columns = [read(sources) for read in _COLUMNS.values()]
        rows = tuple(
            (layer_id, *(_round12(column[i]) for column in columns))
            for i, layer_id in enumerate(conflict.layer_ids)
        )
        return cls(
            method=method,
            iterations=allocation.iterations,
            converged=allocation.converged,
            mean_sparsity=_round12(np.mean(allocation.s_final)),
            rows=rows,
        )

    def _globals(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}

    def to_json(self) -> str:
        layers = [dict(zip(_HEADER, row)) for row in self.rows]
        return json.dumps({**self._globals(), "layers": layers}, indent=2) + "\n"

    def to_csv(self) -> str:
        run = self._globals()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*_HEADER, *run])
        writer.writerows([_csv_cell(v) for v in (*row, *run.values())] for row in self.rows)
        return buf.getvalue()

    def write(self, path: str | Path, fmt: str) -> None:
        if fmt not in REPORT_FORMATS:
            raise ValidationError(f"report format must be one of {REPORT_FORMATS}, got {fmt!r}")
        text = self.to_json() if fmt == "json" else self.to_csv()
        with atomic_file(path) as f:
            write_at(f.fileno(), text.encode("utf-8"), 0, path, "the report")
