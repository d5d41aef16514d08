"""Per-layer allocation diagnostics and their JSON/CSV serializations."""

from __future__ import annotations

import io
import json
from csv import DictWriter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .allocation import AllocationResult
from .archive import write_atomic
from .conflict import ConflictReport
from .errors import ValidationError

REPORT_FORMATS = ("json", "csv")

_CSV_FIELDS = (
    "layer_id", "c", "m", "c_hat", "m_hat", "r", "w", "s_initial", "s_final",
    "method", "iterations", "converged", "mean_sparsity",
)


def _round12(x: float) -> float:
    # 12 significant digits, applied once at construction: JSON and CSV then
    # serialize the same float and parse back to identical values
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class LayerRow:
    layer_id: str
    c: float
    m: float
    c_hat: float
    m_hat: float
    r: float
    w: float
    s_initial: float
    s_final: float


@dataclass(frozen=True)
class LayerDiagnostics:
    """Reporting view of one allocation run: one row per layer plus globals."""

    rows: tuple[LayerRow, ...]
    method: str
    iterations: int
    converged: bool
    mean_sparsity: float

    @classmethod
    def from_results(
        cls, conflict: ConflictReport, allocation: AllocationResult, method: str
    ) -> LayerDiagnostics:
        if tuple(conflict.layer_ids) != tuple(allocation.layer_ids):
            raise ValidationError("conflict report and allocation cover different layers")
        rows = tuple(
            LayerRow(
                layer_id=layer_id,
                c=_round12(conflict.conflict[i]),
                m=_round12(conflict.importance[i]),
                c_hat=_round12(allocation.c_hat[i]),
                m_hat=_round12(allocation.m_hat[i]),
                r=_round12(allocation.r[i]),
                w=_round12(allocation.w[i]),
                s_initial=_round12(allocation.s_initial[i]),
                s_final=_round12(allocation.s_final[i]),
            )
            for i, layer_id in enumerate(conflict.layer_ids)
        )
        return cls(
            rows=rows,
            method=method,
            iterations=allocation.iterations,
            converged=allocation.converged,
            mean_sparsity=_round12(np.mean(allocation.s_final)),
        )

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "mean_sparsity": self.mean_sparsity,
            "layers": [asdict(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            record = {
                key: f"{value:.12g}" if isinstance(value, float) else value
                for key, value in asdict(row).items()
            }
            record.update(
                method=self.method,
                iterations=self.iterations,
                converged="true" if self.converged else "false",
                mean_sparsity=f"{self.mean_sparsity:.12g}",
            )
            writer.writerow(record)
        return buf.getvalue()

    def write(self, path: str | Path, fmt: str) -> None:
        if fmt not in REPORT_FORMATS:
            raise ValidationError(f"report format must be one of {REPORT_FORMATS}, got {fmt!r}")
        text = self.to_json() if fmt == "json" else self.to_csv()
        write_atomic(path, [text.encode("utf-8")])
