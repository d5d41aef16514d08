"""Synthesize and write one workload's input archives; print the time taken.

Usage: python3 setup_inputs.py SPEC_JSON SEED OUT_DIR

SPEC_JSON is an object with ``layers``, ``elems``, ``tasks`` and ``dtype``
("F32" or "F16"). The conflict profile is ``linspace(0.9, 0.1, layers)``.
This runs in a process of its own so that synthesis memory never enters a
measured job's peak RSS. The last line of stdout is ``{"setup_s": ...}``:
the seconds from the start of synthesis to the end of the last write.
"""

from __future__ import annotations

import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

from malsmerge import synthesize_checkpoints, write_archive


def write_f16_archive(tensors: dict[str, np.ndarray], path: Path) -> None:
    """Write ``tensors`` as an F16 archive in the layout ``read_archive`` accepts.

    ``write_archive`` only writes F32, so the F16 workload needs its own
    writer. Names are sorted, as ``write_archive`` sorts them.
    """
    names = sorted(tensors)
    header: dict[str, object] = {}
    cursor = 0
    for name in names:
        n_bytes = tensors[name].size * 2
        header[name] = {
            "dtype": "F16",
            "shape": [int(d) for d in tensors[name].shape],
            "data_offsets": [cursor, cursor + n_bytes],
        }
        cursor += n_bytes
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        for name in names:
            f.write(np.asarray(tensors[name], dtype="<f2").tobytes())


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    seed = int(argv[1])
    out = Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    write = write_f16_archive if spec["dtype"] == "F16" else write_archive
    layers = spec["layers"]

    start = time.perf_counter()
    base, tuned = synthesize_checkpoints(
        seed, layers, spec["elems"], spec["tasks"], np.linspace(0.9, 0.1, layers)
    )
    write(base, out / "base.safetensors")
    for i, checkpoint in enumerate(tuned):
        write(checkpoint, out / f"task_{i:02d}.safetensors")
    setup_s = time.perf_counter() - start

    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
