"""Deterministic artifact writers: CSV tables and JSON summaries.

Identical inputs must produce byte-identical files, so floats are emitted
with repr (shortest round-trip form) and JSON keys are sorted; no clocks,
no environment lookups.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np


def _fmt(x) -> str:
    if x is None:               # a missing value, such as a run that never blew up
        return "nan"
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
              comment: str | None = None) -> None:
    """A header line, then one line per row; a '# comment' line first if given."""
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_slice_csv(path, grid, t: float, u: np.ndarray) -> None:
    """Physical-space slice of u on grid (full line in 1D, y=0 row in 2D)."""
    line = u[(slice(None),) + (grid.N // 2,) * (grid.n - 1)]
    write_csv(path, ["x", "u"], zip(grid.x.tolist(), line.tolist()), comment=f"t = {t!r}")


@contextmanager
def output_dir(path):
    """Create path and its missing parents for the body of the with block.

    When the body raises, the directories this call created are removed,
    deepest first, while they are empty; one that existed before is never
    touched."""
    created = []
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    except BaseException:
        for directory in created:
            try:
                os.rmdir(directory)
            except OSError:         # not empty: keep it and every parent
                break
        raise
