"""Deterministic artifact writers: CSV, JSON summaries and plot data.

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
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_plot_data(path, xs: Sequence[float], ys: Sequence[float],
                    comment: str) -> None:
    """Two-column whitespace-separated data under a '# comment' line."""
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


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
