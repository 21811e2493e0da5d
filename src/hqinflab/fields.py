"""Rectangular (t, y) grids and the package's one CSV writer.

A field on a grid is a plain float array: (T, Y) for a two-parameter field
such as Qr(t, y), (T,) for a time-only one such as Qt(t), each with a leading
replication axis when evaluated on a block of R replications.  A field leaves
the program through :func:`write_surfaces_csv`, which takes one (T, Y) array
per name."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Grid", "write_csv", "write_surfaces_csv"]


def _check_axis(vals, name):
    arr = np.asarray(vals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} grid axis must be a nonempty 1-D sequence")
    if np.any(arr < 0):
        raise ValueError(f"{name} grid axis must be nonnegative")
    if np.any(np.diff(arr) <= 0):
        raise ValueError(f"{name} grid axis must be strictly increasing")
    return arr


@dataclass(frozen=True)
class Grid:
    t: np.ndarray
    y: np.ndarray

    def __init__(self, t, y):
        object.__setattr__(self, "t", _check_axis(t, "t"))
        object.__setattr__(self, "y", _check_axis(y, "y"))

    @property
    def shape(self):
        return (len(self.t), len(self.y))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` as comma-separated lines ending in LF.

    Floats (numpy floats included) print as ``.12g``, anything else with
    ``str``; values are not quoted, so callers keep commas out of them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_surfaces_csv(path, grid: Grid, surfaces: dict) -> Path:
    """Common export schema: one row per (name, t, y, value) of each named
    (T, Y) array in ``surfaces``.

    Every array is checked before the file is opened: one that is not finite,
    or whose shape is not the grid's (a block of replications has a leading
    axis), raises ValueError and nothing is written.
    """
    for name, values in surfaces.items():
        if np.shape(values) != grid.shape:
            raise ValueError(f"surface {name!r}: shape {np.shape(values)} != grid {grid.shape}; "
                             "write one replication's (T, Y) values")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"surface {name!r}: non-finite entries")
    return write_csv(path, ("label", "t", "y", "value"),
                     ((name, float(t), float(y), float(values[i, j]))
                      for name, values in surfaces.items()
                      for i, t in enumerate(grid.t) for j, y in enumerate(grid.y)))
