"""Rectangular (t, y) grids, the field containers evaluated on them, and the
package's one CSV writer."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Grid", "TwoParamField", "TimeField", "write_csv", "write_fields_csv"]


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

    def index(self, t: float, y: float) -> tuple[int, int]:
        """The (i, j) of the grid point (t, y), to within 1e-9."""
        i = int(np.argmin(np.abs(self.t - t)))
        j = int(np.argmin(np.abs(self.y - y)))
        if abs(self.t[i] - t) > 1e-9 or abs(self.y[j] - y) > 1e-9:
            raise ValueError(f"({t}, {y}) is not a grid point")
        return i, j

    def same_as(self, other: "Grid") -> bool:
        return (len(self.t) == len(other.t) and len(self.y) == len(other.y)
                and np.array_equal(self.t, other.t) and np.array_equal(self.y, other.y))


@dataclass(frozen=True)
class TwoParamField:
    """Values of one process over grid.t x grid.y, with a leading
    replication axis when evaluated on a block of replications."""
    grid: Grid
    values: np.ndarray
    label: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[-2:] != self.grid.shape or vals.ndim > 3:
            raise ValueError(f"field {self.label!r}: values shape {vals.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"field {self.label!r}: non-finite entries")
        object.__setattr__(self, "values", vals)

    def rows(self):
        _check_single(self.values, 2, self.label)
        return ((self.label, float(t), float(y), float(self.values[i, j]))
                for i, t in enumerate(self.grid.t) for j, y in enumerate(self.grid.y))


@dataclass(frozen=True)
class TimeField:
    """Values of a process constant in (or without) the second argument,
    with a leading replication axis when evaluated on a block."""
    t: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[-1:] != np.asarray(self.t).shape or vals.ndim > 2:
            raise ValueError(f"field {self.label!r}: values shape mismatch")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"field {self.label!r}: non-finite entries")
        object.__setattr__(self, "values", vals)

    def rows(self):
        _check_single(self.values, 1, self.label)
        return ((self.label, float(t), 0.0, float(v)) for t, v in zip(self.t, self.values))


def _check_single(values: np.ndarray, ndim: int, label: str) -> None:
    """Rows exist for one replication only; a block's field has an extra
    leading axis."""
    if values.ndim != ndim:
        raise ValueError(f"field {label!r} holds a block of replications; "
                         "write one replication's field")


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


def write_fields_csv(path, fields) -> Path:
    """Common export schema: one row per (label, t, y, value)."""
    rows = [f.rows() for f in fields]      # checks every field before writing
    return write_csv(path, ("label", "t", "y", "value"),
                     (row for field_rows in rows for row in field_rows))
