"""NV crystallographic frame handling.

Projects lab-frame magnetic fields onto the four NV symmetry axes and
gives the matrix that recovers lab-frame vectors from three of them.
All fields are in Gauss, directions are dimensionless direction cosines in
the laboratory (x, y, z) frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RankDeficientError

# Tetrahedral NV directions for a [100]-cut diamond, rows a, b, c, d.
_TETRAHEDRAL = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / math.sqrt(3.0)


@dataclass(frozen=True)
class FieldVector:
    """Magnetic field vector, Gauss, lab frame (x, y, z)."""

    bx: float
    by: float
    bz: float

    def __post_init__(self):
        for c in (self.bx, self.by, self.bz):
            if not math.isfinite(c):
                raise ValueError("field components must be finite")

    @classmethod
    def from_array(cls, arr) -> "FieldVector":
        a = np.asarray(arr, dtype=float).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.bx, self.by, self.bz])

    def magnitude(self) -> float:
        return float(math.sqrt(self.bx**2 + self.by**2 + self.bz**2))

    def __add__(self, other: "FieldVector") -> "FieldVector":
        return FieldVector(self.bx + other.bx, self.by + other.by, self.bz + other.bz)

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        return FieldVector(self.bx - other.bx, self.by - other.by, self.bz - other.bz)


@dataclass(frozen=True)
class OrientationBasis:
    """The four NV axis directions, as read-only unit rows of ``axes`` (4x3).

    ``axes @ b`` gives the per-axis components of the lab-frame field ``b``;
    :func:`recovery_matrix` maps any three of them back.
    """

    axes: np.ndarray

    @classmethod
    def from_axes(cls, axes) -> "OrientationBasis":
        axes = np.array(axes, dtype=float)
        if axes.shape != (4, 3):
            raise ValueError("expected four 3-component axis vectors")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(axes, axis=1)
        if not np.all(np.isfinite(norms)):
            raise ValueError("axis vectors and their lengths must be finite")
        if np.any(norms == 0.0):
            raise ValueError("axis vectors must be nonzero")
        axes = axes / norms[:, None]
        axes.setflags(write=False)
        return cls(axes=axes)


def default_basis() -> OrientationBasis:
    """Normalized tetrahedral axes (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1)."""
    return OrientationBasis.from_axes(_TETRAHEDRAL)


def project_field(basis: OrientationBasis, b: FieldVector) -> np.ndarray:
    """Dot product of each NV axis with the lab-frame field: a (4,) array, Gauss."""
    return basis.axes @ b.as_array()


def recovery_matrix(basis: OrientationBasis, idx: Sequence[int]) -> np.ndarray:
    """Transition matrix W, the inverse of the rows ``idx`` of ``basis.axes``,
    that maps the components on those axes (three distinct indices in 0-3, as
    :func:`select_best_axes` returns them) to the lab frame.  Raises
    :class:`RankDeficientError` when the selected rows do not span the lab
    frame, as in a hand-built basis.  W is computed once per basis and subset
    (cached by the selected rows' values) and is read-only.
    """
    idx = list(idx)
    if len(idx) != 3 or len(set(idx) & {0, 1, 2, 3}) != 3:
        raise ValueError(f"need three distinct axis indices in 0-3, got {idx}")
    return _inverse(np.asarray(basis.axes, dtype=float)[idx].tobytes())


@functools.lru_cache(maxsize=32)
def _inverse(rows: bytes) -> np.ndarray:
    """Read-only inverse of the three float64 rows whose bytes are ``rows``.  The
    cache keeps no exception, so singular rows raise on every call."""
    rows = np.frombuffer(rows).reshape(3, -1)
    if np.linalg.matrix_rank(rows, tol=1e-10) < 3:
        raise RankDeficientError("selected axis rows are singular")
    w = np.linalg.inv(rows)
    w.setflags(write=False)
    return w


def select_best_axes(sigma_axes: Sequence[float]) -> tuple[int, ...]:
    """Indices, ascending, of the three axes with the smallest uncertainty.

    Ties go to the lower axis index, and NaN ranks last, as in a stable
    ``np.argsort``: Python's ``sorted`` is stable too, on Python floats.
    """
    sig = np.asarray(sigma_axes, dtype=float)
    if sig.shape != (4,):
        raise ValueError("expected four per-axis uncertainties")
    s = sig.tolist()
    return tuple(sorted(sorted(range(4), key=lambda i: (math.isnan(s[i]), s[i]))[:3]))
