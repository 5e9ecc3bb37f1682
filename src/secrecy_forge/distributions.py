"""Finite tripartite distributions and Shannon-information primitives.

A tripartite distribution p(x, y, z) is held dense as a float64 array with
axes ordered (x, y, z): Alice's symbol, Bob's symbol, Eve's symbol.  All
entropic quantities are in bits (log base 2) with the convention
0 * log 0 = 0.

The information functions at the bottom operate on plain arrays of any
rank so that callers can append derived variables (block labels, public
messages) as extra axes and group axes freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import DimensionCapExceeded, InvalidChannel, InvalidDistribution

__all__ = [
    "Dist2",
    "Dist3",
    "Channel",
    "entropy_bits",
    "binary_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "product_power",
    "apply_channel_z",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check(p: np.ndarray, ndim: int, tol: float) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != ndim:
        raise InvalidDistribution(f"expected a rank-{ndim} array, got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise InvalidDistribution("empty alphabet")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution("non-finite entry")
    violations = []
    low = arr.min(initial=0.0)
    if low < -tol:
        violations.append(f"negative entry {low!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        violations.append(f"sum {total!r} differs from 1 by more than tol={tol!r}")
    if violations:
        raise InvalidDistribution("; ".join(violations))
    return _frozen(np.clip(arr, 0.0, None))


@dataclass(frozen=True, eq=False)
class Dist2:
    """Joint distribution of two variables, axes (x, y)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check(self.p, 2, config.VALIDATION_TOL))

    @property
    def dims(self) -> tuple[int, int]:
        return self.p.shape  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class Dist3:
    """Joint distribution of (x, y, z) = (Alice, Bob, Eve)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check(self.p, 3, config.VALIDATION_TOL))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.p.shape  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic map applied to Eve's symbol, k[z, zbar]."""

    k: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.k, dtype=float)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise InvalidChannel("channel matrix must be 2-d and non-empty")
        if not np.all(np.isfinite(arr)):
            raise InvalidChannel("non-finite entry")
        if arr.min() < -config.VALIDATION_TOL:
            raise InvalidChannel(f"negative entry {arr.min()!r}")
        rows = arr.sum(axis=1)
        bad = np.abs(rows - 1.0).max()
        if bad > 1e-10:
            raise InvalidChannel(f"row sums deviate from 1 by {bad!r}")
        object.__setattr__(self, "k", _frozen(np.clip(arr, 0.0, None)))

    @property
    def in_dim(self) -> int:
        return self.k.shape[0]

    @property
    def out_dim(self) -> int:
        return self.k.shape[1]

    @classmethod
    def identity(cls, n: int) -> "Channel":
        return cls(np.eye(n))

    @classmethod
    def deterministic(cls, assignment: Sequence[int]) -> "Channel":
        """Channel z -> assignment[z], onto the symbols 0..max(assignment)."""
        assignment = list(assignment)
        k = np.zeros((len(assignment), max(assignment) + 1))
        for z, zbar in enumerate(assignment):
            if zbar < 0:
                raise InvalidChannel(f"output symbol {zbar} outside alphabet")
            k[z, zbar] = 1.0
        return cls(k)

    def assignment(self) -> list[int]:
        if not np.all((self.k == 0.0) | (self.k == 1.0)):
            raise InvalidChannel("channel is not deterministic")
        return [int(np.argmax(row)) for row in self.k]


# ---------------------------------------------------------------------------
# entropic quantities


def entropy_bits(p: Iterable[float] | np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary-shape probability array."""
    arr = np.asarray(p, dtype=float).ravel()
    pos = arr[arr > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-np.dot(pos, np.log2(pos)))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise InvalidDistribution(f"binary_entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _grouped_entropy(p: np.ndarray, groups: Sequence[Sequence[int]]) -> float:
    axes = tuple(a for g in groups for a in g)
    if len(set(axes)) != len(axes):
        raise InvalidDistribution("axis groups overlap")
    if not axes:
        return 0.0
    arr = np.asarray(p, dtype=float)
    drop = tuple(a for a in range(arr.ndim) if a not in axes)
    return entropy_bits(arr.sum(axis=drop) if drop else arr)


def mutual_information(p: np.ndarray, a_axes: Sequence[int], b_axes: Sequence[int]) -> float:
    """I(A:B) over an arbitrary grouping of axes of a joint array."""
    return conditional_mutual_information(p, a_axes, b_axes, ())


def conditional_mutual_information(
    p: np.ndarray,
    a_axes: Sequence[int],
    b_axes: Sequence[int],
    c_axes: Sequence[int],
) -> float:
    """I(A:B|C) = H(AC) + H(BC) - H(ABC) - H(C), axes grouped freely."""
    h_ac = _grouped_entropy(p, (a_axes, c_axes))
    h_bc = _grouped_entropy(p, (b_axes, c_axes))
    h_abc = _grouped_entropy(p, (a_axes, b_axes, c_axes))
    h_c = _grouped_entropy(p, (c_axes,))
    return h_ac + h_bc - h_abc - h_c


# ---------------------------------------------------------------------------
# structural operations


def product_power(d: Dist3, n: int) -> Dist3:
    """i.i.d. power p^(x^n, y^n, z^n); joint alphabet capped for safety.

    Composite symbols are mixed-radix encoded most-significant copy first,
    e.g. for n=2 the x-symbol (x1, x2) becomes x1 * dx + x2.
    """
    if n < 1:
        raise InvalidDistribution("power must be >= 1")
    cap = config.load_caps().product_states
    dx, dy, dz = d.dims
    total = (dx * dy * dz) ** n
    if total > cap:
        raise DimensionCapExceeded(
            f"product power would hold {total} joint states, cap is {cap}"
        )
    out = d.p
    for _ in range(n - 1):
        out = np.einsum("abc,def->adbecf", out, d.p).reshape(
            out.shape[0] * dx, out.shape[1] * dy, out.shape[2] * dz
        )
    return Dist3(out)


def apply_channel_z(d: Dist3, ch: Channel) -> Dist3:
    """Push Eve's symbol through a stochastic channel: q(x,y,zbar)."""
    if ch.in_dim != d.dims[2]:
        raise InvalidChannel(
            f"channel input alphabet {ch.in_dim} does not match |Z|={d.dims[2]}"
        )
    return Dist3(np.einsum("xyz,zw->xyw", d.p, ch.k))
