"""Finite-dimensional density-operator primitives.

States carry an explicit tuple of subsystem dimensions; every operation
that addresses subsystems does so by index into that tuple.  Entropies
are in bits.  Validation tolerances follow ``config.STATE_TOL``; the
total dimension is capped (``caps.rho_dim``) so a misconstructed tensor
power fails fast instead of allocating gigabytes.  A state's spectrum is
computed once, when it is validated, and kept as ``QState.spectrum``;
entropies read it instead of solving again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionCapExceeded, InvalidState, SecrecyForgeError

__all__ = [
    "QState",
    "PureState",
    "partial_trace",
    "trace_distance",
    "mutual_info_q",
]

EIG_CLIP = 1e-12
EIG_NEGATIVE_ERROR = -1e-8


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _check_dims(dims: Sequence[int], total: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InvalidState(f"bad subsystem dimensions {dims}")
    if math.prod(dims) != total:
        raise InvalidState(
            f"dimensions {dims} do not match operator size {total}"
        )
    cap = config.load_caps().rho_dim
    if total > cap:
        raise DimensionCapExceeded(f"density operator dimension {total} > cap {cap}")
    return dims


@dataclass(frozen=True, eq=False)
class QState:
    """Density operator with named subsystem dimensions.

    ``spectrum`` holds the eigenvalues of ``rho`` in ascending order, as
    validation computed them; it is read-only.
    """

    rho: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rho = _frozen(self.rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise InvalidState(f"density operator must be square, got {rho.shape}")
        dims = _check_dims(self.dims, rho.shape[0])
        if np.abs(rho - rho.conj().T).max() > config.STATE_TOL:
            raise InvalidState("density operator is not Hermitian")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > config.STATE_TOL:
            raise InvalidState(f"trace is {tr}, expected 1")
        w = np.linalg.eigvalsh(rho)
        if w.min() < EIG_NEGATIVE_ERROR:
            raise InvalidState(f"negative eigenvalue {w.min():.3e}")
        w.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", w)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector with named subsystem dimensions."""

    amp: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amp = _frozen(self.amp).ravel()
        dims = _check_dims(self.dims, amp.size)
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > config.STATE_TOL:
            raise InvalidState(f"norm is {nrm}, expected 1")
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "dims", dims)

    def density(self) -> QState:
        return QState(np.outer(self.amp, self.amp.conj()), self.dims)


def _subsystem_letters(n: int) -> tuple[list[str], list[str]]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise SecrecyForgeError(f"too many subsystems ({n})")
    return list(letters[:n]), list(letters[n : 2 * n])


def partial_trace(state: QState, keep: Sequence[int]) -> QState:
    """Trace out everything except ``keep``, reordered as listed.

    Keeping every subsystem in order returns ``state`` itself.
    """
    n = len(state.dims)
    keep = tuple(int(k) for k in keep)
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise SecrecyForgeError(f"bad subsystem list {keep} for {n} subsystems")
    if keep == tuple(range(n)):
        return state
    rows, cols = _subsystem_letters(n)
    for k in range(n):
        if k not in keep:
            cols[k] = rows[k]
    src = "".join(rows) + "".join(cols)
    dst = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    r = state.rho.reshape(state.dims + state.dims)
    out = np.einsum(f"{src}->{dst}", r)
    d_out = math.prod(state.dims[k] for k in keep) if keep else 1
    return QState(out.reshape(d_out, d_out), tuple(state.dims[k] for k in keep) or (1,))


def _spectrum_entropy(w: np.ndarray) -> float:
    """Entropy in bits of a spectrum; entries below 1e-12 count as zero."""
    w = w[w > EIG_CLIP]
    return float(-(w * np.log2(w)).sum())


def trace_distance(a: QState, b: QState) -> float:
    """Half the trace norm of the difference; no solve for equal operators."""
    if a.dims != b.dims:
        raise SecrecyForgeError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if np.array_equal(a.rho, b.rho):
        return 0.0
    w = np.linalg.eigvalsh(a.rho - b.rho)
    return float(0.5 * np.abs(w).sum())


def mutual_info_q(state: QState) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits for a two-party state.

    S(AB) reads the validation spectrum.  A marginal of a validated state
    is valid too, so each is traced with ``partial_trace``'s einsum and
    solved without building a state."""
    if len(state.dims) != 2:
        raise SecrecyForgeError(
            f"mutual_info_q expects a bipartite state, got dims {state.dims}"
        )
    da, db = state.dims
    r = state.rho.reshape(da, db, da, db)
    s_a = _spectrum_entropy(np.linalg.eigvalsh(np.einsum("abcb->ac", r)))
    s_b = _spectrum_entropy(np.linalg.eigvalsh(np.einsum("abad->bd", r)))
    return s_a + s_b - _spectrum_entropy(state.spectrum)
