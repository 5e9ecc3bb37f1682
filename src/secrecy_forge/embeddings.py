"""Physical instantiations of a tripartite pmf.

Four embeddings of p(x,y,z) into quantum states, graded by which parties
keep coherence (q) versus being dephased to the computational basis (c),
in Alice-Bob-Eve order:

* qqq: the pure state with amplitudes e^{i phi(x,y,z)} sqrt(p(x,y,z)).
* cqq: Alice classical, sum_x p(x) |x><x| (x) |psi_x><psi_x| on BE.
* ccq: Alice and Bob classical, Eve keeps |psi_xy> on E.
* ccc: fully diagonal.

Each incoherent embedding equals the computational-basis dephasing of
the previous one; tests assert this chain elementwise.  Subsystem order
is always (A, B, E), x major and z minor in flattened indices.

The two-party objects come from Eve's amplitude matrix M, the qqq
amplitudes reshaped to (|X||Y|, |Z|), without the tripartite state:
``pair_state`` is rho_AB = M M^dagger, and ``extension_blocks`` are the
blocks of the classical-Eve extension through a channel on Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .distributions import Channel, Dist3
from .errors import DimensionCapExceeded, SecrecyForgeError
from .qlinalg import PureState, QState, _check_dims

__all__ = [
    "PhaseAssignment",
    "embed_qqq",
    "embed_cqq",
    "embed_ccq",
    "embed_ccc",
    "pair_state",
    "extension_blocks",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class PhaseAssignment:
    """Phase phi(x,y,z) in [0, 2pi) for every grid point.

    Phases attached to zero-probability entries are accepted and ignored.
    """

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.phi, dtype=float)
        if phi.ndim != 3:
            raise SecrecyForgeError(f"phase grid must be 3-indexed, got {phi.ndim}")
        if not np.isfinite(phi).all():
            raise SecrecyForgeError("phases must be finite")
        phi = np.mod(phi, TWO_PI)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.phi.shape  # type: ignore[return-value]

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "PhaseAssignment":
        return cls(np.zeros(dims))

    @classmethod
    def from_entries(
        cls, dims: tuple[int, int, int], entries: list[dict]
    ) -> "PhaseAssignment":
        """Sparse form: [{"x":..,"y":..,"z":..,"phi":..}] with distinct int indices
        inside dims and number phi (bools, strings rejected); absent entries zero."""
        phi = np.zeros(dims)
        seen: set[tuple[int, int, int]] = set()
        for e in entries:
            try:
                key = (e["x"], e["y"], e["z"])
                if not all(type(k) is int and 0 <= k < n for k, n in zip(key, dims)):
                    raise ValueError(f"x, y, z must be integers inside {dims}")
                if isinstance(e["phi"], bool) or not isinstance(e["phi"], (int, float)):
                    raise ValueError("phi must be a number")
                if key in seen:
                    raise ValueError(f"duplicate phase entry at {key}")
                seen.add(key)
                phi[key] = e["phi"]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SecrecyForgeError(f"bad phase entry {e!r} ({exc})") from exc
        return cls(phi)

    def to_json(self) -> dict:
        xs, ys, zs = np.nonzero(self.phi)
        return {
            "entries": [
                {"x": int(x), "y": int(y), "z": int(z), "phi": float(self.phi[x, y, z])}
                for x, y, z in zip(xs, ys, zs)
            ]
        }


def _amplitudes(d: Dist3, phases: PhaseAssignment | None) -> np.ndarray:
    if phases is None:
        phases = PhaseAssignment.zeros(d.dims)
    if phases.dims != d.dims:
        raise SecrecyForgeError(
            f"phase grid {phases.dims} does not match distribution {d.dims}"
        )
    return np.exp(1j * phases.phi) * np.sqrt(d.p)


def embed_qqq(d: Dist3, phases: PhaseAssignment | None = None) -> PureState:
    """Coherent embedding: amplitudes e^{i phi} sqrt(p) on |xyz>."""
    return PureState(_amplitudes(d, phases).ravel(), d.dims)


def _dephasing_mask(dims: tuple[int, ...], parties: tuple[int, ...]) -> np.ndarray:
    """Entries of a state on ``dims`` that are diagonal in every listed party."""
    idx = np.indices(dims).reshape(len(dims), -1)
    keep = np.ones((idx.shape[1], idx.shape[1]), dtype=bool)
    for party in parties:
        keep &= idx[party][:, None] == idx[party][None, :]
    return keep


def _dephased(
    d: Dist3, phases: PhaseAssignment | None, parties: tuple[int, ...]
) -> QState:
    """The coherent embedding dephased in the listed parties.  The dropped
    entries are set, not multiplied, to 0, so none of them becomes -0."""
    v = _amplitudes(d, phases).ravel()
    keep = _dephasing_mask(d.dims, parties)
    return QState(np.where(keep, np.outer(v, v.conj()), 0), d.dims)


def embed_cqq(d: Dist3, phases: PhaseAssignment | None = None) -> QState:
    """Alice-classical embedding: sum_x p(x) |x><x| (x) |psi_x><psi_x|."""
    return _dephased(d, phases, (0,))


def embed_ccq(d: Dist3, phases: PhaseAssignment | None = None) -> QState:
    """Alice-and-Bob-classical embedding: Eve keeps |psi_xy> coherent."""
    return _dephased(d, phases, (0, 1))


def embed_ccc(d: Dist3) -> QState:
    """Fully incoherent embedding: diag(p)."""
    return QState(np.diag(d.p.ravel()).astype(complex), d.dims)


def _eve_matrix(d: Dist3, phases: PhaseAssignment | None) -> np.ndarray:
    """M, the amplitudes reshaped to (|X||Y|, |Z|), once |X||Y| has passed
    ``rho_dim`` and |X||Y||Z| ``product_states``; nothing larger is built."""
    _check_dims(d.dims[:2], d.dims[0] * d.dims[1])
    cap = config.load_caps().product_states
    if d.p.size > cap:
        raise DimensionCapExceeded(f"|X||Y||Z| = {d.p.size} > cap {cap}")
    return _amplitudes(d, phases).reshape(-1, d.dims[2])


def pair_state(d: Dist3, phases: PhaseAssignment | None = None) -> QState:
    """rho_AB = tr_E of the coherent embedding, as M M^dagger."""
    m = _eve_matrix(d, phases)
    return QState(m @ m.conj().T, d.dims[:2])


def extension_blocks(
    d: Dist3,
    ch: Channel,
    phases: PhaseAssignment | None = None,
    support_eps: float = config.SUPPORT_EPS,
) -> np.ndarray:
    """The blocks p(zbar) sigma_(zbar) = sum_z Pr[zbar|z] M_z M_z^dagger of
    the classical-Eve extension of rho^AB through a channel on Z, stacked as
    (|Zbar|, |X||Y|, |X||Y|).  A z with p(z) <= ``support_eps`` adds nothing;
    the blocks sum to ``pair_state`` when every z is kept.
    """
    dz = d.dims[2]
    if ch.in_dim != dz:
        raise SecrecyForgeError(f"channel input {ch.in_dim} does not match dz={dz}")
    m = (_eve_matrix(d, phases) * (d.p.sum(axis=(0, 1)) > support_eps)).T
    return np.tensordot(ch.k.T, m[:, :, None] * m[:, None, :].conj(), axes=1)
