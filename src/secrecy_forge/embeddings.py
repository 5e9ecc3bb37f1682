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

Also here: the Eve-side classical extension sigma_{ABZbar} obtained by
pushing Eve's symbol through a channel and dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .distributions import Channel, Dist3
from .errors import SecrecyForgeError
from .qlinalg import PureState, QState

__all__ = [
    "PhaseAssignment",
    "embed_qqq",
    "embed_cqq",
    "embed_ccq",
    "embed_ccc",
    "extension_sigma",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
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
        """Sparse form: [{"x":..,"y":..,"z":..,"phi":..}] with int indices
        inside dims and number phi (bools, strings rejected); absent entries zero."""
        phi = np.zeros(dims)
        for e in entries:
            try:
                key = (e["x"], e["y"], e["z"])
                if not all(type(k) is int and 0 <= k < n for k, n in zip(key, dims)):
                    raise ValueError(f"x, y, z must be integers inside {dims}")
                if isinstance(e["phi"], bool) or not isinstance(e["phi"], (int, float)):
                    raise ValueError("phi must be a number")
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


def embed_cqq(d: Dist3, phases: PhaseAssignment | None = None) -> QState:
    """Alice-classical embedding: sum_x p(x) |x><x| (x) |psi_x><psi_x|."""
    amp = _amplitudes(d, phases)
    dx, dy, dz = d.dims
    n = dy * dz
    rho = np.zeros((dx * n, dx * n), dtype=complex)
    for x in range(dx):
        # p(x) |psi_x><psi_x| has entries amp[x,y,z] amp*[x,y',z']
        v = amp[x].ravel()
        rho[x * n : (x + 1) * n, x * n : (x + 1) * n] = np.outer(v, v.conj())
    return QState(rho, d.dims)


def embed_ccq(d: Dist3, phases: PhaseAssignment | None = None) -> QState:
    """Alice-and-Bob-classical embedding: Eve keeps |psi_xy> coherent."""
    amp = _amplitudes(d, phases)
    dx, dy, dz = d.dims
    rho = np.zeros((dx * dy * dz, dx * dy * dz), dtype=complex)
    for x in range(dx):
        for y in range(dy):
            v = amp[x, y]
            base = (x * dy + y) * dz
            rho[base : base + dz, base : base + dz] = np.outer(v, v.conj())
    return QState(rho, d.dims)


def embed_ccc(d: Dist3) -> QState:
    """Fully incoherent embedding: diag(p)."""
    return QState(np.diag(d.p.ravel()).astype(complex), d.dims)


def extension_sigma(
    d: Dist3,
    ch: Channel,
    phases: PhaseAssignment | None = None,
    support_eps: float = config.SUPPORT_EPS,
) -> QState:
    """Classical-Eve extension of rho^AB through a channel on Z.

    sigma = sum_zbar p(zbar) sigma_(zbar) (x) |zbar><zbar| with
    sigma_(zbar) = sum_z p(z|zbar) |phi_z><phi_z| and
    <xy|phi_z> = e^{i phi(x,y,z)} sqrt(p(x,y|z)).  Tracing out the third
    register recovers tr_E of the coherent embedding.
    """
    dx, dy, dz = d.dims
    if ch.in_dim != dz:
        raise SecrecyForgeError(f"channel input {ch.in_dim} does not match dz={dz}")
    amp = _amplitudes(d, phases)
    pz = d.p.sum(axis=(0, 1))
    n = dx * dy
    phis = np.zeros((dz, n), dtype=complex)
    for z in range(dz):
        if pz[z] > support_eps:
            phis[z] = amp[:, :, z].ravel() / math.sqrt(pz[z])
    dzbar = ch.out_dim
    rho = np.zeros((n * dzbar, n * dzbar), dtype=complex)
    for zbar in range(dzbar):
        block = np.zeros((n, n), dtype=complex)
        for z in range(dz):
            w = pz[z] * ch.k[z, zbar]  # p(zbar) p(z|zbar) = p(z) Pr[zbar|z]
            if w > 0.0:
                block += w * np.outer(phis[z], phis[z].conj())
        # third register is minor: index (x,y,zbar) = (x*dy+y)*dzbar + zbar
        sel = range(zbar, n * dzbar, dzbar)
        rho[np.ix_(sel, sel)] = block
    return QState(rho, (dx, dy, dzbar))
