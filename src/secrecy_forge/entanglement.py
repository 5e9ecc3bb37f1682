"""Entanglement measures for small bipartite states.

Closed forms where they exist (pure-state entropy, two-qubit concurrence
and formation), numerical upper bounds elsewhere:

* both optimized measures first cut rho into its local blocks: the finest
  splits A = (+)A_i, B = (+)B_j of the computational levels under which
  rho is block diagonal.  Then E(rho) = sum_ij p_ij E(rho_ij), ">=" by
  strong LOCC monotonicity (Vedral & Plenio, PRA 57, 1619 (1998) for
  E_r; Bennett, DiVincenzo, Smolin & Wootters, PRA 54, 3824 (1996) for
  E_F) and "<=" by the direct sum of the blocks' separable states or
  decompositions, so a mixture of ebits on local blocks is exact with no
  optimizer step;
* entanglement of formation via Riemannian conjugate gradient over
  pure-state ensembles in the purification-isometry parametrization;
* relative entropy of entanglement bracketed in closed form first: the
  hashing floor max(S(A), S(B)) - S(AB) below and the product-basis
  dephasing ceiling S(Delta rho) - S(rho) above.  Where the two meet
  (pure and maximally correlated states) the value is exact; elsewhere
  a parametrized separable state (mixture of product vectors) is
  minimized by stacked L-BFGS restarts and the smaller of it and the
  ceiling reported;
* squashed entanglement only as the classical-extension upper bound
  (1/2) sum_zbar p(zbar) I(A:B) per block.

Every result is tagged exact / upper_bound / lower_bound; optimizer
outputs are never tagged exact.  Values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .common_info import _component_roots
from .distributions import binary_entropy
from .errors import DimensionCapExceeded, InvalidState, SecrecyForgeError
from .qlinalg import EIG_CLIP, QState, _spectrum_entropy, mutual_info_q

__all__ = [
    "MeasureResult",
    "eof_2q",
    "eof_numeric",
    "esq_classical_extension_bound",
    "rel_ent_upper",
    "negativity_log",
]

LN2 = math.log(2.0)
EIG_FLOOR = 1e-30
OPT_DIM_CAP = 16
EOF_RESTARTS = 32  # formation restarts, alternating the two ensemble sizes
EOF_MAX_ITER = 400  # step cap of each formation restart
EOF_CONV_TOL = 1e-8  # a formation restart converges once two steps gain less
REL_ENT_RESTARTS = 4  # E_r restarts, run where the closed-form bracket stays open
REL_ENT_MIX = 1e-6  # weight of I/d in each E_r candidate: S(rho || sigma) < inf
REL_ENT_MEMORY = 10  # curvature pairs each E_r restart keeps
# Step cap of each E_r restart.  No restart converges in the ftol sense: on
# the one-sided-coherence pair state (E_r <= 1) the four restarts are at
# 1.0000049 after 50 steps, 1.0000016 after 100 and 1.0000009 after 500,
# which take 5.5 times as long as 100.  A millionth of a bit is far below
# every tolerance E_r is compared with.
REL_ENT_MAX_ITER = 100


@dataclass(frozen=True)
class MeasureResult:
    """A named entanglement quantity with its epistemic status."""

    name: str
    value: float
    kind: str  # exact | upper_bound | lower_bound | inconclusive
    method: str
    diagnostics: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.value < -1e-12:
            raise SecrecyForgeError(f"negative measure value {self.value}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "kind": self.kind,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


def _require_bipartite(dims: tuple[int, ...], what: str) -> tuple[int, int]:
    if len(dims) != 2:
        raise SecrecyForgeError(f"{what} expects a bipartite state, got dims {dims}")
    return dims[0], dims[1]


def _schmidt_entropy(amp: np.ndarray, da: int, db: int) -> float:
    s = np.linalg.svd(amp.reshape(da, db), compute_uv=False)
    return _spectrum_entropy(s * s)


_PAULI_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def eof_2q(rho: QState) -> MeasureResult:
    """Two-qubit entanglement of formation (exact) from the concurrence
    C = max(0, l1-l2-l3-l4), l the sorted square roots of the eigenvalues
    of rho (sy x sy) conj(rho) (sy x sy)."""
    if rho.dims != (2, 2):
        raise SecrecyForgeError(f"concurrence needs dims (2,2), got {rho.dims}")
    r = rho.rho
    m = r @ _PAULI_YY @ r.conj() @ _PAULI_YY
    w = np.linalg.eigvals(m)
    lam = np.sqrt(np.clip(np.real(w), 0.0, None))
    lam.sort()
    c = max(0.0, float(lam[3] - lam[2] - lam[1] - lam[0]))
    val = binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)
    return MeasureResult(
        name="E_F",
        value=val,
        kind="exact",
        method="wootters",
        diagnostics={"concurrence": c},
    )


def _local_blocks(
    rho: QState,
) -> list[tuple[float, np.ndarray, np.ndarray, QState]] | None:
    """``_split_blocks(rho)``, computed on first use and kept on rho.

    The split reads only rho, so every measure of one state shares it and
    its validated cell states.  It is kept as an attribute, not a field of
    ``QState``, so repr, equality and ``dataclasses`` never see it.
    """
    try:
        return rho._blocks
    except AttributeError:
        object.__setattr__(rho, "_blocks", _split_blocks(rho))
        return rho._blocks


def _split_blocks(
    rho: QState,
) -> list[tuple[float, np.ndarray, np.ndarray, QState]] | None:
    """The finest split A = (+)A_i, B = (+)B_j of the computational levels
    under which rho is block diagonal.

    Levels a, a' of A (and b, b' of B) are joined whenever
    |rho[(a, b), (a', b')]| > 1e-14.  Returns (p_ij, A levels, B levels,
    rho_ij / p_ij) for each cell of weight p_ij > 1e-12, ordered by
    smallest A level, then smallest B level; None when the split leaves rho
    whole.
    """
    da, db = rho.dims
    linked = np.abs(rho.rho.reshape(da, db, da, db)) > 1e-14
    # one labelling of both level graphs; the shorter side's padding has no edges
    graphs = np.zeros((max(da, db),) * 2 + (2,), bool)
    graphs[:da, :da, 0], graphs[:db, :db, 1] = linked.any(axis=(1, 3)), linked.any(axis=(0, 2))
    roots = _component_roots(graphs)[0]
    roots_a, roots_b = roots[:da, 0], roots[:db, 1]
    if not roots_a.any() and not roots_b.any():  # each side one component
        return None
    diag = np.real(np.diagonal(rho.rho)).reshape(da, db)
    cells = []
    # a component's root is its smallest level, the one that is its own root
    for ra in np.flatnonzero(roots_a == np.arange(da)):
        a_lev = np.flatnonzero(roots_a == ra)
        for rb in np.flatnonzero(roots_b == np.arange(db)):
            b_lev = np.flatnonzero(roots_b == rb)
            p = float(diag[np.ix_(a_lev, b_lev)].sum())
            if p > 1e-12:
                cells.append((p, a_lev, b_lev))
    out = []
    for p, a_lev, b_lev in cells:
        idx = (a_lev[:, None] * db + b_lev[None, :]).ravel()
        block = QState(rho.rho[np.ix_(idx, idx)] / p, (a_lev.size, b_lev.size))
        out.append((p, a_lev, b_lev, block))
    return out


def _blockwise(name: str, rho: QState, whole, bounds: bool = False) -> MeasureResult:
    """sum_ij p_ij E(rho_ij) over the cells of ``_local_blocks``, each cell
    split again in turn; ``whole(rho)`` when rho does not split.

    This is E(rho) for E_F and E_r (see the module docstring).  A block
    with a side of dimension 1 is a product state, exactly 0.  The result
    is exact iff every block's is; its ``iterations`` are the blocks'
    summed, and so are their ``restarts_at_max_iter`` where any reports
    it.  With ``bounds``, so are the blocks' ``lower_bound`` and
    ``upper_bound``; the summed floor stays a lower bound on the
    distillable entanglement, since Alice and Bob can read the cell label
    without disturbing rho and then hash in each cell.
    """
    cells = _local_blocks(rho)
    if cells is None:
        return whole(rho)
    parts = [
        (p, _blockwise(name, block, whole, bounds) if min(block.dims) > 1 else None)
        for p, _, _, block in cells
    ]
    diagnostics: dict = {
        "blocks": [
            {
                "weight": p,
                "dims": list(block.dims),
                "value": m.value if m else 0.0,
                "kind": m.kind if m else "exact",
            }
            for (p, _, _, block), (_, m) in zip(cells, parts)
        ],
        "iterations": sum(m.diagnostics.get("iterations", 0) for _, m in parts if m),
    }
    capped = [m.diagnostics["restarts_at_max_iter"] for _, m in parts
              if m and "restarts_at_max_iter" in m.diagnostics]
    if capped:
        diagnostics["restarts_at_max_iter"] = sum(capped)
    if bounds:
        for key in ("lower_bound", "upper_bound"):
            diagnostics[key] = sum(p * m.diagnostics[key] for p, m in parts if m)
    return MeasureResult(
        name=name,
        value=sum(p * m.value for p, m in parts if m),
        kind="exact" if all(m.kind == "exact" for _, m in parts if m) else "upper_bound",
        method="local-blocks",
        diagnostics=diagnostics,
    )


def _ensemble_energy_grad(
    u: np.ndarray, w: np.ndarray, da: int, db: int
) -> tuple[np.ndarray, np.ndarray]:
    """Average ensemble entanglement and its euclidean Wirtinger gradient,
    for each isometry of a stack.

    u: (n, m, r) stack of isometries; w: (d, r) square-root eigenvector
    matrix of rho.  Member j of ensemble i is c_ij = w @ conj(u[i, j]); the
    value is sum_j [ -tr K_ij log2 K_ij + p_ij log2 p_ij ] with
    K_ij = M_ij M_ij^dag, M_ij the (da, db) reshape of c_ij and
    p_ij = tr K_ij.  Returns the (n,) values and the (n, m, r) gradients.
    """
    n, m = u.shape[:2]
    c = u.conj() @ w.T  # rows are unnormalized member vectors
    mats = c.reshape(n, m, da, db)
    k = mats @ mats.conj().transpose(0, 1, 3, 2)
    ev, vec = np.linalg.eigh(k)
    ev = np.clip(ev, 0.0, None)
    p = ev.sum(axis=2)
    p_safe = np.maximum(p, EIG_FLOOR)
    ev_safe = np.maximum(ev, EIG_FLOOR)
    value = (-ev * np.log2(ev_safe)).reshape(n, m * da).sum(axis=1) + (
        p * np.log2(p_safe)
    ).sum(axis=1)
    # G_ij = (log2(p_ij) I - log2 K_ij) M_ij, via the eigenbasis of K_ij
    scale = np.log2(p_safe)[:, :, None] - np.log2(ev_safe)
    inner = vec.conj().transpose(0, 1, 3, 2) @ mats
    g = vec @ (scale[..., None] * inner)
    grad_u = g.reshape(n, m, da * db).conj() @ w  # d E / d conj(U)
    return value, grad_u


def _stiefel_project(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    s = u.conj().transpose(0, 2, 1) @ g
    return g - u @ ((s + s.conj().transpose(0, 2, 1)) / 2.0)


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each pair of matrices of two stacks."""
    return np.einsum("nij,nij->n", a.conj(), b).real


def _qr_retract(u: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(u)
    ph = np.diagonal(r, axis1=1, axis2=2).copy()
    ph = np.where(np.abs(ph) < 1e-14, 1.0, ph / np.abs(ph))
    return q * ph[:, None, :]


# Why a restart of the formation optimizer stopped.
CONVERGED, STALLED, AT_MAX_ITER = range(3)


def _descend(
    u: np.ndarray, w: np.ndarray, da: int, db: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian conjugate gradient on a stack of isometries, one restart
    each (Abrudan, Eriksson & Koivunen, Signal Processing 89, 1704 (2009)).

    The direction is eta = -grad + beta T(eta_prev), with grad the tangent
    gradient, beta the Polak-Ribiere+ coefficient and T the projection onto
    the new tangent space; where eta does not descend, it is -grad.  Each
    restart keeps its own Armijo step size, which doubles after each
    accepted step, and leaves the stack when it stops: CONVERGED when the
    tangent gradient vanishes or a second step gains less than
    ``EOF_CONV_TOL`` (one short step is no plateau), STALLED when 30 step
    halvings find no sufficient decrease, AT_MAX_ITER after ``EOF_MAX_ITER``
    steps.  Only the restarts still backtracking are evaluated again.
    Returns the final values, the iteration counts and the stop reasons,
    all of shape (n,).
    """
    n = u.shape[0]
    val, grad = _ensemble_energy_grad(u, w, da, db)
    tang = _stiefel_project(u, grad)
    sq = _re_inner(tang, tang)
    eta = -tang
    step = np.ones(n)
    iters = np.zeros(n, dtype=int)
    stop = np.full(n, AT_MAX_ITER)
    small_gains = np.zeros(n, dtype=int)
    live = np.arange(n)
    for _ in range(EOF_MAX_ITER):
        if not live.size:
            break
        iters[live] += 1
        flat = sq[live] < 1e-18
        stop[live[flat]] = CONVERGED
        live = live[~flat]
        slope = _re_inner(tang[live], eta[live])
        up = slope >= 0.0
        eta[live[up]] = -tang[live[up]]
        slope[up] = -sq[live[up]]
        # Armijo backtracking on the retracted step
        cand = np.empty_like(eta[live])
        cgrad = np.empty_like(cand)
        cval = np.empty(live.size)
        pend = np.arange(live.size)
        for _ in range(30):
            if not pend.size:
                break
            idx = live[pend]
            c = _qr_retract(u[idx] + step[idx, None, None] * eta[idx])
            v, g = _ensemble_energy_grad(c, w, da, db)
            ok = v <= val[idx] + 0.1 * step[idx] * slope[pend]
            cand[pend[ok]], cval[pend[ok]], cgrad[pend[ok]] = c[ok], v[ok], g[ok]
            step[idx[~ok]] *= 0.5
            pend = pend[~ok]
        stop[live[pend]] = STALLED
        acc = np.ones(live.size, dtype=bool)
        acc[pend] = False
        live, cand = live[acc], cand[acc]
        moved = val[live] - cval[acc]
        new = _stiefel_project(cand, cgrad[acc])
        # T is self-adjoint, so <new, T(tang)> = <new, tang>
        beta = np.maximum(_re_inner(new, new - tang[live]) / sq[live], 0.0)
        eta[live] = beta[:, None, None] * _stiefel_project(cand, eta[live]) - new
        u[live], val[live], tang[live], sq[live] = cand, cval[acc], new, _re_inner(new, new)
        step[live] *= 2.0
        small_gains[live] += moved < EOF_CONV_TOL
        small = small_gains[live] == 2
        stop[live[small]] = CONVERGED
        live = live[~small]
    return val, iters, stop


def eof_numeric(rho: QState, seed: int = 0) -> MeasureResult:
    """Entanglement of formation by ensemble optimization (upper bound).

    Decompositions of rho are parametrized as isometries applied to the
    eigen-ensemble; each of ``EOF_RESTARTS`` restarts runs Riemannian
    conjugate gradient on the isometry manifold with Armijo backtracking
    and QR retraction.  Restarts alternate between rank-sized and
    rank-squared ensembles: the small manifold converges tightly when few
    decomposition members suffice, the large one keeps the general
    attainability guarantee.  All restarts of one ensemble size descend
    together as one stack.  Restart 0 starts at the identity isometry, the
    others at random ones drawn in restart order, so the result is
    deterministic for a fixed seed.

    The diagnostics count how each restart stopped: ``restarts_converged``
    (the tangent gradient vanished or a second step gained less than
    ``EOF_CONV_TOL``), ``restarts_stalled`` (the line search found no
    decrease in 30 halvings) and ``restarts_at_max_iter``.

    A rho that splits into local blocks is measured block by block
    (``_blockwise``), each block with the same seed.  A pure block is exact
    at any size; the descent refuses a block of more than ``OPT_DIM_CAP``
    dimensions.
    """
    _require_bipartite(rho.dims, "eof_numeric")
    return _blockwise("E_F", rho, lambda block: _eof_whole(block, seed))


def _eof_whole(rho: QState, seed: int) -> MeasureResult:
    """``eof_numeric`` on a state that does not split into local blocks."""
    da, db = rho.dims
    ev, vec = np.linalg.eigh(rho.rho)
    keep = ev > 1e-12
    r = int(keep.sum())
    w = vec[:, keep] * np.sqrt(ev[keep])  # d x r
    if r == 1:
        return MeasureResult(
            name="E_F",
            value=_schmidt_entropy(w[:, 0], da, db),
            kind="exact",
            method="pure-state",
            diagnostics={"rank": 1},
        )
    if da * db > OPT_DIM_CAP:
        raise DimensionCapExceeded(f"dimension {da * db} exceeds optimizer cap {OPT_DIM_CAP}")
    sizes = (r, r * r)
    rng = np.random.default_rng(seed)
    starts = []
    for restart in range(EOF_RESTARTS):
        mr = sizes[restart % len(sizes)]
        if restart == 0:
            starts.append(np.eye(mr, r, dtype=complex))
        else:
            g = rng.normal(size=(mr, r)) + 1j * rng.normal(size=(mr, r))
            starts.append(_qr_retract(g[None])[0])
    values = np.empty(len(starts))
    iters = np.zeros(len(starts), dtype=int)
    stops = np.empty(len(starts), dtype=int)
    for first in range(len(sizes)):
        ids = np.arange(first, len(starts), len(sizes))
        if not ids.size:
            continue
        u = np.stack([starts[i] for i in ids])
        values[ids], iters[ids], stops[ids] = _descend(u, w, da, db)
    best_restart = int(np.argmin(values))
    return MeasureResult(
        name="E_F",
        value=float(values[best_restart]),
        kind="upper_bound",
        method="isometry-ensemble-descent",
        diagnostics={
            "restarts": EOF_RESTARTS,
            "seed": seed,
            "ensemble_size": r * r,
            "rank": r,
            "best_restart": best_restart,
            "iterations": int(iters.sum()),
            "restarts_converged": int((stops == CONVERGED).sum()),
            "restarts_stalled": int((stops == STALLED).sum()),
            "restarts_at_max_iter": int((stops == AT_MAX_ITER).sum()),
        },
    )


def esq_classical_extension_bound(sigma: QState) -> MeasureResult:
    """(1/2) sum_zbar p(zbar) I(A:B) over the classical third register.

    Upper-bounds the squashed entanglement of tr_Zbar sigma.
    """
    if len(sigma.dims) != 3:
        raise SecrecyForgeError(
            f"extension bound expects dims (A, B, Zbar), got {sigma.dims}"
        )
    da, db, dz = sigma.dims
    n = da * db
    r = sigma.rho.reshape(da, db, dz, da, db, dz)
    if np.abs(r * ~np.eye(dz, dtype=bool)[:, None, None, :]).max() > 1e-10:
        raise InvalidState("third register is not classical (off-diagonal blocks)")
    # the diagonal blocks r[:, :, z, :, :, z], stacked
    blocks = np.einsum("abzcdz->zabcd", r).reshape(dz, n, n)
    return _extension_bound(blocks, (da, db))


def _extension_bound(blocks: np.ndarray, dims: tuple[int, int]) -> MeasureResult:
    """(1/2) sum_zbar p(zbar) I(A:B) over the stacked blocks p(zbar) sigma_(zbar)."""
    value = 0.0
    weights = []
    for block in blocks:
        pz = float(np.real(np.trace(block)))
        weights.append(pz)
        if pz > 1e-12:
            value += 0.5 * pz * mutual_info_q(QState(block / pz, dims))
    return MeasureResult(
        name="E_sq",
        value=value,
        kind="upper_bound",
        method="classical-extension",
        diagnostics={"block_weights": weights},
    )


# ---------------------------------------------------------------------------
# relative entropy of entanglement, upper bound via product-vector mixtures


def _rel_ent_objective(
    x: np.ndarray,
    rho: np.ndarray,
    rho_log_rho: float,
    k: int,
    da: int,
    db: int,
) -> tuple[np.ndarray, np.ndarray]:
    """S(rho || sigma(x_i)) in bits and its gradient, for each row x_i of
    a stack of parameter vectors.

    A row holds the k softmax logits theta, then Re a, Im a (k vectors of
    length da) and Re b, Im b (k vectors of length db); sigma is the
    mixture of the normalized product vectors a_j (x) b_j with weights
    softmax(theta), blended with I/d at weight ``REL_ENT_MIX``.
    ``rho_log_rho`` is the constant tr rho log2 rho, computed once by the
    caller.  Returns the (n,) values and the (n, P) gradients; all rows
    share one batched ``eigh``."""
    n = x.shape[0]
    d = da * db
    na, nb = k * da, k * db
    theta = x[:, :k]
    a = (x[:, k : k + na] + 1j * x[:, k + na : k + 2 * na]).reshape(n, k, da)
    off = k + 2 * na
    b = (x[:, off : off + nb] + 1j * x[:, off + nb : off + 2 * nb]).reshape(n, k, db)
    q = np.exp(theta - theta.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    norm_a = np.sqrt(np.maximum(np.einsum("nki,nki->nk", a.conj(), a).real, 1e-300))
    norm_b = np.sqrt(np.maximum(np.einsum("nki,nki->nk", b.conj(), b).real, 1e-300))
    av = a / norm_a[..., None]
    bv = b / norm_b[..., None]
    prod = (av[..., :, None] * bv[..., None, :]).reshape(n, k, d)
    keep = 1.0 - REL_ENT_MIX
    w = keep * q
    sigma = (prod * w[..., None]).transpose(0, 2, 1) @ prod.conj() + (
        REL_ENT_MIX / d
    ) * np.eye(d)
    s, v = np.linalg.eigh(sigma)
    s = np.maximum(s, 1e-300)
    ls = np.log(s)
    vrv = v.conj().transpose(0, 2, 1) @ rho @ v
    cross = np.einsum("nii,ni->n", vrv, ls).real / LN2
    value = rho_log_rho - cross

    # Frechet derivative P of -tr[rho log2 sigma] wrt sigma, per row
    diff_s = s[:, :, None] - s[:, None, :]
    same = np.abs(diff_s) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (ls[:, :, None] - ls[:, None, :]) / np.where(same, 1.0, diff_s)
    lmat = np.where(same, 1.0 / s[:, None, :], ratio)
    p_mat = -(v @ (vrv * lmat) @ v.conj().transpose(0, 2, 1)) / LN2  # Hermitian

    # <psi_j| P |psi_j> and the partial contractions of P psi_j with the
    # conjugate of one factor: d/d conj(a_j) of w_j <psi_j|P|psi_j>
    p_psi = prod @ p_mat.transpose(0, 2, 1)
    vals = np.einsum("nki,nki->nk", prod.conj(), p_psi).real
    g_theta = q * (keep * vals - np.sum(w * vals, axis=1, keepdims=True))
    p_psi = p_psi.reshape(n, k, da, db) * w[..., None, None]
    wv = (w * vals)[..., None]
    g_a = (np.einsum("nkij,nkj->nki", p_psi, bv.conj()) - wv * av) / norm_a[..., None]
    g_b = (np.einsum("nkij,nki->nkj", p_psi, av.conj()) - wv * bv) / norm_b[..., None]
    grad = np.concatenate(
        [
            g_theta,
            2.0 * g_a.real.reshape(n, na),
            2.0 * g_a.imag.reshape(n, na),
            2.0 * g_b.real.reshape(n, nb),
            2.0 * g_b.imag.reshape(n, nb),
        ],
        axis=1,
    )
    return value, grad


def _lbfgs(x: np.ndarray, args: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked L-BFGS on ``_rel_ent_objective``, one restart per row of x.

    Each restart keeps its last ``REL_ENT_MEMORY`` curvature pairs (a pair
    is stored only when s.y > 1e-10 |y|^2) and takes the two-loop
    direction with Armijo backtracking from step 1; its first step and any
    step that is not a descent direction fall back to -g / |g|.  A restart
    leaves the stack when a step gains less than 1e-12 relative to the
    value, when no gradient entry exceeds 1e-10 in magnitude, when 30
    halvings find no sufficient decrease,
    or after ``REL_ENT_MAX_ITER`` steps.  Only the restarts still
    backtracking are evaluated again.  Returns the final values and the
    iteration counts, both of shape (n,), and the restarts still live
    when the step cap ran out.
    """
    n, dim = x.shape
    val, grad = _rel_ent_objective(x, *args)
    s_hist = np.zeros((n, REL_ENT_MEMORY, dim))  # newest pair first
    y_hist = np.zeros((n, REL_ENT_MEMORY, dim))
    rho_hist = np.zeros((n, REL_ENT_MEMORY))  # 1 / s.y, 0 for an empty slot
    iters = np.zeros(n, dtype=int)
    live = np.arange(n)
    for _ in range(REL_ENT_MAX_ITER):
        if not live.size:
            break
        iters[live] += 1
        g = grad[live]
        flat = np.abs(g).max(axis=1) <= 1e-10
        live, g = live[~flat], g[~flat]
        # two-loop recursion; empty slots hold zeros and change nothing
        sh, yh, rh = s_hist[live], y_hist[live], rho_hist[live]
        r = g.copy()
        alpha = np.zeros((live.size, REL_ENT_MEMORY))
        for j in range(REL_ENT_MEMORY):
            alpha[:, j] = rh[:, j] * np.einsum("ni,ni->n", sh[:, j], r)
            r -= alpha[:, j, None] * yh[:, j]
        yy = np.einsum("ni,ni->n", yh[:, 0], yh[:, 0])
        gamma = np.where(rh[:, 0] > 0, 1.0 / np.maximum(rh[:, 0] * yy, 1e-300), 0.0)
        r *= gamma[:, None]
        for j in reversed(range(REL_ENT_MEMORY)):
            beta = rh[:, j] * np.einsum("ni,ni->n", yh[:, j], r)
            r += (alpha[:, j] - beta)[:, None] * sh[:, j]
        direc = -r
        slope = np.einsum("ni,ni->n", g, direc)
        reset = ~(slope < 0.0)
        if reset.any():
            gn = np.linalg.norm(g[reset], axis=1)
            direc[reset] = -g[reset] / gn[:, None]
            slope[reset] = -gn
            s_hist[live[reset]] = 0.0
            y_hist[live[reset]] = 0.0
            rho_hist[live[reset]] = 0.0
        # Armijo backtracking from step 1
        step = np.ones(live.size)
        cand = np.empty_like(g)
        cgrad = np.empty_like(g)
        cval = np.empty(live.size)
        pend = np.arange(live.size)
        for _ in range(30):
            if not pend.size:
                break
            idx = live[pend]
            c = x[idx] + step[pend, None] * direc[pend]
            v, gc = _rel_ent_objective(c, *args)
            ok = v <= val[idx] + 1e-4 * step[pend] * slope[pend]
            cand[pend[ok]], cval[pend[ok]], cgrad[pend[ok]] = c[ok], v[ok], gc[ok]
            step[pend[~ok]] *= 0.5
            pend = pend[~ok]
        acc = np.ones(live.size, dtype=bool)
        acc[pend] = False
        live = live[acc]
        s_new = cand[acc] - x[live]
        y_new = cgrad[acc] - grad[live]
        sy = np.einsum("ni,ni->n", s_new, y_new)
        gain = val[live] - cval[acc]
        scale = np.maximum(np.maximum(np.abs(val[live]), np.abs(cval[acc])), 1.0)
        x[live], val[live], grad[live] = cand[acc], cval[acc], cgrad[acc]
        curved = sy > 1e-10 * np.einsum("ni,ni->n", y_new, y_new)
        upd = live[curved]
        s_hist[upd] = np.roll(s_hist[upd], 1, axis=1)
        y_hist[upd] = np.roll(y_hist[upd], 1, axis=1)
        rho_hist[upd] = np.roll(rho_hist[upd], 1, axis=1)
        s_hist[upd, 0], y_hist[upd, 0] = s_new[curved], y_new[curved]
        rho_hist[upd, 0] = 1.0 / sy[curved]
        live = live[gain > 1e-12 * scale]
    return val, iters, live


def _rel_ent_bracket(
    r: np.ndarray, da: int, db: int, s_ab: float
) -> tuple[float, float]:
    """Closed-form bounds on E_r of the (da*db)-dim density matrix r with
    entropy ``s_ab``.

    Returns (floor, ceiling) in bits.  The floor is the hashing
    bound max(S(A), S(B)) - S(AB) (Plenio, Virmani & Papadopoulos, J. Phys.
    A 33, L193 (2000)).  The ceiling is S(Delta r) - S(r) = S(r || Delta r)
    for Delta the dephasing in a product basis, whose output is separable:
    the smaller of the computational basis and the eigenbases of
    r_A (x) r_B.  It meets the floor on maximally correlated states (Rains,
    PRA 60, 179 (1999)).  Both are clamped at 0.
    """
    t = r.reshape(da, db, da, db)
    ea, ua = np.linalg.eigh(np.einsum("ijkj->ik", t))
    eb, ub = np.linalg.eigh(np.einsum("ijil->jl", t))
    floor = max(_spectrum_entropy(ea), _spectrum_entropy(eb)) - s_ab
    local = np.kron(ua, ub)
    local_diag = np.einsum("ki,kl,li->i", local.conj(), r, local).real
    ceiling = (
        min(_spectrum_entropy(np.diag(r).real), _spectrum_entropy(local_diag)) - s_ab
    )
    return max(0.0, floor), max(0.0, ceiling)


def rel_ent_upper(
    rho: QState,
    seed: int = 0,
    tol: float = config.ENTROPY_TOL,
) -> MeasureResult:
    """Relative entropy of entanglement: exact where a closed-form bracket
    closes, an upper bound otherwise.

    A pure rho is exact at its Schmidt entropy.  Otherwise the hashing
    floor and the dephasing ceiling of ``_rel_ent_bracket`` are computed
    first; when they lie within ``tol`` the ceiling is reported as exact
    and no optimizer runs.  Only an open bracket runs the optimizer: it
    minimizes S(rho || sigma) over sigma = mixtures of k = 2 * dim(rho)
    product vectors (softmax weights, analytic gradients), with sigma
    blended with the maximally mixed state at weight ``REL_ENT_MIX`` so the
    relative entropy stays finite; the blend is itself separable, so every
    optimizer value is a valid upper bound.  Of ``REL_ENT_RESTARTS``
    restarts, restart 0 starts at the computational-basis dephasing, the
    others at random points drawn in restart order; all descend together as
    one stack (``_lbfgs``, at most ``REL_ENT_MAX_ITER`` steps each).  The
    smaller of the best value and the ceiling is reported.  Deterministic
    for a fixed seed.  The diagnostics carry the bracket as ``lower_bound``
    and ``upper_bound`` and the optimizer's ``iterations``, the steps
    summed over restarts (0 when it did not run); a run of the optimizer
    adds ``restarts_at_max_iter``, the restarts that its step cap cut.

    A rho that splits into local blocks is measured block by block
    (``_blockwise``), each block with the same seed and ``tol``.  A closed
    bracket is exact at any size; the optimizer refuses a block of more
    than ``OPT_DIM_CAP`` dimensions.
    """
    _require_bipartite(rho.dims, "rel_ent_upper")
    return _blockwise(
        "E_r", rho, lambda block: _rel_ent_whole(block, seed, tol), bounds=True
    )


def _is_pure(rho: QState) -> bool:
    """True when rho's validation spectrum has one eigenvalue above ``EIG_CLIP``."""
    return int((rho.spectrum > EIG_CLIP).sum()) == 1


def _rel_ent_whole(rho: QState, seed: int, tol: float) -> MeasureResult:
    """``rel_ent_upper`` on a state that does not split into local blocks."""
    da, db = rho.dims
    k = 2 * da * db
    s_ab = _spectrum_entropy(rho.spectrum)
    if _is_pure(rho):
        ev, vec = np.linalg.eigh(rho.rho)
        floor = ceiling = _schmidt_entropy(vec[:, -1] * math.sqrt(ev[-1]), da, db)
        method = "pure-state"
    else:
        floor, ceiling = _rel_ent_bracket(rho.rho, da, db, s_ab)
        method = "hashing-dephasing-bracket"
    if ceiling - floor <= tol:
        return MeasureResult(
            name="E_r",
            value=ceiling,
            kind="exact",
            method=method,
            diagnostics={"lower_bound": floor, "upper_bound": ceiling, "iterations": 0},
        )
    if da * db > OPT_DIM_CAP:
        raise DimensionCapExceeded(f"dimension {da * db} exceeds optimizer cap {OPT_DIM_CAP}")
    rng = np.random.default_rng(seed)
    diag = np.clip(np.real(np.diag(rho.rho)), 0.0, None)

    def basis_start() -> np.ndarray:
        theta = np.full(k, -6.0)
        a = np.zeros((k, da), dtype=complex)
        b = np.zeros((k, db), dtype=complex)
        idx = 0
        for i in range(da):
            for j in range(db):
                theta[idx] = math.log(max(diag[i * db + j], 1e-8))
                a[idx, i] = 1.0
                b[idx, j] = 1.0
                idx += 1
        while idx < k:
            a[idx] = rng.normal(size=da) + 1j * rng.normal(size=da)
            b[idx] = rng.normal(size=db) + 1j * rng.normal(size=db)
            idx += 1
        return _pack(theta, a, b)

    def random_start() -> np.ndarray:
        theta = rng.normal(size=k)
        a = rng.normal(size=(k, da)) + 1j * rng.normal(size=(k, da))
        b = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
        return _pack(theta, a, b)

    def _pack(theta, a, b) -> np.ndarray:
        return np.concatenate(
            [theta, a.real.ravel(), a.imag.ravel(), b.real.ravel(), b.imag.ravel()]
        )

    x0 = np.stack([basis_start()] + [random_start() for _ in range(REL_ENT_RESTARTS - 1)])
    values, iters, capped = _lbfgs(x0, (rho.rho, -s_ab, k, da, db))
    best_restart = int(np.argmin(values))
    best = float(values[best_restart])
    value = max(0.0, min(best, ceiling))
    return MeasureResult(
        name="E_r",
        value=value,
        kind="upper_bound",
        method="product-mixture-lbfgs",
        diagnostics={
            "k_terms": k,
            "restarts": REL_ENT_RESTARTS,
            "seed": seed,
            "mixing": REL_ENT_MIX,
            "best_restart": best_restart,
            "iterations": int(iters.sum()),
            "restarts_at_max_iter": int(capped.size),
            "optimizer_value": best,
            "lower_bound": floor,
            "upper_bound": value,
        },
    )


def negativity_log(rho: QState) -> MeasureResult:
    """Logarithmic negativity log2 ||rho^{T_B}||_1 (exact).

    The value is computed exactly from the partial transpose.  It is an
    upper bound on the distillable entanglement (Vidal & Werner, PRA 65,
    032314 (2002)) and a witness: a positive value proves rho entangled.
    It bounds neither E_F nor E_r from below: on sqrt(0.9)|00> +
    sqrt(0.1)|11> it is 0.678 while E_F = E_r = 0.469.
    """
    da, db = _require_bipartite(rho.dims, "negativity_log")
    pt = rho.rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    w = np.linalg.eigvalsh(pt)
    return MeasureResult(
        name="neg",
        value=max(0.0, float(np.log2(np.abs(w).sum()))),
        kind="exact",
        method="partial-transpose",
    )
