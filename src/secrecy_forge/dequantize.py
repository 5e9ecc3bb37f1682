"""Round-based public-communication protocols on incoherent inputs.

A protocol is a tree of local instruments: Alice acts in the odd-numbered
rounds, Bob in the even ones, every node is conditioned on the full public
transcript so far, and after the last round each party applies a final
local channel conditioned on the whole transcript.  On an incoherent input
(the diagonal embedding of a distribution) any such protocol is matched by
a purely classical one whose broadcast kernels are trace ratios of the
acting party's accumulated CP map and whose output channels are the
diagonals of the leaf states.  Both sides are evaluated here by exact
enumeration, and their output laws over (A', B', E, M) are compared in
total-variation distance: E and M stay classical, so that is the trace
distance between the two outputs once A' and B' are measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .distributions import Dist3, product_power
from .errors import DimensionCapExceeded, InvalidChannel, InvalidProtocol

__all__ = [
    "History",
    "InstrumentTree",
    "verify_equivalence",
    "random_instrument_tree",
]

History = tuple[int, ...]

# Trace preservation required of every node and leaf channel.
NODE_TOL = 1e-10


def _as_kraus(ops, din: int, where: str) -> tuple[np.ndarray, ...]:
    """Normalize one CP map to a tuple of frozen complex (dout, din) arrays."""
    ops = tuple(ops)
    if not ops:
        raise InvalidProtocol(f"{where}: CP map with no Kraus operators")
    out: list[np.ndarray] = []
    dout = None
    for op in ops:
        arr = np.array(op, dtype=complex, copy=True)
        if arr.ndim != 2 or arr.shape[1] != din:
            raise InvalidProtocol(
                f"{where}: Kraus operator shape {arr.shape}, expected (*, {din})"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidProtocol(f"{where}: non-finite Kraus entry")
        if dout is None:
            dout = arr.shape[0]
        elif arr.shape[0] != dout:
            raise InvalidProtocol(f"{where}: Kraus operators disagree on output dim")
        arr.setflags(write=False)
        out.append(arr)
    return tuple(out)


def _completeness_defect(maps: tuple[tuple[np.ndarray, ...], ...], din: int) -> float:
    total = np.zeros((din, din), dtype=complex)
    for kraus in maps:
        for op in kraus:
            total += op.conj().T @ op
    return float(np.abs(total - np.eye(din)).max())


def _walk(rounds: int, root, expand) -> list[tuple[History, object]]:
    """Level-order walk of a protocol tree, one visit per node.

    ``root`` is the state at the empty transcript, and ``expand(h, state)``
    returns the states of node h's children, one per broadcast outcome.
    Returns every full transcript with its state, in lexicographic
    (broadcast) order.
    """
    level = [((), root)]
    for _ in range(rounds):
        level = [
            (h + (m,), child)
            for h, state in level
            for m, child in enumerate(expand(h, state))
        ]
    return level


@dataclass(frozen=True, eq=False)
class InstrumentTree:
    """Protocol tree of local instruments plus per-transcript leaf channels.

    ``instruments`` maps each transcript prefix ``i_<k`` to the node applied
    in round ``k = len(prefix) + 1``; odd rounds act on Alice's space, even
    rounds on Bob's.  A node is a tuple of CP maps (one per broadcast
    outcome), each a tuple of Kraus operators.  ``leaf_a`` / ``leaf_b`` map
    every full transcript to the party's final trace-preserving channel.
    Output dimensions may differ from input dimensions but must agree
    across leaves.  A node or leaf that no transcript reaches is an error.
    """

    rounds: int
    dim_a: int
    dim_b: int
    instruments: dict[History, tuple[tuple[np.ndarray, ...], ...]] = field(
        default_factory=dict
    )
    leaf_a: dict[History, tuple[np.ndarray, ...]] = field(default_factory=dict)
    leaf_b: dict[History, tuple[np.ndarray, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.rounds % 2 != 0:
            raise InvalidProtocol(f"rounds must be even and >= 0, got {self.rounds}")
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidProtocol(f"bad local dims ({self.dim_a}, {self.dim_b})")
        instruments: dict[History, tuple[tuple[np.ndarray, ...], ...]] = {}

        def expand(h: History, dims: tuple[int, int]) -> list[tuple[int, int]]:
            if h not in self.instruments:
                raise InvalidProtocol(f"missing instrument for transcript {h}")
            alice = len(h) % 2 == 0
            din = dims[0] if alice else dims[1]
            node = tuple(
                _as_kraus(cp, din, f"node{h}[{m}]")
                for m, cp in enumerate(self.instruments[h])
            )
            if not node:
                raise InvalidProtocol(f"node{h}: instrument with no outcomes")
            defect = _completeness_defect(node, din)
            if defect > NODE_TOL:
                raise InvalidChannel(
                    f"node{h} not trace preserving (defect {defect:.2e})"
                )
            instruments[h] = node
            return [
                (cp[0].shape[0], dims[1]) if alice else (dims[0], cp[0].shape[0])
                for cp in node
            ]

        # Each full transcript carries the acting dims reached along its path.
        leaves = _walk(self.rounds, (self.dim_a, self.dim_b), expand)
        if stray := self.instruments.keys() - instruments.keys():
            raise InvalidProtocol(f"no transcript reaches node(s) {stray}")
        for reg, given, k in (("a", self.leaf_a, 0), ("b", self.leaf_b, 1)):
            maps = {}
            for h, dims in leaves:
                if h not in given:
                    raise InvalidProtocol(f"missing leaf_{reg} for transcript {h}")
                kraus = _as_kraus(given[h], dims[k], f"leaf_{reg}{h}")
                defect = _completeness_defect((kraus,), dims[k])
                if defect > NODE_TOL:
                    raise InvalidChannel(
                        f"leaf_{reg}{h} not trace preserving (defect {defect:.2e})"
                    )
                maps[h] = kraus
            if stray := given.keys() - maps.keys():
                raise InvalidProtocol(f"no transcript reaches leaf_{reg} {stray}")
            out_dims = {maps[h][0].shape[0] for h, _ in leaves}
            if len(out_dims) != 1:
                raise InvalidProtocol(
                    f"leaf_{reg} output dims disagree across transcripts"
                )
            object.__setattr__(self, f"leaf_{reg}", maps)
            object.__setattr__(self, f"out_{reg}", out_dims.pop())
        object.__setattr__(self, "instruments", instruments)
        object.__setattr__(self, "_histories", tuple(h for h, _ in leaves))

    def histories(self) -> tuple[History, ...]:
        """All full transcripts in lexicographic (broadcast) order."""
        return self._histories


# ---------------------------------------------------------------------------
# exact simulation


def _basis_stack(dim: int) -> np.ndarray:
    """Stack of computational basis projectors, shape (dim, dim, dim)."""
    eye = np.eye(dim)
    return np.einsum("xi,xj->xij", eye, eye).astype(complex)


def _apply_cp(kraus: tuple[np.ndarray, ...], stack: np.ndarray) -> np.ndarray:
    """Apply sum_j K_j rho K_j^dag to every matrix in a stack."""
    out = None
    for op in kraus:
        term = np.einsum("oi,xij,pj->xop", op, stack, op.conj())
        out = term if out is None else out + term
    return out


def _path_maps(
    tree: InstrumentTree,
) -> tuple[dict[History, np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Apply each CP map of the tree once per path, on basis inputs.

    Returns, per node, the traces of its outcome maps (rows: the acting
    party's original symbol, columns: outcomes), and, per full transcript
    in ``tree.histories()`` order, each party's composed map.  Those
    stacks are unnormalized: the trace of entry s is the probability of
    the transcript given original symbol s.
    """
    traces: dict[History, np.ndarray] = {}

    def expand(h: History, state: tuple[np.ndarray, np.ndarray]) -> list:
        sa, sb = state
        alice = len(h) % 2 == 0
        children = [_apply_cp(cp, sa if alice else sb) for cp in tree.instruments[h]]
        traces[h] = np.stack(
            [np.einsum("xii->x", child).real for child in children], axis=1
        )
        return [(child, sb) if alice else (sa, child) for child in children]

    root = (_basis_stack(tree.dim_a), _basis_stack(tree.dim_b))
    leaves = _walk(tree.rounds, root, expand)
    fin_a = [_apply_cp(tree.leaf_a[h], sa) for h, (sa, _) in leaves]
    fin_b = [_apply_cp(tree.leaf_b[h], sb) for h, (_, sb) in leaves]
    return traces, fin_a, fin_b


def _checked_power(tree: InstrumentTree, d: Dist3, n: int) -> Dist3:
    """``d**n`` once it fits the tree's dims and the size caps."""
    caps = config.load_caps()
    # _path_maps builds density matrices of each party's and each node output's size
    widest = max(
        [tree.dim_a, tree.dim_b]
        + [cp[0].shape[0] for node in tree.instruments.values() for cp in node]
    )
    if widest > caps.rho_dim:
        raise DimensionCapExceeded(
            f"tree density matrix dimension {widest}, cap is {caps.rho_dim}"
        )
    pn = product_power(d, n)
    dims = (tree.dim_a, tree.dim_b)
    if pn.dims[:2] != dims:
        raise InvalidProtocol(
            f"tree dims ({dims[0]}, {dims[1]}) do not match "
            f"distribution power dims {pn.dims[:2]}"
        )
    dzn = pn.dims[2]
    n_hist = len(tree.histories())
    branch_amp = (tree.out_a * tree.out_b * dzn) ** 2
    if branch_amp > caps.product_states:
        raise DimensionCapExceeded(
            f"branch state holds {branch_amp} amplitudes, cap is {caps.product_states}"
        )
    total_dim = tree.out_a * tree.out_b * dzn * n_hist
    if total_dim > caps.rho_dim:
        raise DimensionCapExceeded(
            f"output density matrix dimension {total_dim}, cap is {caps.rho_dim}"
        )
    terms = dims[0] * dims[1] * dzn * n_hist
    if terms > caps.branch_terms:
        raise DimensionCapExceeded(
            f"simulation sums {terms} terms, cap is {caps.branch_terms}"
        )
    return pn


def _quantum_law(pn: Dist3, maps: tuple) -> np.ndarray:
    """Law of (A', B', E, M) when the tree walked into ``maps`` by
    ``_path_maps`` runs on the diagonal embedding of ``pn`` = ``d**n``.

    E holds Eve's untouched symbol and M the broadcast transcript, indexed
    in ``tree.histories()`` order; the shape is (out_a, out_b, |Z|^n,
    transcripts).  E and M are classical by construction, so this is the
    diagonal of the output state: each leaf map's diagonal, weighted by
    ``d**n``.
    """
    _, fin_a, fin_b = maps
    diag_a = np.einsum("hxaa->hxa", np.stack(fin_a)).real
    diag_b = np.einsum("hybb->hyb", np.stack(fin_b)).real
    return np.einsum("xyz,hxa,hyb->abzh", pn.p, diag_a, diag_b)


def _ratio_rows(table: np.ndarray) -> np.ndarray:
    """Normalize rows to probabilities; zero-mass rows become uniform."""
    table = np.clip(table, 0.0, None)
    sums = table.sum(axis=1, keepdims=True)
    out = np.where(sums > 0.0, table / np.where(sums > 0.0, sums, 1.0),
                   1.0 / table.shape[1])
    return out


def _dequantize(tree: InstrumentTree, maps: tuple) -> tuple[dict, dict, dict]:
    """The classical twin of ``tree``, from the tree's ``_path_maps``: the
    tables ``(kernels, final_a, final_b)``, each keyed by transcript.

    ``kernels[h]`` is Pr[i_k | h, s], rows over the acting party's original
    symbol: the trace ratios of its accumulated CP map on basis inputs.
    ``final_a[h]`` / ``final_b[h]`` are Pr[x' | h, x] and Pr[y' | h, y], the
    normalized diagonals of the leaf states.  Rows conditioned on
    unreachable transcripts are set uniform; they never influence the
    output law.  Every row is a probability vector by construction.
    """
    traces, fin_a, fin_b = maps
    hist = tree.histories()
    kernels = {h: _ratio_rows(t) for h, t in traces.items()}
    final_a, final_b = (
        {h: _ratio_rows(np.einsum("xii->xi", fin).real) for h, fin in zip(hist, fins)}
        for fins in (fin_a, fin_b)
    )
    return kernels, final_a, final_b


def _classical_law(tree: InstrumentTree, twin: tuple, pn: Dist3) -> np.ndarray:
    """Forward-chain the twin ``_dequantize(tree, ...)`` on ``pn`` = ``d**n``:
    the law of (A', B', E, M)."""
    kernels, final_a, final_b = twin
    hist = tree.histories()
    joint = np.zeros((tree.out_a, tree.out_b, pn.dims[2], len(hist)))

    def expand(h: History, w: tuple[np.ndarray, np.ndarray]) -> list:
        wa, wb = w
        table = kernels[h]
        if len(h) % 2 == 0:
            return [(wa * table[:, m], wb) for m in range(table.shape[1])]
        return [(wa, wb * table[:, m]) for m in range(table.shape[1])]

    root = (np.ones(tree.dim_a), np.ones(tree.dim_b))
    for i, (h, (wa, wb)) in enumerate(_walk(tree.rounds, root, expand)):
        ta = wa[:, None] * final_a[h]
        tb = wb[:, None] * final_b[h]
        joint[:, :, :, i] = np.einsum("xyz,xa,yb->abz", pn.p, ta, tb)
    return joint


def verify_equivalence(tree: InstrumentTree, d: Dist3, n: int = 1) -> float:
    """Total-variation distance between the tree's output law and its twin's.

    That is the trace distance between the tree's output with A' and B'
    dephased and the classical twin's output, both diagonal states.
    """
    pn = _checked_power(tree, d, n)
    maps = _path_maps(tree)  # one power and one walk serve both sides
    quantum = _quantum_law(pn, maps)
    classical = _classical_law(tree, _dequantize(tree, maps), pn)
    return float(0.5 * np.abs(quantum - classical).sum())


# ---------------------------------------------------------------------------
# tree constructors


def _random_instrument(
    rng: np.random.Generator, din: int, outcomes: int, kraus_each: int
) -> tuple[tuple[np.ndarray, ...], ...]:
    """Instrument from a Haar-ish isometry so completeness holds exactly.

    The QR of a Ginibre matrix gives an isometry V: C^din -> C^(m*din);
    its row blocks K_1..K_m satisfy sum K^dag K = V^dag V = I.
    """
    blocks = outcomes * kraus_each
    g = rng.normal(size=(blocks * din, din)) + 1j * rng.normal(size=(blocks * din, din))
    q, _ = np.linalg.qr(g)
    ops = [q[i * din : (i + 1) * din] for i in range(blocks)]
    return tuple(
        tuple(ops[m * kraus_each + j] for j in range(kraus_each))
        for m in range(outcomes)
    )


def random_instrument_tree(
    dim_a: int,
    dim_b: int,
    rounds: int = 2,
    outcomes: int = 2,
    kraus_each: int = 1,
    *,
    rng: np.random.Generator,
) -> InstrumentTree:
    """Random tree with the given branching; trace preserving by construction."""
    if rounds < 0 or rounds % 2 != 0:
        raise InvalidProtocol(f"rounds must be even and >= 0, got {rounds}")
    instruments: dict[History, tuple[tuple[np.ndarray, ...], ...]] = {}

    def expand(h: History, _) -> list[None]:
        din = dim_a if len(h) % 2 == 0 else dim_b
        instruments[h] = _random_instrument(rng, din, outcomes, kraus_each)
        return [None] * outcomes

    leaf_a: dict[History, tuple[np.ndarray, ...]] = {}
    leaf_b: dict[History, tuple[np.ndarray, ...]] = {}
    for h, _ in _walk(rounds, None, expand):
        leaf_a[h] = _random_instrument(rng, dim_a, 1, kraus_each)[0]
        leaf_b[h] = _random_instrument(rng, dim_b, 1, kraus_each)[0]
    return InstrumentTree(
        rounds=rounds, dim_a=dim_a, dim_b=dim_b,
        instruments=instruments, leaf_a=leaf_a, leaf_b=leaf_b,
    )
