"""Maximal common partitionings of bipartite supports.

Two parties holding X and Y can agree, without communication, on the label
of the connected component of the support graph that their symbols fall
into: the vertex set is supp(X) . supp(Y) and (x, y) is an edge whenever
p(x, y) > 0.  That component label is the maximal common function of X and
Y; its entropy is their common information.

For a tripartite distribution the same construction applies slice-wise
given each z.  The per-z partitions are then stitched together by merging
block instances across z that share an x or a y symbol, which yields the
finest labelling that can be written both as a function of x alone and as
a function of y alone.  That merge is the connected components of the
union of the per-z support graphs: each block is connected in its own z's
graph, and each edge of the union lies in a block of the z it comes from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import config
from .distributions import Dist2, Dist3, entropy_bits

__all__ = [
    "CommonPartition",
    "CondCommonFunction",
    "common_information",
    "conditional_common_function",
]


def _component_roots(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of bipartite graphs, one per trailing index.

    ``adj`` is a boolean (rows, cols, ...) array whose entry [r, c, k] is
    an edge of graph k.  Returns, for every row and every column, the
    smallest row index in its component.  A row without edges is its own
    root; a column without edges gets ``rows``, which no row carries.
    """
    n = adj.shape[0]
    row_roots = np.broadcast_to(
        np.arange(n).reshape((n,) + (1,) * (adj.ndim - 2)), (n,) + adj.shape[2:]
    )
    while True:
        col_roots = np.where(adj, row_roots[:, None], n).min(axis=0, initial=n)
        new = np.minimum(
            row_roots, np.where(adj, col_roots[None], n).min(axis=1, initial=n)
        )
        if np.array_equal(new, row_roots):
            return row_roots, col_roots
        row_roots = new


@dataclass(frozen=True)
class CommonPartition:
    """Blocks (X_i, Y_i) of a bipartite support, ordered by smallest x.

    Symbols of probability zero carry no label and appear in no block.
    """

    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    block_of_x: Mapping[int, int] = field(repr=False)
    block_of_y: Mapping[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.blocks)

    def probabilities(self, d2: Dist2) -> np.ndarray:
        """Probability mass of each block under a compatible Dist2."""
        out = np.zeros(len(self.blocks))
        for i, (xs, ys) in enumerate(self.blocks):
            out[i] = d2.p[np.array(xs)[:, None], np.array(ys)].sum()
        return out

    def to_json(self) -> dict:
        return {
            "blocks": [
                {"x": list(xs), "y": list(ys)} for xs, ys in self.blocks
            ]
        }


def _partitions(support: np.ndarray, roots: tuple | None = None) -> list[CommonPartition]:
    """Maximal common partition of each (x, y, k) support graph, per k;
    ``roots`` are its ``_component_roots`` when the caller has them."""
    row_roots, col_roots = _component_roots(support) if roots is None else roots
    out = []
    for rx, ry, has_x, has_y in zip(
        row_roots.T.tolist(),
        col_roots.T.tolist(),
        support.any(axis=1).T.tolist(),
        support.any(axis=0).T.tolist(),
    ):
        # a block's root is its smallest x, so visiting x in ascending
        # order meets the blocks ordered by smallest x
        block_of_root: dict[int, int] = {}
        members_x: list[list[int]] = []
        for x, (r, has) in enumerate(zip(rx, has_x)):
            if has:
                if r not in block_of_root:
                    block_of_root[r] = len(members_x)
                    members_x.append([])
                members_x[block_of_root[r]].append(x)
        members_y: list[list[int]] = [[] for _ in members_x]
        for y, (r, has) in enumerate(zip(ry, has_y)):
            if has:
                members_y[block_of_root[r]].append(y)
        blocks = tuple(
            (tuple(mx), tuple(my)) for mx, my in zip(members_x, members_y)
        )
        block_of_x = {x: i for i, mx in enumerate(members_x) for x in mx}
        block_of_y = {y: i for i, my in enumerate(members_y) for y in my}
        out.append(CommonPartition(blocks, block_of_x, block_of_y))
    return out


def common_information(
    d2: Dist2, support_eps: float = config.SUPPORT_EPS
) -> float:
    """Entropy in bits of the maximal common function of X and Y: the
    connected components of the bipartite support graph of d2."""
    (part,) = _partitions((d2.p > support_eps)[:, :, None])
    return entropy_bits(part.probabilities(d2))


@dataclass(frozen=True, eq=False)
class CondCommonFunction:
    """Per-z maximal partitions plus a canonical cross-z labelling, kept as
    the component roots they are read from.

    The fields are arrays: ``zs``, the supported z in ascending order;
    ``z_probs``, p(z) for every z; ``support``, the (x, y, z) with
    p(z) > support_eps and p(x, y | z) > support_eps, the entries the
    blocks are built from (code that pairs entries of the pmf with these
    blocks must take its entries from this mask); ``_roots``, the
    ``_component_roots`` of the supported slices, in ``zs`` order; and
    ``_union_roots``, those of the union of the slices, one trailing
    column each.  The roots are not serialized.

    A block's root is its smallest x, so ``per_z_injective``, ``n_labels``
    and ``block_entropy`` read the blocks off the roots.  The dict views
    are built on first read and kept: ``per_z`` maps each supported z to
    its ``CommonPartition``, and ``global_labels`` maps (z, block index
    within z) to the label of its component in the union of the per-z
    support graphs, numbered by their smallest (z, block) pair.
    ``per_z_injective`` records whether two distinct blocks of one z ever
    share a component, which is exactly the obstacle to relabelling the
    per-z partitions into a single function of x alone and of y alone.
    """

    zs: np.ndarray = field(repr=False)
    z_probs: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    _roots: tuple[np.ndarray, np.ndarray] = field(repr=False)
    _union_roots: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @functools.cached_property
    def per_z(self) -> dict[int, CommonPartition]:
        return dict(zip(self.zs.tolist(), _partitions(self.support[:, :, self.zs], self._roots)))

    @functools.cached_property
    def global_labels(self) -> dict[tuple[int, int], int]:
        group_of_z = dict.fromkeys(self.per_z, 0)
        return _cross_z_merge(self.per_z, group_of_z, self.support, self._union_roots[0])[0]

    @functools.cached_property
    def _block_facts(self) -> tuple[list[int], bool, int]:
        """The number of blocks of each supported z, in ``zs`` order;
        whether no two blocks of one z share a union component; and how many
        union components hold a block.  Each column carries the root of its
        block in each slice, and of its component in the union, or |X|
        where it has no edge there."""
        n = len(self._roots[0])
        union = self._union_roots[1][:, 0].tolist()
        counts, injective = [], True
        for roots in self._roots[1].T.tolist():
            blocks = set(roots)
            blocks.discard(n)
            counts.append(len(blocks))
            injective = injective and len({u for r, u in zip(roots, union) if r < n}) == len(blocks)
        labels = set(union)
        labels.discard(n)
        return counts, injective, len(labels)

    @property
    def per_z_injective(self) -> bool:
        return self._block_facts[1]

    @property
    def n_labels(self) -> int:
        """The number of union components that hold a block."""
        return self._block_facts[2]

    def block_entropy(self, d: Dist3) -> float:
        """H(block label | Z) under d, the pmf this function was built from.

        One bincount sums the conditional masses of every (z, block) cell,
        x then y ascending, in sequence, which is ``.sum()``'s order below
        8 entries.  The cells of each larger size are gathered into one
        array, and numpy sums each row in the same pairwise order as that
        cell's own ``.sum()``.
        """
        row_roots, col_roots = self._roots
        k, x, y = np.nonzero(row_roots.T[:, :, None] == col_roots.T[:, None])
        z = self.zs[k]
        cond = d.p[x, y, z] / self.z_probs[z]
        cell = k * len(row_roots) + row_roots[x, k]  # in (z, block) order
        sizes = np.bincount(cell)
        masses, sizes = np.bincount(cell, cond)[sizes > 0], sizes[sizes > 0]
        order, starts = np.argsort(cell, kind="stable"), np.cumsum(sizes) - sizes
        for size in set(sizes[sizes >= 8].tolist()):
            pick = sizes == size
            masses[pick] = cond[order[starts[pick][:, None] + np.arange(size)]].sum(axis=1)
        masses, total = iter(masses.tolist()), 0.0
        for z, n in zip(self.zs.tolist(), self._block_facts[0]):
            total += float(self.z_probs[z]) * entropy_bits([next(masses) for _ in range(n)])
        return total

    def to_json(self) -> dict:
        return {
            "per_z": {str(z): part.to_json() for z, part in self.per_z.items()},
            "global_labels": {
                f"{z},{b}": lbl for (z, b), lbl in sorted(self.global_labels.items())
            },
            "per_z_injective": self.per_z_injective,
        }


def conditional_common_function(
    d: Dist3, support_eps: float = config.SUPPORT_EPS
) -> CondCommonFunction:
    """Per-z maximal common partitions with canonical cross-z merge labels,
    from one labelling of the supported z slices and, trailing, their union.

    Only the arrays are built here; ``per_z`` and ``global_labels`` are
    built when first read (see ``CondCommonFunction``)."""
    z_probs = d.p.sum(axis=(0, 1))
    zs = np.flatnonzero(z_probs > support_eps)
    support = np.zeros(d.p.shape, dtype=bool)
    support[:, :, zs] = d.p[:, :, zs] / z_probs[zs] > support_eps
    row_roots, col_roots = _component_roots(np.dstack([support[:, :, zs], support.any(axis=2)]))
    roots = row_roots[:, :-1], col_roots[:, :-1]
    union_roots = row_roots[:, -1:], col_roots[:, -1:]
    return CondCommonFunction(zs, z_probs, support, roots, union_roots)


def _cross_z_merge(
    per_z: Mapping[int, CommonPartition],
    group_of_z: Mapping[int, int],
    support: np.ndarray,
    x_roots: np.ndarray | None = None,
) -> tuple[dict[tuple[int, int], int], bool]:
    """Merge block instances across the z of one group that share an x or a y.

    These are the blocks of ``per_z``, the partitions of ``support``, in one
    component of their group's union support graph: a block is connected
    in its z's graph, and each union edge lies in a block of its z.  Returns
    the canonical merge labels of the (z, block) nodes and whether no two
    blocks of one z share a label.  Every z in one group gives the cross-z
    merge of ``conditional_common_function``; groups only split it.
    ``x_roots`` are the union graphs' row roots when the caller has them.
    """
    if x_roots is None:
        union = np.zeros(support.shape[:2] + (1 + max(group_of_z.values(), default=0),), bool)
        for z, g in group_of_z.items():
            union[:, :, g] |= support[:, :, z]
        x_roots = _component_roots(union)[0]
    x_roots = x_roots.tolist()
    # per_z is in (z, block) order, so first sight numbers canonically
    number: dict[tuple[int, int], int] = {}
    labels: dict[tuple[int, int], int] = {}
    for z, part in per_z.items():
        for b, (xs, _) in enumerate(part.blocks):
            g = group_of_z[z]
            labels[(z, b)] = number.setdefault((g, x_roots[xs[0]][g]), len(number))
    injective = all(
        len({labels[(z, b)] for b in range(len(part))}) == len(part)
        for z, part in per_z.items()
    )
    return labels, injective
