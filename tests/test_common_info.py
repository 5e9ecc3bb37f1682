"""Common functions: support-graph partitions and their conditional labels."""

from __future__ import annotations

from collections import deque

import numpy as np

from secrecy_forge.common_info import (
    common_information,
    conditional_common_function,
    maximal_common_partition,
)
from secrecy_forge.distributions import Dist2, Dist3, entropy_bits
from secrecy_forge.keyrates import (
    one_sided_coherence_example,
    two_block_uniform_example,
)


def bfs_blocks(p: np.ndarray, eps: float = 1e-12) -> set[frozenset[tuple[int, int]]]:
    """Connected cells of the support graph, found by breadth-first search."""
    dx, dy = p.shape
    support = {(x, y) for x in range(dx) for y in range(dy) if p[x, y] > eps}
    blocks: set[frozenset[tuple[int, int]]] = set()
    left = set(support)
    while left:
        seed = next(iter(left))
        comp = {seed}
        queue = deque([seed])
        while queue:
            cx, cy = queue.popleft()
            for cell in support:
                if cell not in comp and (cell[0] == cx or cell[1] == cy):
                    comp.add(cell)
                    queue.append(cell)
        blocks.add(frozenset(comp))
        left -= comp
    return blocks


def partition_cells(part, p: np.ndarray) -> set[frozenset[tuple[int, int]]]:
    out = set()
    for xs, ys in part.blocks:
        cells = {
            (x, y) for x in xs for y in ys if p[x, y] > 1e-12
        }
        out.add(frozenset(cells))
    return out


# ---------------------------------------------------------------------------
# maximal partition against the graph oracle


def test_partition_matches_bfs_oracle(make_dist):
    for sparsity in (0.0, 0.3, 0.6):
        for _ in range(10):
            d = make_dist((4, 4, 1), sparsity=sparsity)
            p = d.p[:, :, 0]
            part = maximal_common_partition(Dist2(p))
            assert partition_cells(part, p) == bfs_blocks(p)


def test_partition_blocks_are_disjoint(make_dist):
    d = make_dist((5, 4, 1), sparsity=0.5)
    part = maximal_common_partition(Dist2(d.p[:, :, 0]))
    seen_x: set[int] = set()
    seen_y: set[int] = set()
    for xs, ys in part.blocks:
        assert not (set(xs) & seen_x)
        assert not (set(ys) & seen_y)
        seen_x |= set(xs)
        seen_y |= set(ys)


def test_partition_order_is_canonical():
    p = np.zeros((4, 4))
    p[3, 3] = 0.5
    p[0, 0] = 0.5
    part = maximal_common_partition(Dist2(p))
    assert part.blocks[0] == ((0,), (0,))
    assert part.blocks[1] == ((3,), (3,))


def test_full_support_is_one_block(make_dist):
    d = make_dist((3, 3, 1))
    part = maximal_common_partition(Dist2(d.p[:, :, 0]))
    assert len(part) == 1
    assert abs(common_information(Dist2(d.p[:, :, 0]))) < 1e-12


def test_diagonal_support_common_information():
    p = np.diag([0.25, 0.25, 0.5])
    d2 = Dist2(p)
    part = maximal_common_partition(d2)
    assert len(part) == 3
    assert abs(common_information(d2) - entropy_bits([0.25, 0.25, 0.5])) < 1e-12


def test_common_information_bounded_by_marginals(make_dist):
    for _ in range(10):
        d = make_dist((3, 4, 1), sparsity=0.5)
        d2 = Dist2(d.p[:, :, 0])
        ci = common_information(d2)
        hx = entropy_bits(d2.p.sum(axis=1))
        hy = entropy_bits(d2.p.sum(axis=0))
        assert ci <= min(hx, hy) + 1e-9


# ---------------------------------------------------------------------------
# conditional common function


def test_two_block_instance_labels():
    d = two_block_uniform_example()
    ccf = conditional_common_function(d)
    assert set(ccf.per_z) == {0, 1}
    assert all(len(part) == 2 for part in ccf.per_z.values())
    assert ccf.per_z_injective
    assert ccf.n_labels == 4
    assert abs(ccf.block_entropy(d) - 1.0) < 1e-12


def test_one_sided_example_blocks_entangle_labels():
    d, _ = one_sided_coherence_example()
    ccf = conditional_common_function(d)
    assert len(ccf.per_z[0]) == 2
    assert len(ccf.per_z[1]) == 1
    assert len(ccf.per_z[2]) == 1
    # the z=1 block shares symbols with both z=0 blocks, so everything merges
    assert ccf.n_labels == 1
    assert not ccf.per_z_injective
    assert abs(ccf.block_entropy(d) - 1.0 / 3.0) < 1e-12


def test_shared_blocks_reuse_labels():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 0] = p[0, 0, 1] = p[1, 1, 1] = 0.25
    ccf = conditional_common_function(Dist3(p))
    assert ccf.n_labels == 2
    assert ccf.global_labels[(0, 0)] == ccf.global_labels[(1, 0)]
    assert ccf.global_labels[(0, 1)] == ccf.global_labels[(1, 1)]
    assert ccf.per_z_injective


def test_label_lookups_agree_between_sides(make_dist):
    d = make_dist((3, 3, 2), sparsity=0.4)
    ccf = conditional_common_function(d)
    for z, part in ccf.per_z.items():
        for x in range(3):
            for y in range(3):
                if d.p[x, y, z] > 1e-12:
                    assert (ccf.global_labels[(z, part.block_of_x[x])]
                            == ccf.global_labels[(z, part.block_of_y[y])])


def test_null_flags_are_skipped():
    p = np.zeros((2, 2, 3))
    p[0, 0, 0] = p[1, 1, 0] = 0.5
    ccf = conditional_common_function(Dist3(p))
    assert set(ccf.per_z) == {0}


def test_to_json_shape():
    d = two_block_uniform_example()
    doc = conditional_common_function(d).to_json()
    assert set(doc) == {"per_z", "global_labels", "per_z_injective"}
    assert set(doc["per_z"]) == {"0", "1"}
    assert doc["per_z"]["0"]["blocks"][0] == {"x": [0], "y": [0]}
    assert doc["global_labels"] == {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3}
