"""Common functions: support-graph partitions and their conditional labels."""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from secrecy_forge.classify import _pd_canonical
from secrecy_forge.common_info import (
    _component_roots,
    _cross_z_merge,
    _partitions,
    common_information,
    conditional_common_function,
)
from secrecy_forge.distributions import Dist2, Dist3, entropy_bits, product_power
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


def partition_of(p: np.ndarray):
    """Maximal common partition of a 2-d pmf's support: the one per-z
    partition of its conditional common function."""
    return conditional_common_function(Dist3(p[:, :, None])).per_z[0]


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
            part = partition_of(p)
            assert partition_cells(part, p) == bfs_blocks(p)


def test_partition_blocks_are_disjoint(make_dist):
    d = make_dist((5, 4, 1), sparsity=0.5)
    part = conditional_common_function(d).per_z[0]
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
    part = partition_of(p)
    assert part.blocks[0] == ((0,), (0,))
    assert part.blocks[1] == ((3,), (3,))


def test_full_support_is_one_block(make_dist):
    d = make_dist((3, 3, 1))
    part = conditional_common_function(d).per_z[0]
    assert len(part) == 1
    assert abs(common_information(Dist2(d.p[:, :, 0]))) < 1e-12


def test_diagonal_support_common_information():
    p = np.diag([0.25, 0.25, 0.5])
    d2 = Dist2(p)
    part = partition_of(p)
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


def block_entropy_through_dist2(ccf, d: Dist3) -> float:
    """H(block label | Z) with each z slice divided by p(z) as a validated Dist2."""
    total = 0.0
    for z, part in ccf.per_z.items():
        pz = float(ccf.z_probs[z])
        total += pz * entropy_bits(part.probabilities(Dist2(d.p[:, :, z] / pz)))
    return total


def test_block_entropy_equals_the_dist2_route_bit_for_bit(make_dist):
    # 3x3, 2x2 and 1x1 diagonal blocks
    block_mask = np.zeros((6, 6, 1))
    for lo, hi in ((0, 3), (3, 5), (5, 6)):
        block_mask[lo:hi, lo:hi] = 1.0
    # d.p is clipped at 0 already, so a Dist2 per z changes no bit
    dists = [make_dist((3, 3, 3), sparsity=s) for s in (0.0, 0.4, 0.7) for _ in range(10)]
    dists += [product_power(make_dist((2, 2, 2), sparsity=0.5), 2) for _ in range(10)]
    dists += [product_power(two_block_uniform_example(), 2),
              product_power(one_sided_coherence_example()[0], 2)]
    # cells of 8 to 81 entries, where numpy's pairwise sum can differ from a
    # sequential one: 2x4 slices, and squares of 3x3 blocks, alone and
    # beside smaller ones
    dists += [make_dist((2, 4, 3)) for _ in range(10)]
    dists += [product_power(make_dist((3, 3, 2)), 2) for _ in range(5)]
    for _ in range(5):
        d = make_dist((6, 6, 1))
        dists.append(product_power(Dist3(d.p * block_mask / (d.p * block_mask).sum()), 2))
    for d in dists:
        for eps in (1e-12, 1e-2):
            ccf = conditional_common_function(d, eps)
            assert ccf.block_entropy(d) == block_entropy_through_dist2(ccf, d)


def test_to_json_shape():
    d = two_block_uniform_example()
    doc = conditional_common_function(d).to_json()
    assert set(doc) == {"per_z", "global_labels", "per_z_injective"}
    assert set(doc["per_z"]) == {"0", "1"}
    assert doc["per_z"]["0"]["blocks"][0] == {"x": [0], "y": [0]}
    assert doc["global_labels"] == {"0,0": 0, "0,1": 1, "1,0": 2, "1,1": 3}


# ---------------------------------------------------------------------------
# cross-z merge against the node-symbol incidence graph


def incidence_merge(per_z, group_of_z, dx, dy):
    """Components of the graph joining each (z, block) to its symbols, each
    symbol taken once per group, numbered by their smallest node."""
    width = dx + dy
    nodes = [(z, b) for z, part in per_z.items() for b in range(len(part))]
    n_groups = 1 + max(group_of_z.values(), default=0)
    incidence = np.zeros((len(nodes), n_groups * width), dtype=bool)
    for i, (z, b) in enumerate(nodes):
        bxs, bys = per_z[z].blocks[b]
        offset = group_of_z[z] * width
        incidence[i, [offset + x for x in bxs]] = True
        incidence[i, [offset + dx + y for y in bys]] = True
    node_roots, _ = _component_roots(incidence)
    number: dict[int, int] = {}
    labels = {
        node: number.setdefault(root, len(number))
        for node, root in zip(nodes, node_roots.tolist())
    }
    injective = all(
        len({labels[(z, b)] for b in range(len(part))}) == len(part)
        for z, part in per_z.items()
    )
    return labels, injective


@st.composite
def grouped_supports(draw):
    dx, dy, dz = (draw(st.integers(1, n)) for n in (4, 4, 5))
    density = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=dx * dy * dz,
                          max_size=dx * dy * dz))
    support = np.array(cells).reshape(dx, dy, dz) < density
    # empty z slices among supported ones, at any density
    support[:, :, draw(st.lists(st.booleans(), min_size=dz, max_size=dz))] = False
    groups = draw(st.lists(st.integers(0, dz - 1), min_size=dz, max_size=dz))
    return support, dict(enumerate(groups))


def diagonal_support(dx: int, dy: int, dz: int, empty: tuple[int, ...] = ()) -> np.ndarray:
    """(x, y, z) with x + y + z even, slices ``empty`` cleared."""
    x, y, z = np.indices((dx, dy, dz))
    support = (x + y + z) % 2 == 0
    support[:, :, list(empty)] = False
    return support


@given(grouped_supports())
@example((diagonal_support(4, 2, 3), {0: 0, 1: 1, 2: 0}))  # |X| != |Y|
@example((diagonal_support(2, 4, 4, empty=(0, 2)), {0: 0, 1: 0, 2: 1, 3: 1}))  # empty z slices
@example((diagonal_support(1, 3, 3), {0: 0, 1: 0, 2: 0}))  # one-symbol sides
@example((diagonal_support(3, 1, 2, empty=(1,)), {0: 0, 1: 0}))
def test_cross_z_merge_matches_the_incidence_graph(case):
    # empty z slices give partitions without blocks, and one-symbol sides
    # put every block of a z on one x or one y
    support, group_of_z = case
    dx, dy, dz = support.shape
    per_z = dict(enumerate(_partitions(support)))
    assert _cross_z_merge(per_z, group_of_z, support) == incidence_merge(
        per_z, group_of_z, dx, dy)
    if not support.any():
        return
    # one labelling call gives what separate ones give: the supported slices
    # with their union as a trailing slice, and the x-z and y-z common-part
    # graphs with the shorter side padded
    zs = [z for z in range(dz) if support[:, :, z].any()]
    ccf = conditional_common_function(Dist3(support / support.sum()))
    alone = [_component_roots(support[:, :, [z]]) for z in zs]
    for got, want in zip(ccf._roots, zip(*alone)):
        np.testing.assert_array_equal(got, np.hstack(want))
    # per_z_injective, n_labels and the per-z block counts are read off the
    # roots before any dict view is built; the dict route must agree
    weights = support * (1.0 + np.arange(support.size).reshape(support.shape) % 7)
    d = Dist3(weights / weights.sum())
    fresh = conditional_common_function(d)
    facts = (fresh.per_z_injective, fresh.n_labels, fresh._block_facts[0])
    bits = fresh.block_entropy(d)
    assert "per_z" not in vars(fresh) and "global_labels" not in vars(fresh)
    assert ccf.per_z == {z: per_z[z] for z in zs}
    merged = _cross_z_merge(ccf.per_z, dict.fromkeys(zs, 0), support)
    assert (ccf.global_labels, ccf.per_z_injective) == merged
    assert facts == (merged[1], 1 + max(merged[0].values(), default=-1),
                     [len(per_z[z]) for z in zs])
    read_first = conditional_common_function(d)
    assert len(read_first.per_z) == len(zs)
    assert read_first.block_entropy(d) == bits
    cert = _pd_canonical(ccf)[1]
    (part_xz,) = _partitions(support.any(axis=1)[:, :, None])
    (part_yz,) = _partitions(support.any(axis=0)[:, :, None])
    assert (cert.message_of_x, cert.message_of_y) == (part_xz.block_of_x, part_yz.block_of_x)
