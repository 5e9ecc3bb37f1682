"""Instrument trees, classical extraction, and output-law equivalence."""

import hashlib
import importlib

import numpy as np
import pytest

from secrecy_forge.dequantize import (
    InstrumentTree,
    random_instrument_tree,
    verify_equivalence,
)
from secrecy_forge.distributions import Dist3, product_power
from secrecy_forge.errors import (
    DimensionCapExceeded,
    InvalidChannel,
    InvalidProtocol,
)
from secrecy_forge.qlinalg import QState

dequantize_module = importlib.import_module("secrecy_forge.dequantize")


def quantum_law(tree: InstrumentTree, d: Dist3, n: int = 1) -> np.ndarray:
    """The tree's output law on d**n, one side of ``verify_equivalence``."""
    pn = dequantize_module._checked_power(tree, d, n)
    return dequantize_module._quantum_law(pn, dequantize_module._path_maps(tree))


def dequantize(tree: InstrumentTree):
    """The tree's classical twin ``(kernels, final_a, final_b)``, the other
    side of ``verify_equivalence``."""
    return dequantize_module._dequantize(tree, dequantize_module._path_maps(tree))


def classical_law(tree: InstrumentTree, twin, d: Dist3, n: int = 1) -> np.ndarray:
    """The twin's output law on d**n, which ``verify_equivalence`` compares."""
    return dequantize_module._classical_law(tree, twin, product_power(d, n))


EYE = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def projective_announce_tree() -> InstrumentTree:
    """Alice broadcasts her bit projectively; everything else is identity."""
    proj = tuple((np.outer(EYE[m], EYE[m]),) for m in range(2))
    return InstrumentTree(
        rounds=2, dim_a=2, dim_b=2,
        instruments={(): proj, (0,): ((EYE,),), (1,): ((EYE,),)},
        leaf_a={(0, 0): (EYE,), (1, 0): (EYE,)},
        leaf_b={(0, 0): (EYE,), (1, 0): (EYE,)},
    )


def _identity_kraus(dim: int) -> tuple[np.ndarray, ...]:
    return (np.eye(dim, dtype=complex),)


def trivial_tree(dim_a: int, dim_b: int) -> InstrumentTree:
    """Zero rounds, identity leaves: the protocol that does nothing."""
    return InstrumentTree(
        rounds=0,
        dim_a=dim_a,
        dim_b=dim_b,
        leaf_a={(): _identity_kraus(dim_a)},
        leaf_b={(): _identity_kraus(dim_b)},
    )


def computational_announce_tree(dim_a: int, dim_b: int) -> InstrumentTree:
    """Alice measures and broadcasts her symbol; Bob overwrites his with it.

    Needs dim_b >= dim_a so Bob can store the announced value.  Round 2 is
    a trivial single-outcome broadcast to keep the round count even.
    """
    if dim_b < dim_a:
        raise InvalidProtocol(f"need dim_b >= dim_a, got ({dim_a}, {dim_b})")
    eye_a = np.eye(dim_a, dtype=complex)
    instruments = {(): tuple((np.outer(eye_a[x], eye_a[x]),) for x in range(dim_a))}
    leaf_a, leaf_b = {}, {}
    eye_b = np.eye(dim_b, dtype=complex)
    for x in range(dim_a):
        instruments[(x,)] = (_identity_kraus(dim_b),)
        leaf_a[(x, 0)] = _identity_kraus(dim_a)
        # Overwrite channel: every input goes to basis state x.
        leaf_b[(x, 0)] = tuple(np.outer(eye_b[x], eye_b[j]) for j in range(dim_b))
    return InstrumentTree(
        rounds=2, dim_a=dim_a, dim_b=dim_b,
        instruments=instruments, leaf_a=leaf_a, leaf_b=leaf_b,
    )


def _seeded_dist(dims: tuple[int, int, int], seed: int) -> Dist3:
    p = np.random.default_rng(seed).random(dims)
    return Dist3(p / p.sum())


def _seeded_tree(dim_a, dim_b, rounds, outcomes, kraus_each, seed):
    return random_instrument_tree(dim_a, dim_b, rounds, outcomes, kraus_each,
                                  rng=np.random.default_rng(seed))


# (tree, distribution, copies) per case
PIN_CASES = {
    "random-r0-o2-k1": lambda: (_seeded_tree(2, 2, 0, 2, 1, 1),
                                _seeded_dist((2, 2, 2), 11), 1),
    "random-r2-o2-k1": lambda: (_seeded_tree(2, 2, 2, 2, 1, 2),
                                _seeded_dist((2, 2, 2), 12), 1),
    "random-r2-o3-k2": lambda: (_seeded_tree(2, 3, 2, 3, 2, 3),
                                _seeded_dist((2, 3, 2), 13), 1),
    "random-r4-o2-k2": lambda: (_seeded_tree(2, 2, 4, 2, 2, 4),
                                _seeded_dist((2, 2, 3), 14), 1),
    "random-r4-o2-k1": lambda: (_seeded_tree(3, 2, 4, 2, 1, 5),
                                _seeded_dist((3, 2, 1), 15), 1),
    "random-r2-o3-k1": lambda: (_seeded_tree(3, 3, 2, 3, 1, 7),
                                _seeded_dist((3, 3, 2), 19), 1),
    "random-n2": lambda: (_seeded_tree(4, 4, 2, 2, 1, 6),
                          _seeded_dist((2, 2, 2), 16), 2),
    "announce-3x3": lambda: (computational_announce_tree(3, 3),
                             _seeded_dist((3, 3, 2), 17), 1),
    "trivial-2x2": lambda: (trivial_tree(2, 2), _seeded_dist((2, 2, 2), 18), 1),
}


class TestCannedTrees:
    def test_trivial_tree_reproduces_distribution(self, make_dist):
        d = make_dist((2, 3, 2))
        tree = trivial_tree(2, 3)
        for law in (quantum_law(tree, d),
                    classical_law(tree, dequantize(tree), d)):
            assert law.shape == (2, 3, 2, 1)
            np.testing.assert_allclose(law[..., 0], d.p, atol=1e-15)

    def test_announce_tree_hand_law(self, make_dist):
        # a = b = x, m indexes the transcript (x, 0), Eve keeps z
        d = make_dist((2, 2, 2))
        tree = computational_announce_tree(2, 2)
        expected = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for z in range(2):
                expected[x, x, z, x] = d.p[x, :, z].sum()
        for law in (quantum_law(tree, d),
                    classical_law(tree, dequantize(tree), d)):
            np.testing.assert_allclose(law, expected, atol=1e-15)

    def test_coherence_between_node_and_leaf_is_kept(self, make_dist):
        # Alice applies H as a one-outcome node and H again as her leaf, so
        # a' = x; dephasing between the two would make a' uniform instead
        d = make_dist((2, 2, 3))
        tree = InstrumentTree(
            rounds=2, dim_a=2, dim_b=2,
            instruments={(): ((HADAMARD,),), (0,): ((EYE,),)},
            leaf_a={(0, 0): (HADAMARD,)}, leaf_b={(0, 0): (EYE,)},
        )
        for law in (quantum_law(tree, d),
                    classical_law(tree, dequantize(tree), d)):
            assert law.shape == (2, 2, 3, 1)
            np.testing.assert_allclose(law[..., 0], d.p, atol=1e-15)

    def test_announce_tree_needs_room_for_the_bit(self):
        with pytest.raises(InvalidProtocol):
            computational_announce_tree(3, 2)


class TestDequantize:
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_kernels_and_finals_are_stochastic(self, case):
        # the twin's tables are row-stochastic by construction, so nothing
        # checks them at run time: kernel rows range over the acting party's
        # symbol and columns over its outcomes, final tables are (dim, out)
        tree = PIN_CASES[case]()[0]
        kernels, final_a, final_b = dequantize(tree)
        assert kernels.keys() == tree.instruments.keys()
        for h, table in kernels.items():
            rows = tree.dim_a if len(h) % 2 == 0 else tree.dim_b
            assert table.shape == (rows, len(tree.instruments[h]))
        hist = tree.histories()
        assert final_a.keys() == final_b.keys() == set(hist)
        for h in hist:
            assert final_a[h].shape == (tree.dim_a, tree.out_a)
            assert final_b[h].shape == (tree.dim_b, tree.out_b)
        for table in (*kernels.values(), *final_a.values(), *final_b.values()):
            assert np.all(np.isfinite(table))
            assert table.min() >= 0.0
            np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0.0,
                                       atol=1e-12)

    def test_unreachable_rows_become_uniform(self):
        kernels, final_a, _ = dequantize(projective_announce_tree())
        np.testing.assert_allclose(kernels[()], np.eye(2), atol=1e-15)
        # after Alice projects onto m, the opposite input row carries no mass
        np.testing.assert_allclose(
            final_a[(0, 0)], [[1.0, 0.0], [0.5, 0.5]], atol=1e-15
        )
        np.testing.assert_allclose(
            final_a[(1, 0)], [[0.5, 0.5], [0.0, 1.0]], atol=1e-15
        )

    def test_uniform_rows_never_reach_the_output(self):
        # distribution with no mass on x=1: the completed rows are inert
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = 0.4
        p[0, 1, 0] = 0.25
        p[0, 0, 1] = 0.35
        assert verify_equivalence(projective_announce_tree(), Dist3(p)) <= 1e-12


class TestEquivalence:
    @pytest.mark.parametrize("rounds,outcomes,kraus", [
        (2, 2, 1), (2, 3, 2), (4, 2, 2),
    ])
    def test_random_tree_matches_classical_twin(self, rng, make_dist,
                                                rounds, outcomes, kraus):
        d = make_dist((2, 2, 2))
        tree = random_instrument_tree(2, 2, rounds=rounds, outcomes=outcomes,
                                      kraus_each=kraus, rng=rng)
        assert verify_equivalence(tree, d) <= 1e-9

    def test_two_copy_run(self, make_dist):
        d = make_dist((2, 2, 2))
        assert verify_equivalence(trivial_tree(4, 4), d, n=2) <= 1e-9

    def test_message_and_eve_marginals_agree(self, rng, make_dist):
        d = make_dist((2, 2, 2), sparsity=0.3)
        tree = random_instrument_tree(2, 2, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        quantum = quantum_law(tree, d)
        classical = classical_law(tree, dequantize(tree), d)
        for axes in ((0, 1, 2), (0, 1, 3)):
            np.testing.assert_allclose(quantum.sum(axis=axes),
                                       classical.sum(axis=axes), atol=1e-10)
        # Eve's register is never touched: her marginal is the z-marginal
        np.testing.assert_allclose(quantum.sum(axis=(0, 1, 3)),
                                   d.p.sum(axis=(0, 1)), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_builds_no_density_matrix(self, rng, make_dist, monkeypatch, n):
        def refuse(self):
            raise AssertionError("verify_equivalence built a QState")

        d = make_dist((2, 2, 2))
        tree = random_instrument_tree(2**n, 2**n, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        monkeypatch.setattr(QState, "__post_init__", refuse)
        assert verify_equivalence(tree, d, n=n) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_walks_the_tree_once(self, rng, make_dist, monkeypatch, n):
        walks = []
        real = dequantize_module._path_maps

        def counted(tree):
            walks.append(1)
            return real(tree)

        d = make_dist((2, 2, 2))
        tree = random_instrument_tree(2**n, 2**n, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        monkeypatch.setattr(dequantize_module, "_path_maps", counted)
        assert verify_equivalence(tree, d, n=n) <= 1e-9
        assert len(walks) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_walks_the_tree_once_per_side(self, rng, make_dist, monkeypatch,
                                          n):
        # one walk applies the tree's CP maps, one forward-chains the twin;
        # the twin's tables are not walked again to be validated
        walks = []
        real = dequantize_module._walk

        def counted(rounds, root, expand):
            walks.append(rounds)
            return real(rounds, root, expand)

        d = make_dist((2, 2, 2))
        tree = random_instrument_tree(2**n, 2**n, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        monkeypatch.setattr(dequantize_module, "_walk", counted)
        assert verify_equivalence(tree, d, n=n) <= 1e-9
        assert walks == [2, 2]

    @pytest.mark.parametrize("n", [1, 2])
    def test_powers_the_distribution_once(self, rng, make_dist, monkeypatch, n):
        # the twin runs on the tree's own d**n: its dims, outcomes and rounds
        # are the tree's, so a second power and cap check could never fail
        powers = []
        real = dequantize_module.product_power

        def counted(d, n):
            powers.append(n)
            return real(d, n)

        d = make_dist((2, 2, 2))
        tree = random_instrument_tree(2**n, 2**n, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        monkeypatch.setattr(dequantize_module, "product_power", counted)
        assert verify_equivalence(tree, d, n=n) <= 1e-9
        assert powers == [n]


class TestValidation:
    def test_rejects_odd_round_count(self):
        with pytest.raises(InvalidProtocol):
            InstrumentTree(rounds=1, dim_a=2, dim_b=2,
                           instruments={(): ((EYE,),)},
                           leaf_a={(0,): (EYE,)}, leaf_b={(0,): (EYE,)})

    def test_rejects_non_trace_preserving_node(self):
        with pytest.raises(InvalidChannel):
            InstrumentTree(rounds=2, dim_a=2, dim_b=2,
                           instruments={(): ((0.9 * EYE,),), (0,): ((EYE,),)},
                           leaf_a={(0, 0): (EYE,)}, leaf_b={(0, 0): (EYE,)})

    def test_rejects_missing_instrument(self):
        with pytest.raises(InvalidProtocol):
            InstrumentTree(rounds=2, dim_a=2, dim_b=2,
                           instruments={(): ((EYE,),)},
                           leaf_a={(0, 0): (EYE,)}, leaf_b={(0, 0): (EYE,)})

    def test_rejects_missing_leaf(self):
        with pytest.raises(InvalidProtocol):
            InstrumentTree(rounds=2, dim_a=2, dim_b=2,
                           instruments={(): ((EYE,),), (0,): ((EYE,),)},
                           leaf_a={(0, 0): (EYE,)}, leaf_b={})

    @pytest.mark.parametrize("extra", [
        {"instruments": {(7, 7): ((EYE,),)}},
        {"instruments": {(1,): ((EYE,),)}},
        {"leaf_a": {(1, 0): (EYE,)}},
        {"leaf_b": {(0,): (EYE,)}},
    ])
    def test_rejects_unreached_node_or_leaf(self, extra):
        # node () has one outcome, so the only transcript is (0, 0)
        parts = {"instruments": {(): ((EYE,),), (0,): ((EYE,),)},
                 "leaf_a": {(0, 0): (EYE,)}, "leaf_b": {(0, 0): (EYE,)}}
        InstrumentTree(rounds=2, dim_a=2, dim_b=2, **parts)
        for name, more in extra.items():
            parts[name] = {**parts[name], **more}
        with pytest.raises(InvalidProtocol, match="no transcript reaches"):
            InstrumentTree(rounds=2, dim_a=2, dim_b=2, **parts)

    def test_rejects_dims_mismatch(self, make_dist):
        with pytest.raises(InvalidProtocol):
            quantum_law(trivial_tree(3, 3), make_dist((2, 2, 2)))

    def test_caps_bound_the_output_block(self, rng, make_dist, monkeypatch):
        tree = random_instrument_tree(2, 2, rounds=2, outcomes=2, rng=rng)
        monkeypatch.setenv("SECRECY_FORGE_CAPS", '{"rho_dim": 4}')
        with pytest.raises(DimensionCapExceeded):
            quantum_law(tree, make_dist((2, 2, 2)))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of quantum_law(...), of classical_law(...) and
# of the dequantized tables (kernels in transcript order, then final_a and
# final_b in histories() order), and verify_equivalence as float.hex
DEQUANTIZE_PINS = {
    "random-r0-o2-k1": (
        "273d659b75dd3c2fca68fe9a8eac02ffae1d2adc2fdafc77ac3901b6f191662a",
        "b4b5cac9c98db2e0a3a358d06220a0f8ffa6258d7c28091f74f8036fa9004900",
        "0ee72c0b4ee98e1dddffe018748891f4b8c696902d56d616c1a7822cacc7d394",
        "0x1.2000000000000p-54",
    ),  # 1 transcripts
    "random-r2-o2-k1": (
        "bafcd9de6bd301290c447c91b38e98d8111b46b4aea934fd055253a577c84cf3",
        "7eb09610e3190c7c33700bc20e1eefafa4823afabca94fd586b047c0878e99ab",
        "b6275a52243a136a095c856b66bc5c716b2a2172d545f1be1635175454776d58",
        "0x1.b838000000000p-53",
    ),  # 4 transcripts
    "random-r2-o3-k2": (
        "39a2f790d97a4e960cc2f6e2ae0d1f3fed1985318f893354d526f058db193397",
        "29de839bacc5ce514f9ef5a4b27c0d26d9808b152381b4d570515a9bf7d9d565",
        "df0f5a8733db5f60e749a1dcc60da7e5e8a37e72880b5b75eed1285e9687a951",
        "0x1.8300000000000p-53",
    ),  # 9 transcripts
    "random-r4-o2-k2": (
        "5cd5c771682a1e38bddfffca77e1ce538bc6af971a66234287309c28ea86b3b2",
        "d9608fda351443b2259d71c3f585afbb0ae749fa67f700bc78943d6d5577c0da",
        "b8c3defbd613f1098b3598ac73d1f8615ab19cda09fd5dedc008f0ec8a167d2d",
        "0x1.dec0000000000p-53",
    ),  # 16 transcripts
    "random-r4-o2-k1": (
        "7daf829babc2bcd35c36d961accfa3c62ad99ef18a0c47e4e3d0609039613ada",
        "b3060d447b2262b223423900bca627f300b1f9c78c6bd1b2aaa8c1a30a527f59",
        "788e41780ce6697f7d875118f0188b2732c35d242e16715e2713c7035862eb38",
        "0x1.eebc000000000p-53",
    ),  # 16 transcripts
    "random-r2-o3-k1": (
        "8ebbcd7919e93531101530d9cb7f455a8a228c78fbedeb9a18b56e377e24ec82",
        "8af2ac86be036b0bf3cb198f5de3f3a084f194e9426f431811fd1d496270257e",
        "4d78ba74d04e1338a287cf6115b9d2df4c47042be700b0e9efd493873c19c239",
        "0x1.e1f0000000000p-53",
    ),  # 9 transcripts
    "random-n2": (
        "e31034b960c3bded3bebddee6924ec709643c58c8d7f6f7cc3f5bec622300699",
        "879ed2db7613ede1dfecb927ca25b4e159a8b4efb83c163d526c7db370ea1a2a",
        "05a510ac3560dc24230d5ae381b3e2853969fe0948fd20f446e27bcb412c135e",
        "0x1.8be0000000000p-53",
    ),  # 4 transcripts
    "announce-3x3": (
        "fb1c1a24055b44793701f8d0f9e392754da61d3388f71b06ba6c021f6fe781f7",
        "fb1c1a24055b44793701f8d0f9e392754da61d3388f71b06ba6c021f6fe781f7",
        "b89e5d116d8bd9a3490c48856740902c38d40eb81a4971cbaf96e796a9602005",
        "0x0.0p+0",
    ),  # 3 transcripts
    "trivial-2x2": (
        "061cbbfe6c34a0803d6263c6b842d011c5dc38bd5bf3ef0e56c30c75e119a4cd",
        "061cbbfe6c34a0803d6263c6b842d011c5dc38bd5bf3ef0e56c30c75e119a4cd",
        "07ea47b9b2dfc1615fd554ebd45ff7ab2a36b5ab674c8e37f22df1ccf74f8422",
        "0x0.0p+0",
    ),  # 1 transcripts
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_dequantization_is_bitwise_pinned(case):
    tree, d, n = PIN_CASES[case]()
    hist = tree.histories()
    assert list(hist) == sorted(hist)
    twin = kernels, final_a, final_b = dequantize(tree)
    tables = [kernels[h] for h in sorted(kernels)]
    tables += [final_a[h] for h in hist] + [final_b[h] for h in hist]
    got = (
        _digest(quantum_law(tree, d, n)),
        _digest(classical_law(tree, twin, d, n)),
        _digest(*tables),
        verify_equivalence(tree, d, n).hex(),
    )
    assert got == DEQUANTIZE_PINS[case]
