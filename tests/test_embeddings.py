"""Embeddings: amplitudes, the dephasing chain, the pair state and the
extension blocks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secrecy_forge import config
from secrecy_forge.distributions import Channel, Dist3
from secrecy_forge.embeddings import (
    PhaseAssignment,
    embed_ccc,
    embed_ccq,
    embed_cqq,
    embed_qqq,
    extension_blocks,
    pair_state,
)
from secrecy_forge.entanglement import esq_classical_extension_bound
from secrecy_forge.errors import SecrecyForgeError
from secrecy_forge.keyrates import _esq
from secrecy_forge.qlinalg import QState, partial_trace


def random_phases(rng, dims) -> PhaseAssignment:
    return PhaseAssignment(rng.uniform(0.0, 2.0 * math.pi, size=dims))


# ---------------------------------------------------------------------------
# amplitudes


def test_qqq_amplitudes_are_phased_roots(make_dist, rng):
    d = make_dist((2, 3, 2), sparsity=0.2)
    ph = random_phases(rng, d.dims)
    amp = embed_qqq(d, ph).amp.reshape(d.dims)
    want = np.exp(1j * ph.phi) * np.sqrt(d.p)
    np.testing.assert_allclose(amp, want, atol=1e-15)


def test_phase_grid_must_match_dims(make_dist):
    d = make_dist((2, 2, 2))
    with pytest.raises(SecrecyForgeError):
        embed_qqq(d, PhaseAssignment.zeros((2, 2, 3)))


def test_phases_on_null_entries_are_inert(make_dist):
    p = np.array([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]])
    d = Dist3(p)
    bare = PhaseAssignment.zeros(d.dims)
    decorated = PhaseAssignment.from_entries(
        d.dims, [{"x": 0, "y": 1, "z": 0, "phi": 1.3}]
    )
    for emb in (embed_qqq, embed_cqq, embed_ccq):
        a = emb(d, bare)
        b = emb(d, decorated)
        ra = a.density().rho if hasattr(a, "density") else a.rho
        rb = b.density().rho if hasattr(b, "density") else b.rho
        np.testing.assert_array_equal(ra, rb)


# ---------------------------------------------------------------------------
# the dephasing chain


def test_dephasing_chain(make_dist, rng, dephase):
    for sparsity in (0.0, 0.4):
        d = make_dist((2, 2, 3), sparsity=sparsity)
        ph = random_phases(rng, d.dims)
        qqq = embed_qqq(d, ph).density()
        cqq = embed_cqq(d, ph)
        ccq = embed_ccq(d, ph)
        ccc = embed_ccc(d)
        assert np.max(np.abs(dephase(qqq, 0).rho - cqq.rho)) <= 1e-12
        assert np.max(np.abs(dephase(cqq, 1).rho - ccq.rho)) <= 1e-12
        assert np.max(np.abs(dephase(ccq, 2).rho - ccc.rho)) <= 1e-12


def test_ccc_diagonal_is_the_pmf(make_dist):
    d = make_dist((3, 2, 2), sparsity=0.3)
    np.testing.assert_array_equal(np.real(np.diag(embed_ccc(d).rho)), d.p.ravel())


def test_cqq_is_block_diagonal_in_x(make_dist, rng):
    d = make_dist((2, 2, 2))
    st = embed_cqq(d, random_phases(rng, d.dims))
    r = st.rho.reshape(2, 4, 2, 4)
    assert np.max(np.abs(r[0, :, 1, :])) == 0.0
    assert np.max(np.abs(r[1, :, 0, :])) == 0.0


def test_all_embeddings_share_eve_free_marginal(make_dist, rng):
    d = make_dist((2, 2, 2))
    ph = random_phases(rng, d.dims)
    # dephasing acts on A and B only, so tr_E differs across the chain;
    # the classical diagonal must match the pmf in every embedding
    for st in (embed_qqq(d, ph).density(), embed_cqq(d, ph), embed_ccq(d, ph)):
        np.testing.assert_allclose(
            np.real(np.diag(st.rho)), d.p.ravel(), atol=1e-14
        )


# ---------------------------------------------------------------------------
# the pair state and the classical-Eve extension blocks


@st.composite
def dist_with_phases(draw):
    """2-3 symbols for Alice and Bob, 1-4 for Eve; entries zero or heavy,
    phases anywhere in [0, 2pi)."""
    dims = (draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 4)))
    n = math.prod(dims)
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    w = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    if w.sum() == 0.0:
        w[0] = 1.0
    phi = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
    return Dist3(w.reshape(dims) / w.sum()), PhaseAssignment(np.reshape(phi, dims))


def dense_extension(d: Dist3, ph: PhaseAssignment, ch: Channel) -> QState:
    """sum_z sum_zbar Pr[zbar|z] |psi_z><psi_z| (x) |zbar><zbar|, built z by z
    from the coherent state's amplitudes, psi_z = sqrt(p(z)) phi_z; the third
    register is minor."""
    amp = embed_qqq(d, ph).amp.reshape(-1, d.dims[2])
    n, k = amp.shape[0], ch.out_dim
    r = np.zeros((n, k, n, k), dtype=complex)
    for z in range(d.dims[2]):
        for zbar in range(k):
            r[:, zbar, :, zbar] += ch.k[z, zbar] * np.outer(amp[:, z], amp[:, z].conj())
    return QState(r.reshape(n * k, n * k), (*d.dims[:2], k))


@given(dist_with_phases())
def test_pair_state_is_the_traced_coherent_embedding(case):
    d, ph = case
    want = partial_trace(embed_qqq(d, ph).density(), (0, 1))
    got = pair_state(d, ph)
    assert got.dims == want.dims == d.dims[:2]
    assert np.abs(got.rho - want.rho).max() <= 1e-12


@given(dist_with_phases(), st.integers(0, 2**32 - 1))
def test_block_sum_matches_the_dense_extension_route(vn_entropy, case, seed):
    # reference: (1/2) I(A:B|Zbar) of the dense extension, from the entropies
    # of its partial traces; the block route never builds that state
    d, ph = case
    rng = np.random.default_rng(seed)
    dz = d.dims[2]
    for ch in (None, Channel(rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=dz))):
        sigma = dense_extension(d, ph, ch or Channel.identity(dz))
        s_ab, s_a, s_b, s_z = (vn_entropy(partial_trace(sigma, keep))
                               for keep in ((0, 1, 2), (0, 2), (1, 2), (2,)))
        want = 0.5 * (s_a + s_b - s_ab - s_z)
        got = _esq(d, ch, ph, config.SUPPORT_EPS)
        assert abs(got.value - want) <= 1e-10
        # the measures --which esq path splits the same dense state
        dense = esq_classical_extension_bound(sigma)
        assert abs(dense.value - want) <= 1e-10
        np.testing.assert_allclose(got.diagnostics["block_weights"],
                                   dense.diagnostics["block_weights"], atol=1e-15)


def test_extension_identity_recovers_ab_marginal(make_dist, rng):
    # the blocks sum to the pair state
    d = make_dist((2, 3, 3), sparsity=0.2)
    ph = random_phases(rng, d.dims)
    blocks = extension_blocks(d, Channel.identity(3), ph)
    assert blocks.shape == (3, 6, 6)
    np.testing.assert_allclose(blocks.sum(axis=0), pair_state(d, ph).rho, atol=1e-12)


def test_extension_blocks_are_conditionals(make_dist, rng):
    d = make_dist((2, 2, 2))
    ph = random_phases(rng, d.dims)
    blocks = extension_blocks(d, Channel.identity(2), ph)
    dx, dy, dz = d.dims
    amp = (np.exp(1j * ph.phi) * np.sqrt(d.p)).reshape(dx * dy, dz)
    pz = d.p.sum(axis=(0, 1))
    for z in range(dz):
        want = np.outer(amp[:, z], amp[:, z].conj())  # weight p(z) included
        np.testing.assert_allclose(blocks[z], want, atol=1e-12)
        assert abs(np.real(np.trace(blocks[z])) - pz[z]) < 1e-12


def test_extension_merge_all_pools_branches(make_dist, rng):
    d = make_dist((2, 2, 2))
    ph = random_phases(rng, d.dims)
    merged = extension_blocks(d, Channel(np.ones((2, 1))), ph)
    assert merged.shape == (1, 4, 4)
    pooled = extension_blocks(d, Channel.identity(2), ph).sum(axis=0)
    np.testing.assert_allclose(merged[0], pooled, atol=1e-12)


def test_extension_channel_dim_mismatch(make_dist):
    d = make_dist((2, 2, 3))
    with pytest.raises(SecrecyForgeError):
        extension_blocks(d, Channel.identity(2))
