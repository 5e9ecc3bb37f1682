"""Embeddings: amplitudes, the dephasing chain, extensions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from secrecy_forge.distributions import Channel, Dist3
from secrecy_forge.embeddings import (
    PhaseAssignment,
    embed_ccc,
    embed_ccq,
    embed_cqq,
    embed_qqq,
    extension_sigma,
)
from secrecy_forge.errors import SecrecyForgeError
from secrecy_forge.qlinalg import partial_trace, trace_distance


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
# classical-Eve extensions


def test_extension_identity_recovers_ab_marginal(make_dist, rng):
    d = make_dist((2, 2, 3), sparsity=0.2)
    ph = random_phases(rng, d.dims)
    sigma = extension_sigma(d, Channel.identity(3), ph)
    ab_from_sigma = partial_trace(sigma, (0, 1))
    ab_from_qqq = partial_trace(embed_qqq(d, ph).density(), (0, 1))
    assert trace_distance(ab_from_sigma, ab_from_qqq) <= 1e-10


def test_extension_blocks_are_conditionals(make_dist, rng):
    d = make_dist((2, 2, 2))
    ph = random_phases(rng, d.dims)
    sigma = extension_sigma(d, Channel.identity(2), ph)
    dx, dy, dz = d.dims
    n = dx * dy
    amp = (np.exp(1j * ph.phi) * np.sqrt(d.p)).reshape(n, dz)
    r = sigma.rho.reshape(dx, dy, dz, dx, dy, dz)
    pz = d.p.sum(axis=(0, 1))
    for z in range(dz):
        block = r[:, :, z, :, :, z].reshape(n, n)
        want = np.outer(amp[:, z], amp[:, z].conj())  # weight p(z) included
        np.testing.assert_allclose(block, want, atol=1e-12)
        assert abs(np.real(np.trace(block)) - pz[z]) < 1e-12


def test_extension_merge_all_pools_branches(make_dist, rng):
    d = make_dist((2, 2, 2))
    ph = random_phases(rng, d.dims)
    merged = extension_sigma(d, Channel(np.ones((2, 1))), ph)
    assert merged.dims == (2, 2, 1)
    pooled = partial_trace(extension_sigma(d, Channel.identity(2), ph), (0, 1))
    np.testing.assert_allclose(
        partial_trace(merged, (0, 1)).rho, pooled.rho, atol=1e-12
    )


def test_extension_channel_dim_mismatch(make_dist):
    d = make_dist((2, 2, 3))
    with pytest.raises(SecrecyForgeError):
        extension_sigma(d, Channel.identity(2))
