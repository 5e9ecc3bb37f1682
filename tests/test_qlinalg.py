"""State layer: validation, partial trace, entropies, distances; and the
reference dephasing map the embedding tests rely on."""

from __future__ import annotations

import math

import numpy as np
import pytest

from secrecy_forge.errors import InvalidState, SecrecyForgeError
from secrecy_forge.qlinalg import (
    PureState,
    QState,
    mutual_info_q,
    partial_trace,
    trace_distance,
)

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), (2, 2))


def partial_trace_oracle(
    rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Index-juggling reference implementation, kept independent of the library."""
    n = len(dims)
    t = rho.reshape(dims + dims)
    letters = "abcdefghijkl"
    in_idx = list(letters[:n])
    out_idx = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    subs = "".join(in_idx) + "".join(out_idx)
    kept_in = "".join(letters[i] for i in keep)
    kept_out = "".join(letters[n + i] for i in keep)
    mat = np.einsum(f"{subs}->{kept_in}{kept_out}", t)
    d = int(np.prod([dims[i] for i in keep]))
    return mat.reshape(d, d)


# ---------------------------------------------------------------------------
# validation


def test_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(InvalidState):
        QState(m, (2,))


def test_rejects_wrong_trace():
    with pytest.raises(InvalidState):
        QState(np.eye(2), (2,))


def test_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5])
    with pytest.raises(InvalidState):
        QState(m, (2,))


def test_rejects_dims_mismatch():
    with pytest.raises(InvalidState):
        QState(np.eye(4) / 4.0, (2, 3))


def test_pure_state_norm_check():
    with pytest.raises(InvalidState):
        PureState(np.array([1.0, 1.0]), (2,))


def test_state_matrix_frozen():
    st = QState(np.eye(2) / 2.0, (2,))
    with pytest.raises(ValueError):
        st.rho[0, 0] = 1.0


def test_spectrum_is_the_read_only_validation_eigensolve(make_density):
    st = make_density((2, 3))
    assert st.spectrum.tobytes() == np.linalg.eigvalsh(st.rho).tobytes()
    with pytest.raises(ValueError):
        st.spectrum[0] = 0.5


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_recovers_factors(make_density):
    a = make_density((2,))
    b = make_density((3,))
    t = QState(np.kron(a.rho, b.rho), (2, 3))
    np.testing.assert_allclose(partial_trace(t, (0,)).rho, a.rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(t, (1,)).rho, b.rho, atol=1e-12)


def test_partial_trace_reorders_as_listed(make_density):
    a = make_density((2,))
    b = make_density((3,))
    t = QState(np.kron(a.rho, b.rho), (2, 3))
    swapped = partial_trace(t, (1, 0))
    assert swapped.dims == (3, 2)
    np.testing.assert_allclose(swapped.rho, np.kron(b.rho, a.rho), atol=1e-12)


def test_partial_trace_keeping_everything_in_order_is_the_state(make_density):
    st = make_density((2, 3, 2))
    assert partial_trace(st, range(3)) is st
    assert partial_trace(st, (0, 2, 1)) is not st


def test_partial_trace_matches_oracle(make_density):
    st = make_density((2, 3, 2))
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        got = partial_trace(st, keep).rho
        want = partial_trace_oracle(st.rho, st.dims, keep)
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# dephasing (the reference map in conftest.py)


def test_dephase_zeroes_cross_terms(dephase):
    st = BELL.density()
    out = dephase(st, 0)
    want = np.diag([0.5, 0, 0, 0.5])
    np.testing.assert_allclose(out.rho, want, atol=1e-14)


def test_dephase_keeps_within_block_coherence(dephase):
    # |0>(|0>+|1>)/sqrt(2): dephasing subsystem 0 must keep B's coherence
    amp = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    st = PureState(amp, (2, 2)).density()
    out = dephase(st, 0)
    np.testing.assert_allclose(out.rho, st.rho, atol=1e-14)


def test_dephase_idempotent(make_density, dephase):
    st = make_density((2, 3))
    once = dephase(st, 1)
    twice = dephase(once, 1)
    np.testing.assert_allclose(once.rho, twice.rho, atol=1e-14)


def test_dephase_preserves_diagonal(make_density, dephase):
    st = make_density((2, 2))
    for sub in (0, 1):
        np.testing.assert_allclose(
            np.diag(dephase(st, sub).rho), np.diag(st.rho), atol=1e-14
        )


# ---------------------------------------------------------------------------
# entropies, distances, conditional mutual information


def test_entropy_of_pure_state_is_zero(make_density, vn_entropy):
    # mutual_info_q's S(AB) term is the library's entropy of the whole state
    st = make_density((2, 2), rank=1)
    s_a, s_b = (vn_entropy(partial_trace(st, (k,))) for k in (0, 1))
    assert abs(s_a + s_b - mutual_info_q(st)) < 1e-9


def test_entropy_reads_the_kept_spectrum(make_density, monkeypatch, vn_entropy):
    # only the two marginals are solved; S(AB) reads the spectrum that
    # validation kept
    st = make_density((2, 3))
    s_ab = -sum(w * math.log2(w) for w in np.linalg.eigvalsh(st.rho) if w > 1e-12)
    want = vn_entropy(partial_trace(st, (0,))) + vn_entropy(partial_trace(st, (1,))) - s_ab
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return np.linalg.eigh(a, *args, **kwargs)[0]

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert mutual_info_q(st) == pytest.approx(want, abs=1e-12)
    assert calls == [(2, 2), (3, 3)]


def test_bell_reduced_entropy_is_one(vn_entropy):
    red = partial_trace(BELL.density(), (0,))
    assert abs(vn_entropy(red) - 1.0) < 1e-12


def test_trace_distance_extremes():
    zero = PureState(np.array([1.0, 0.0]), (2,)).density()
    one = PureState(np.array([0.0, 1.0]), (2,)).density()
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert trace_distance(zero, zero) < 1e-14


def test_trace_distance_solves_only_a_nonzero_difference(make_density, monkeypatch):
    rho, sigma = make_density((2, 3)), make_density((2, 3))
    copy = QState(rho.rho.copy(), rho.dims)
    diff = rho.rho - sigma.rho
    solved = float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
    solves = []

    def counting_eigvalsh(a):
        solves.append(a.shape)
        return eigvalsh(a)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, copy) == 0.0
    assert solves == []
    assert trace_distance(rho, sigma) == solved
    assert solves == [diff.shape]


def test_trace_distance_requires_matching_dims(make_density):
    with pytest.raises(SecrecyForgeError):
        trace_distance(make_density((2,)), make_density((3,)))


def test_bell_mutual_information():
    assert abs(mutual_info_q(BELL.density()) - 2.0) < 1e-9


def test_mutual_information_equals_its_entropies_and_builds_no_state(
    make_density, monkeypatch, vn_entropy
):
    # the marginals are the ones partial_trace builds and the entropies
    # sum the same terms, so every sum agrees to the bit; states are built
    # before the spy goes in
    states = [make_density((da, db), rank) for da in range(1, 5)
              for db in range(1, 5) for rank in (1, da * db)]
    expected = [vn_entropy(partial_trace(s, (0,)))
                + vn_entropy(partial_trace(s, (1,)))
                - vn_entropy(s) for s in states]
    built = []
    validate = QState.__post_init__

    def spy(self):
        built.append(self.dims)
        validate(self)

    monkeypatch.setattr(QState, "__post_init__", spy)
    assert [mutual_info_q(s) for s in states] == expected
    assert built == []


def test_mutual_information_needs_two_parties(make_density):
    with pytest.raises(SecrecyForgeError):
        mutual_info_q(make_density((2, 2, 2)))
