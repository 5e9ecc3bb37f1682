"""Distribution layer: validation, entropy values, marginals, products."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secrecy_forge.distributions import (
    Channel,
    Dist3,
    apply_channel_z,
    binary_entropy,
    conditional_mutual_information,
    entropy_bits,
    mutual_information,
    product_power,
)
from secrecy_forge.errors import (
    DimensionCapExceeded,
    InvalidChannel,
    InvalidDistribution,
)

H_QUARTER = 0.811278124459  # binary entropy of 1/4 to 12 digits


def entropy_oracle(p: np.ndarray) -> float:
    flat = np.asarray(p, dtype=float).ravel()
    flat = flat[flat > 0.0]
    return float(-(flat * np.log2(flat)).sum())


@st.composite
def pmf3(draw, dims=(2, 2, 2)):
    n = int(np.prod(dims))
    w = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.array(w).reshape(dims)
    return arr / arr.sum()


# ---------------------------------------------------------------------------
# validation


def test_rejects_negative_entries():
    p = np.array([[[0.6, 0.5]], [[-0.1, 0.0]]])
    with pytest.raises(InvalidDistribution):
        Dist3(p)


def test_rejects_bad_normalization():
    with pytest.raises(InvalidDistribution):
        Dist3(np.full((2, 2, 2), 0.2))


def test_rejects_wrong_rank():
    with pytest.raises(InvalidDistribution):
        Dist3(np.full((2, 2), 0.25))


def test_arrays_are_frozen():
    d = Dist3(np.full((2, 2, 2), 0.125))
    with pytest.raises(ValueError):
        d.p[0, 0, 0] = 1.0


def test_channel_rejects_non_stochastic():
    with pytest.raises(InvalidChannel):
        Channel(np.array([[0.5, 0.4], [0.1, 0.9]]))


def test_deterministic_channel_assignment_round_trip():
    ch = Channel.deterministic([1, 0, 1])
    assert ch.assignment() == [1, 0, 1]
    assert ch.out_dim == 2


def test_stochastic_channel_has_no_assignment():
    ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(InvalidChannel, match="not deterministic"):
        ch.assignment()


def test_deterministic_channel_rejects_negative_symbol():
    with pytest.raises(InvalidChannel):
        Channel.deterministic([0, -1])


# ---------------------------------------------------------------------------
# entropy and information values


def test_binary_entropy_quarter():
    assert abs(binary_entropy(0.25) - H_QUARTER) < 1e-12


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15


def test_entropy_uniform():
    assert abs(entropy_bits(np.full(8, 0.125)) - 3.0) < 1e-12


def test_entropy_matches_oracle(make_dist):
    for _ in range(5):
        d = make_dist((3, 2, 4), sparsity=0.3)
        assert abs(entropy_bits(d.p) - entropy_oracle(d.p)) < 1e-12


def test_mutual_information_independent_is_zero():
    p = np.outer([0.3, 0.7], [0.2, 0.8]).reshape(2, 2)
    assert abs(mutual_information(p, (0,), (1,))) < 1e-12


def test_mutual_information_perfect_correlation():
    p = np.diag([0.25, 0.75])
    assert abs(mutual_information(p, (0,), (1,)) - H_QUARTER) < 1e-12


def test_cmi_matches_entropy_combination(make_dist):
    d = make_dist((3, 3, 2))
    p = d.p
    direct = (
        entropy_oracle(p.sum(axis=1))
        + entropy_oracle(p.sum(axis=0))
        - entropy_oracle(p)
        - entropy_oracle(p.sum(axis=(0, 1)))
    )
    assert abs(conditional_mutual_information(p, (0,), (1,), (2,)) - direct) < 1e-12


@given(pmf3())
def test_mutual_information_nonnegative(p):
    assert mutual_information(p, (0,), (1, 2)) >= -1e-12


@given(pmf3())
def test_chain_rule(p):
    lhs = mutual_information(p, (0,), (1, 2))
    rhs = mutual_information(p, (0,), (2,)) + conditional_mutual_information(
        p, (0,), (1,), (2,)
    )
    assert abs(lhs - rhs) < 1e-9


@given(pmf3((2, 3, 2)))
def test_entropy_bounds(p):
    h = entropy_bits(p)
    assert -1e-12 <= h <= math.log2(p.size) + 1e-12


# ---------------------------------------------------------------------------
# marginals


def test_joint_marginal_groups(make_dist):
    # I(X:Z) groups axes 0 and 2, in either order: its joint term is the
    # entropy of the (x, z) marginal
    d = make_dist((2, 3, 2))
    want = (entropy_bits(d.p.sum(axis=(1, 2))) + entropy_bits(d.p.sum(axis=(0, 1)))
            - entropy_bits(d.p.sum(axis=1)))
    for a, b in (((0,), (2,)), ((2,), (0,))):
        assert mutual_information(d.p, a, b) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# products and channels


def test_product_power_indexing(make_dist):
    d = make_dist((2, 3, 2))
    d2 = product_power(d, 2)
    assert d2.dims == (4, 9, 4)
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(3):
                for y2 in range(3):
                    for z1 in range(2):
                        for z2 in range(2):
                            want = d.p[x1, y1, z1] * d.p[x2, y2, z2]
                            got = d2.p[x1 * 2 + x2, y1 * 3 + y2, z1 * 2 + z2]
                            assert abs(got - want) < 1e-15


def test_product_power_identity():
    d = Dist3(np.full((2, 2, 2), 0.125))
    assert product_power(d, 1) is not None
    np.testing.assert_allclose(product_power(d, 1).p, d.p)


def test_product_power_cap(monkeypatch):
    monkeypatch.setenv("SECRECY_FORGE_CAPS", '{"product_states": 1000}')
    d = Dist3(np.full((2, 2, 2), 0.125))
    with pytest.raises(DimensionCapExceeded):
        product_power(d, 5)


def test_apply_channel_z_oracle(make_dist):
    d = make_dist((2, 2, 3))
    ch = Channel(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    out = apply_channel_z(d, ch)
    want = np.einsum("xyz,zw->xyw", d.p, ch.k)
    np.testing.assert_allclose(out.p, want, atol=1e-15)


def test_apply_channel_z_dimension_mismatch(make_dist):
    d = make_dist((2, 2, 3))
    with pytest.raises(InvalidChannel):
        apply_channel_z(d, Channel(np.eye(2)))
