"""Entanglement measures against closed-form oracles."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecy_forge import entanglement
from secrecy_forge.entanglement import (
    eof_2q,
    eof_numeric,
    esq_classical_extension_bound,
    negativity_log,
    rel_ent_upper,
)
from secrecy_forge.distributions import Dist3
from secrecy_forge.embeddings import PhaseAssignment, pair_state
from secrecy_forge.errors import InvalidState, SecrecyForgeError
from secrecy_forge.keyrates import (
    advantage_report,
    binary_eve_family,
    independent_eve_example,
    one_sided_coherence_example,
    two_block_uniform_example,
    verify_chain,
)
from secrecy_forge.qlinalg import PureState, QState

BELL = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)).density()
PRODUCT = PureState(np.array([1, 0, 0, 0]), (2, 2)).density()


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def werner(p: float) -> QState:
    rho = p * BELL.rho + (1 - p) * np.eye(4) / 4
    return QState(rho, (2, 2))


def werner_eof_oracle(p: float) -> float:
    # concurrence of the Werner state is max(0, (3p - 1) / 2)
    c = max(0.0, (3 * p - 1) / 2)
    return h2((1 + math.sqrt(1 - c * c)) / 2)


def _full_rank_2q(seed: int) -> QState:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return QState(rho / np.trace(rho).real, (2, 2))


PIN_STATES = {
    "lambda-quarter": lambda: pair_state(binary_eve_family(0.25)),
    "two-block": lambda: pair_state(two_block_uniform_example()),
    "one-sided": lambda: pair_state(*one_sided_coherence_example()),
    "full-rank-101": lambda: _full_rank_2q(101),
    "full-rank-202": lambda: _full_rank_2q(202),
}

# (state, seed) of eof_numeric, each checked against a closed form
EOF_PINS = [
    ("lambda-quarter", 0),
    ("lambda-quarter", 3),
    ("two-block", 0),
    ("two-block", 3),
    ("one-sided", 0),
    ("one-sided", 3),
    ("one-sided", 6),
    ("full-rank-101", 0),
    ("full-rank-101", 3),
    ("full-rank-202", 0),
    ("full-rank-202", 3),
]


class TestTwoQubitFormation:
    def test_bell_is_one_ebit(self):
        assert eof_2q(BELL).value == pytest.approx(1.0, abs=1e-12)
        assert eof_2q(BELL).diagnostics["concurrence"] == pytest.approx(1.0, abs=1e-12)

    def test_product_is_zero(self):
        assert eof_2q(PRODUCT).value == 0.0
        assert eof_2q(PRODUCT).diagnostics["concurrence"] == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.75, 0.9, 1.0])
    def test_werner_matches_concurrence_formula(self, p):
        assert eof_2q(werner(p)).value == pytest.approx(
            werner_eof_oracle(p), abs=1e-12
        )

    def test_result_kinds(self):
        res = eof_2q(BELL)
        assert res.name == "E_F" and res.kind == "exact"
        assert res.method == "wootters"

    def test_value_never_negative(self, make_density):
        for _ in range(8):
            assert eof_2q(make_density((2, 2))).value >= 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(SecrecyForgeError):
            eof_2q(QState(np.eye(9) / 9, (3, 3)))
        with pytest.raises(SecrecyForgeError):
            eof_2q(QState(np.eye(8) / 8, (2, 2, 2)))


class TestNumericFormation:
    def test_pure_state_shortcut(self):
        vec = np.array([math.sqrt(0.3), 0, 0, math.sqrt(0.7)])
        res = eof_numeric(PureState(vec, (2, 2)).density(), seed=0)
        assert res.method == "pure-state"
        assert res.value == pytest.approx(h2(0.3), abs=1e-12)

    def test_matches_wootters_on_random_states(self, make_density):
        # acceptance runs the wide sweep; three states here keep the suite fast
        for seed in range(3):
            rho = make_density((2, 2))
            num = eof_numeric(rho, seed=seed).value
            assert num == pytest.approx(eof_2q(rho).value, abs=1e-4)

    def test_upper_bounds_exact_value(self, make_density):
        # the ensemble search converges from above
        rho = make_density((2, 2))
        assert eof_numeric(rho, seed=1).value >= eof_2q(rho).value - 1e-7

    @pytest.mark.parametrize("state, seed", EOF_PINS)
    def test_formation_meets_closed_forms(self, state, seed):
        rho = PIN_STATES[state]()
        res = eof_numeric(rho, seed=seed)
        diag = res.diagnostics
        if rho.dims != (2, 2):
            # both pair states are block diagonal under local splits into
            # ebits of equal weight (two for two-block, three for
            # one-sided), so E_F = 1 with no optimizer step; for two-block
            # this is the paper's equality band E_F = K_D = H(J|Z) = 1
            assert res.kind == "exact"
            assert res.value == pytest.approx(1.0, abs=1e-9)
            assert diag["iterations"] == 0
            return
        assert res.kind == "upper_bound"
        exact = eof_2q(rho).value
        assert abs(res.value - exact) <= 1e-6
        assert res.value >= exact - 1e-9
        stops = (
            diag["restarts_converged"]
            + diag["restarts_stalled"]
            + diag["restarts_at_max_iter"]
        )
        assert stops == diag["restarts"] == 32

    def test_two_copies_stay_below_twice_one_copy(self):
        # E_F is subadditive, so E_F(rho (x) rho) <= 2 E_F(rho); A = A1 A2
        # and B = B1 B2
        rho = PIN_STATES["lambda-quarter"]()
        two = np.kron(rho.rho, rho.rho).reshape([2] * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        res = eof_numeric(QState(two.reshape(16, 16), (4, 4)), seed=0)
        assert res.kind == "upper_bound"
        assert res.value <= 2 * eof_2q(rho).value + 1e-6

    def test_restarts_cut_by_max_iter_are_counted(self, make_density, monkeypatch):
        monkeypatch.setattr(entanglement, "EOF_RESTARTS", 5)
        monkeypatch.setattr(entanglement, "EOF_MAX_ITER", 3)
        res = eof_numeric(make_density((2, 2)))
        diag = res.diagnostics
        assert diag["restarts_at_max_iter"] == 5
        assert diag["restarts_converged"] == diag["restarts_stalled"] == 0
        assert diag["iterations"] == 15


class TestNegativity:
    def test_bell_is_one(self):
        assert negativity_log(BELL).value == pytest.approx(1.0, abs=1e-12)

    def test_product_is_zero(self):
        assert negativity_log(PRODUCT).value == 0.0

    def test_kind_is_exact(self):
        assert negativity_log(BELL).kind == "exact"

    def test_not_a_lower_bound_on_formation(self):
        # on sqrt(q)|00> + sqrt(1-q)|11>: E_N = log2((sqrt(q) + sqrt(1-q))^2)
        # and E_F = E_r = h(q), which is smaller
        q = 0.9
        vec = np.array([math.sqrt(q), 0, 0, math.sqrt(1 - q)])
        rho = PureState(vec, (2, 2)).density()
        neg = negativity_log(rho).value
        assert neg == pytest.approx(math.log2(1 + 2 * math.sqrt(q * (1 - q))), abs=1e-12)
        assert eof_numeric(rho).value == pytest.approx(h2(q), abs=1e-12)
        assert neg > h2(q) + 0.2

    def test_ppt_werner_has_zero_negativity(self):
        # Werner states are PPT exactly for p <= 1/3
        assert negativity_log(werner(1 / 3)).value == pytest.approx(0.0, abs=1e-9)
        assert negativity_log(werner(0.5)).value > 1e-3


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def spectrum_entropy(m: np.ndarray) -> float:
    return entropy(np.linalg.eigvalsh(m))


def hashing_floor(rho: QState) -> float:
    """max(S(A), S(B)) - S(AB), clamped at 0."""
    da, db = rho.dims
    t = rho.rho.reshape(da, db, da, db)
    s_a = spectrum_entropy(np.trace(t, axis1=1, axis2=3))
    s_b = spectrum_entropy(np.trace(t, axis1=0, axis2=2))
    return max(0.0, max(s_a, s_b) - spectrum_entropy(rho.rho))


def computational_ceiling(rho: QState) -> float:
    """S(rho || Delta rho) for Delta the computational-basis dephasing."""
    return entropy(np.diag(rho.rho).real) - spectrum_entropy(rho.rho)


def local_eigenbasis_ceiling(rho: QState) -> float:
    """S(rho || Delta rho) for Delta the dephasing in the eigenbasis of
    rho_A (x) rho_B."""
    da, db = rho.dims
    t = rho.rho.reshape(da, db, da, db)
    u = np.kron(np.linalg.eigh(np.trace(t, axis1=1, axis2=3))[1],
                np.linalg.eigh(np.trace(t, axis1=0, axis2=2))[1])
    return entropy(np.diag(u.conj().T @ rho.rho @ u).real) - spectrum_entropy(rho.rho)


def random_density(dims: tuple[int, int], rank: int, seed: int) -> QState:
    d = dims[0] * dims[1]
    g = np.random.default_rng(seed).standard_normal((d, rank, 2)) @ [1, 1j]
    rho = g @ g.conj().T
    return QState(rho / np.trace(rho).real, dims)


# Expected E_r from theory; the states are maximally correlated or pure,
# where the hashing floor meets the dephasing ceiling.
#  * binary_eve_family(l): S(Delta rho) = h(1/4 + l/2); S(AB) is the
#    entropy of Eve's Gram matrix, eigenvalues 1/2 +- c with
#    c = (sqrt(l) + sqrt(1 - l)) / (2 sqrt 2).
#  * two-block example: four equiprobable diagonal terms (2 bits) over two
#    orthogonal equal-weight branches (1 bit).
#  * independent-Eve example: a pure state; rho_A has eigenvalues
#    1/2 +- 1/sqrt(8).
CLOSED_FORMS = {
    "lambda-quarter": (
        lambda: pair_state(binary_eve_family(0.25)),
        h2(0.25 + 0.125) - h2(0.5 + (0.5 + math.sqrt(0.75)) / (2 * math.sqrt(2))),
        0.829969352,
    ),
    "two-block": (
        lambda: pair_state(two_block_uniform_example()),
        entropy([0.25] * 4) - entropy([0.5, 0.5]),
        1.0,
    ),
    "independent-eve": (
        lambda: pair_state(independent_eve_example()),
        h2(0.5 + 1 / math.sqrt(8)),
        0.600876037,
    ),
}


class TestRelativeEntropyUpper:
    def test_bell_close_to_one(self):
        # a pure state's E_r is its entanglement entropy (Vedral & Plenio,
        # PRA 57, 1619 (1998))
        res = rel_ent_upper(BELL, seed=0)
        assert res.kind == "exact"
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.diagnostics["iterations"] == 0

    def test_separable_state_close_to_zero(self):
        assert rel_ent_upper(PRODUCT, seed=0).value <= 1e-5

    @pytest.mark.parametrize("state", sorted(CLOSED_FORMS))
    def test_closed_forms_are_exact(self, state):
        make, expected, decimal = CLOSED_FORMS[state]
        res = rel_ent_upper(make(), seed=0)
        assert res.kind == "exact"
        assert res.diagnostics["iterations"] == 0
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(decimal, abs=1e-9)

    def test_open_bracket_runs_the_optimizer(self):
        # the one-sided pair (three equal-weight ebits on local blocks, so
        # E_r = 1) under a real rotation of levels 1 and 2 on each side:
        # the blocks no longer sit on computational levels, so the state
        # does not split, while E_r and the hashing floor S(A) - S(AB) =
        # H(1/3, 1/3, 1/6, 1/6) - log2 3 = 1/3 are local-unitary invariants
        rot = np.eye(4)
        c, s = math.cos(0.3), math.sin(0.3)
        rot[1:3, 1:3] = [[c, -s], [s, c]]
        u = np.kron(rot, rot)
        pair = pair_state(*one_sided_coherence_example())
        rho = QState(u @ pair.rho @ u.T, (4, 4))
        assert entanglement._local_blocks(rho) is None
        res = rel_ent_upper(rho, seed=0)
        diag = res.diagnostics
        assert res.kind == "upper_bound"
        assert diag["iterations"] > 0
        assert diag["lower_bound"] == pytest.approx(1 / 3, abs=1e-12)
        assert diag["lower_bound"] == pytest.approx(hashing_floor(rho), abs=1e-12)
        assert res.value == diag["upper_bound"] == diag["optimizer_value"]
        # no separable sigma goes below the hashing floor
        assert 1 / 3 <= diag["optimizer_value"] <= 1 + 1e-5

    @pytest.mark.parametrize("dims, rank, seed", [((2, 2), 4, 0), ((2, 3), 2, 2)])
    def test_ceiling_caps_a_stuck_optimizer(self, dims, rank, seed, monkeypatch):
        # an optimizer that stops half a bit above the dephasing ceiling
        rho = random_density(dims, rank, seed)
        ceiling = min(computational_ceiling(rho), local_eigenbasis_ceiling(rho))
        monkeypatch.setattr(
            entanglement,
            "_lbfgs",
            lambda x, args: (np.full(len(x), ceiling + 0.5), np.ones(len(x), dtype=int),
                             np.arange(0)),
        )
        res = rel_ent_upper(rho)
        assert res.kind == "upper_bound"
        assert res.value == pytest.approx(ceiling, abs=1e-12)
        assert res.diagnostics["optimizer_value"] == ceiling + 0.5

    def test_closed_bracket_honours_tol(self):
        rho = random_density((2, 2), 2, 0)
        res = rel_ent_upper(rho, tol=1.0)
        assert res.kind == "exact"
        assert res.diagnostics["iterations"] == 0
        assert res.value == res.diagnostics["upper_bound"]

    def test_restarts_cut_by_max_iter_are_counted(self):
        # the pair state of a random pmf with random phases: every restart
        # still gains when the step cap runs out
        rng = np.random.default_rng(0)
        p = rng.random((2, 3, 2))
        phases = PhaseAssignment(rng.random((2, 3, 2)) * 2 * math.pi)
        rho = pair_state(Dist3(p / p.sum()), phases)
        diag = rel_ent_upper(rho).diagnostics
        cap = entanglement.REL_ENT_MAX_ITER
        assert diag["restarts_at_max_iter"] == diag["restarts"] == 4
        assert diag["iterations"] == 4 * cap
        # two copies on disjoint local levels are measured block by block,
        # and the blocks' counts add up
        both = np.zeros((4, 6, 4, 6), dtype=complex)
        both[:2, :3, :2, :3] = both[2:, 3:, 2:, 3:] = rho.rho.reshape(2, 3, 2, 3) / 2
        diag = rel_ent_upper(QState(both.reshape(24, 24), (4, 6))).diagnostics
        assert [b["dims"] for b in diag["blocks"]] == [[2, 3], [2, 3]]
        assert diag["restarts_at_max_iter"] == 8
        assert diag["iterations"] == 8 * cap
        # a closed bracket runs no optimizer and reports no cap, split or not
        assert "restarts_at_max_iter" not in rel_ent_upper(BELL).diagnostics
        two_bells = np.zeros((4, 4, 4, 4), dtype=complex)
        two_bells[:2, :2, :2, :2] = two_bells[2:, 2:, 2:, 2:] = BELL.rho.reshape(2, 2, 2, 2) / 2
        split = rel_ent_upper(QState(two_bells.reshape(16, 16), (4, 4)))
        assert split.method == "local-blocks"
        assert "restarts_at_max_iter" not in split.diagnostics


@settings(max_examples=30)
@given(
    dims=st.sampled_from([(2, 2), (2, 3)]),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=(2, 3), rank=2, seed=2)  # an open bracket: the optimizer runs
def test_rel_ent_value_lies_in_its_bracket(dims, rank, seed):
    rho = random_density(dims, min(rank, dims[0] * dims[1]), seed)
    res = rel_ent_upper(rho)
    lo, hi = res.diagnostics["lower_bound"], res.diagnostics["upper_bound"]
    assert lo <= res.value + 1e-12
    assert res.value <= hi + 1e-12
    assert lo >= hashing_floor(rho) - 1e-9
    assert res.value <= computational_ceiling(rho) + 1e-9
    assert res.value <= local_eigenbasis_ceiling(rho) + 1e-9
    if res.kind == "exact":
        assert hi - lo <= 1e-9
    else:
        assert res.value == min(res.diagnostics["optimizer_value"], hi)


# block dims per configuration; each keeps dim(rho) <= OPT_DIM_CAP = 16
SPLIT_SHAPES = [
    ((2, 2), (2, 2)),
    ((2, 2), (1, 2)),
    ((2, 3), (2, 1)),
    ((2, 2), (1, 1), (1, 1)),
    ((1, 2), (2, 1), (1, 1)),
]


@st.composite
def local_block_states(draw):
    """2-3 random blocks on disjoint level sets of A and of B, with random
    weights, the levels of each side permuted at random.

    Returns the state and, per block, its weight, its A and B levels and
    its density matrix in the order of those levels.
    """
    shapes = draw(st.sampled_from(SPLIT_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.2, 1.0, len(shapes))
    weights /= weights.sum()
    da, db = (sum(s[i] for s in shapes) for i in (0, 1))
    perm_a, perm_b = rng.permutation(da), rng.permutation(db)
    rho = np.zeros((da, db, da, db), dtype=complex)
    blocks, off_a, off_b = [], 0, 0
    for p, (a, b) in zip(weights, shapes):
        rank = int(rng.integers(1, min(a * b, 2) + 1))
        blk = random_density((a, b), rank, int(rng.integers(2**32))).rho
        lev_a, lev_b = perm_a[off_a : off_a + a], perm_b[off_b : off_b + b]
        rho[np.ix_(lev_a, lev_b, lev_a, lev_b)] = p * blk.reshape(a, b, a, b)
        # the same block with its levels in ascending order
        oa, ob = np.argsort(lev_a), np.argsort(lev_b)
        blk = blk.reshape(a, b, a, b)[np.ix_(oa, ob, oa, ob)].reshape(a * b, a * b)
        blocks.append((p, np.sort(lev_a), np.sort(lev_b), blk))
        off_a, off_b = off_a + a, off_b + b
    return QState(rho.reshape(da * db, da * db), (da, db)), blocks


@settings(max_examples=12)
@given(local_block_states())
def test_split_state_is_measured_block_by_block(case):
    rho, blocks = case
    cells = entanglement._local_blocks(rho)
    key = lambda c: (c[1].tolist(), c[2].tolist())
    assert len(cells) == len(blocks)
    for (p, a, b, block), (q, qa, qb, blk) in zip(sorted(cells, key=key), sorted(blocks, key=key)):
        assert (a.tolist(), b.tolist()) == (qa.tolist(), qb.tolist())
        assert p == pytest.approx(q, abs=1e-12)
        assert np.abs(block.rho - blk).max() <= 1e-12
    # E(rho) = sum_ij p_ij E(rho_ij); a block with a side of dimension 1 is 0
    er, ef = rel_ent_upper(rho), eof_numeric(rho)
    for res, measure, keys in (
        (er, rel_ent_upper, ("lower_bound", "upper_bound")),
        (ef, eof_numeric, ()),
    ):
        parts = [(p, measure(block)) for p, _, _, block in cells if min(block.dims) > 1]
        assert res.value == pytest.approx(sum(p * m.value for p, m in parts), abs=1e-12)
        for key in keys:
            assert res.diagnostics[key] == pytest.approx(
                sum(p * m.diagnostics[key] for p, m in parts), abs=1e-12
            )
        assert res.kind == (
            "exact" if all(m.kind == "exact" for _, m in parts) else "upper_bound"
        )
        assert [b["weight"] for b in res.diagnostics["blocks"]] == [c[0] for c in cells]
    assert er.diagnostics["lower_bound"] >= hashing_floor(rho) - 1e-9
    assert er.diagnostics["lower_bound"] <= er.value <= er.diagnostics["upper_bound"] + 1e-12
    assert er.value <= computational_ceiling(rho) + 1e-9
    assert er.value <= local_eigenbasis_ceiling(rho) + 1e-9
    # a coherence of 1e-6 between every two cells joins them all
    da, db = rho.dims
    psi = np.zeros(da * db)
    psi[[a[0] * db + b[0] for _, a, b, _ in cells]] = 1.0
    eps = 1e-6 * len(cells)
    mixed = (1 - eps) * rho.rho + eps * np.outer(psi, psi) / len(cells)
    assert entanglement._local_blocks(QState(mixed, rho.dims)) is None


@pytest.mark.parametrize("report", [verify_chain, advantage_report])
def test_each_state_is_split_once(report, monkeypatch):
    # verify_chain measures rho_AB with E_r and E_F, advantage_report with
    # E_r alone; either way a state, cells included, is split once
    d, phases = one_sided_coherence_example()
    split_states = []

    def counting_split(rho):
        split_states.append(rho)  # kept alive, so no id is reused
        return split(rho)

    split = entanglement._split_blocks
    monkeypatch.setattr(entanglement, "_split_blocks", counting_split)
    report(d, phases)
    assert split(split_states[0]) is not None  # rho_AB splits
    assert len(split_states) > 1  # and its cells are split in turn
    assert len({id(rho) for rho in split_states}) == len(split_states)


def _two_by_three_split_state() -> QState:
    """|0><0| (x) a mixed qubit on B levels {0, 1}, plus |1><1| (x) |2><2|."""
    rho = np.zeros((2, 3, 2, 3))
    rho[0, :2, 0, :2] = 0.6 * np.array([[0.5, 0.25], [0.25, 0.5]])
    rho[1, 2, 1, 2] = 0.4
    return QState(rho.reshape(6, 6), (2, 3))


def test_a_split_labels_both_sides_at_once(monkeypatch):
    pair = pair_state(*one_sided_coherence_example())
    cell = entanglement._split_blocks(pair)[0][3]
    calls = []

    def counting_roots(adj):
        calls.append(adj.shape)
        return roots(adj)

    roots = entanglement._component_roots
    monkeypatch.setattr(entanglement, "_component_roots", counting_roots)
    cases = [
        (pair, [([0, 1], [0, 1]), ([0, 1], [2, 3]), ([2, 3], [0, 1])]),
        (cell, None),
        (_two_by_three_split_state(), [([0], [0, 1]), ([1], [2])]),
    ]
    for rho, want in cases:
        calls.clear()
        cells = entanglement._split_blocks(rho)
        assert len(calls) == 1
        got = cells and [(a.tolist(), b.tolist()) for _, a, b, _ in cells]
        assert got == want


def test_a_shared_split_carries_nothing_between_measures():
    d, phases = one_sided_coherence_example()
    rho, fresh = pair_state(d, phases), pair_state(d, phases)
    assert entanglement._local_blocks(rho) is not None
    er, ef = rel_ent_upper(rho), eof_numeric(rho)
    # the kept split is no field: the measured state looks like the fresh one
    assert repr(rho) == repr(fresh)
    assert dataclasses.asdict(rho).keys() == dataclasses.asdict(fresh).keys()
    ef_fresh, er_fresh = eof_numeric(fresh), rel_ent_upper(fresh)
    assert repr(er.to_json()) == repr(er_fresh.to_json())
    assert repr(ef.to_json()) == repr(ef_fresh.to_json())


def _objective_fd_errors(rho: QState, seed: int) -> list[float]:
    """Relative error of the E_r objective's gradient against central
    differences, per parameter block (theta, Re a, Im a, Re b, Im b)."""
    da, db = rho.dims
    k = 2 * da * db
    na, nb = k * da, k * db
    size = k + 2 * na + 2 * nb
    x = np.random.default_rng(seed).normal(size=(1, size))
    args = (rho.rho, -spectrum_entropy(rho.rho), k, da, db)
    _, grad = entanglement._rel_ent_objective(x, *args)
    h = 1e-6
    up, _ = entanglement._rel_ent_objective(x + h * np.eye(size), *args)
    down, _ = entanglement._rel_ent_objective(x - h * np.eye(size), *args)
    fd = (up - down) / (2 * h)
    cuts = np.cumsum([0, k, na, na, nb, nb])
    return [
        float(np.linalg.norm(grad[0, lo:hi] - fd[lo:hi]) / np.linalg.norm(fd[lo:hi]))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: pair_state(*one_sided_coherence_example()),
        lambda: pair_state(binary_eve_family(0.25)),
        lambda: random_density((2, 3), 2, 0),
        lambda: random_density((2, 3), 6, 1),
    ],
    ids=["one-sided-coherence", "lambda-quarter", "random-2x3-rank2", "random-2x3-rank6"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_rel_ent_gradient_matches_finite_differences(make, seed):
    errors = _objective_fd_errors(make(), seed)
    assert max(errors) <= 1e-5, errors


@pytest.mark.parametrize(
    "make",
    [
        lambda: pair_state(*one_sided_coherence_example()),
        lambda: pair_state(binary_eve_family(0.25)),
    ],
    ids=["one-sided-coherence", "lambda-quarter"],
)
@pytest.mark.parametrize("squared", [False, True], ids=["size-r", "size-r2"])
def test_formation_gradient_matches_finite_differences(make, squared):
    # G = dE/d conj(U), so E(U + h dU) - E(U - h dU) = 4 h Re<G, dU> + O(h^3)
    rho = make()
    ev, vec = np.linalg.eigh(rho.rho)
    keep = ev > 1e-12
    w = vec[:, keep] * np.sqrt(ev[keep])
    r = w.shape[1]
    m = r * r if squared else r
    g = np.random.default_rng(m).standard_normal((4, m, r, 2)) @ [1, 1j]
    u, du = np.linalg.qr(g[:1])[0], g[1:]
    _, grad = entanglement._ensemble_energy_grad(u, w, *rho.dims)
    h = 1e-6
    up, _ = entanglement._ensemble_energy_grad(u + h * du, w, *rho.dims)
    down, _ = entanglement._ensemble_energy_grad(u - h * du, w, *rho.dims)
    fd = (up - down) / (2 * h)
    exact = 2 * np.einsum("ij,nij->n", grad[0].conj(), du).real
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.abs(exact)), (fd, exact)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_rel_ent_at_most_formation_on_two_qubits(rank):
    # E_r <= E_F for every state (Vedral & Plenio, PRA 57, 1619 (1998)),
    # and E_F of two qubits is exact from the concurrence
    for seed in range(15):
        rho = random_density((2, 2), rank, seed)
        assert rel_ent_upper(rho).value <= eof_2q(rho).value + 1e-5, seed


def fourier_pair(dim: int) -> QState:
    """sum_xy e^{2 pi i xy / dim} |xy> / dim: pure, with log2(dim) ebits."""
    x = np.arange(dim)
    return PureState(np.exp(2j * math.pi * np.outer(x, x) / dim) / dim,
                     (dim, dim)).density()


def test_an_open_bracket_above_the_optimizer_cap_is_refused():
    rho = random_density((5, 4), rank=20, seed=0)
    for measure in (rel_ent_upper, eof_numeric):
        with pytest.raises(SecrecyForgeError,
                           match="dimension 20 exceeds optimizer cap 16"):
            measure(rho)


def test_a_pure_state_above_the_optimizer_cap_is_exact():
    rho = fourier_pair(6)
    for measure in (rel_ent_upper, eof_numeric):
        res = measure(rho)
        assert (res.kind, res.method) == ("exact", "pure-state")
        assert res.value == pytest.approx(math.log2(6), abs=1e-9)


def test_import_loads_no_scipy():
    # a fresh interpreter, with the package found where this one found it
    root = str(Path(entanglement.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([root, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, secrecy_forge; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


class TestSquashedBound:
    def test_classical_extension_oracle(self):
        # flag 0 carries a Bell pair, flag 1 a product: bound is 1/2 + 0 = 1/2
        r3 = 0.5 * np.einsum(
            "ab,cd->acbd", BELL.rho, np.diag([1.0, 0.0])
        ) + 0.5 * np.einsum("ab,cd->acbd", PRODUCT.rho, np.diag([0.0, 1.0]))
        res = esq_classical_extension_bound(QState(r3.reshape(8, 8), (2, 2, 2)))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.kind == "upper_bound"
        assert res.diagnostics["block_weights"] == pytest.approx([0.5, 0.5])

    def test_rejects_coherent_third_register(self):
        vec = np.zeros(8, complex)
        vec[0b000] = vec[0b111] = 1 / math.sqrt(2)
        with pytest.raises(InvalidState):
            esq_classical_extension_bound(PureState(vec, (2, 2, 2)).density())

    def test_rejects_bipartite_input(self):
        with pytest.raises(SecrecyForgeError):
            esq_classical_extension_bound(QState(np.eye(4) / 4, (2, 2)))
