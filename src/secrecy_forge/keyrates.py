"""Key-rate formulas, inequality-chain verification, and advantage reports.

The class-conditional formulas are exact: a distribution that is uniform
block independent after public discussion (UBI-PD) has key rate equal to
the conditional common-block entropy H(J|Z); one that reaches UBI-PD
only after a channel on Eve's symbol inherits the formula on the
degraded distribution.  Everything else is reported as an interval from
the one-way floor max(I(X:Y) - I(X:Z), I(X:Y) - I(Y:Z), 0) to the
channel search's intrinsic-information ceiling, exact where the two meet
(an Eve independent of (X, Y) is one such case).

verify_chain and advantage_report compare those classical rates against
entanglement quantities of the coherent embedding.  The class equalities
for the embedding hold only when the phase assignment keeps every
per-(z, block) amplitude submatrix rank one; phases that break this can
make the embedded state strictly more valuable to Alice and Bob, so the
pinning logic checks block compatibility before applying them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .classify import (
    YES,
    ClassReport,
    _chain,
    classify,
    is_ubi_pd_down,
)
from .common_info import CondCommonFunction, conditional_common_function
from .distributions import Channel, Dist3, entropy_bits, mutual_information
from .embeddings import (
    PhaseAssignment,
    _amplitudes,
    _dephasing_mask,
    embed_ccq,
    embed_cqq,
    embed_qqq,
    extension_blocks,
    pair_state,
)
from .entanglement import (
    MeasureResult,
    _extension_bound,
    _is_pure,
    eof_2q,
    eof_numeric,
    rel_ent_upper,
)
from .errors import InvalidDistribution, SecrecyForgeError
from .qlinalg import QState, mutual_info_q, trace_distance

__all__ = [
    "ChainCheck",
    "ChainReport",
    "AdvantageReport",
    "binary_eve_family",
    "independent_eve_example",
    "two_block_uniform_example",
    "one_sided_coherence_example",
    "kd_class",
    "verify_chain",
    "advantage_report",
    "lemma_example_rates",
]


# ---------------------------------------------------------------------------
# bundled example distributions


def binary_eve_family(lam: float) -> Dist3:
    """Perfectly correlated bits with a two-valued eavesdropper flag.

    Under flag z=0 (probability 1/2) the shared bit is uniform; under
    z=1 it equals 0 with probability ``lam``.  The block labels are the
    bit itself, so the exact key rate is [1 + h(lam)]/2.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidDistribution(f"mixing weight {lam} outside [0, 1]")
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 0] = 0.25
    p[0, 0, 1] = lam / 2.0
    p[1, 1, 1] = (1.0 - lam) / 2.0
    return Dist3(p)


def independent_eve_example() -> Dist3:
    """Correlated pair with a trivial (point-mass) eavesdropper symbol.

    p(x=0,y=0) = 1/2 and p(x=1, y) = 1/4 for both y; Eve's variable is
    constant, so the key rate equals I(X:Y) = h(1/4) - 1/2.
    """
    p = np.zeros((2, 2, 1))
    p[0, 0, 0] = 0.5
    p[1, 0, 0] = 0.25
    p[1, 1, 0] = 0.25
    return Dist3(p)


def two_block_uniform_example() -> Dist3:
    """X = Y uniform on four symbols; Eve sees only the high bit."""
    p = np.zeros((4, 4, 2))
    for x in range(4):
        p[x, x, x // 2] = 0.25
    return Dist3(p)


def one_sided_coherence_example() -> tuple[Dist3, PhaseAssignment]:
    """A 4x4x3 distribution whose embedding hides entanglement in phases.

    Sector z=0 is a perfectly correlated pair on {0,1}; sectors z=1 and
    z=2 are independent uniform products across the {0,1} and {2,3}
    halves.  The two flipped signs put each product sector into a
    maximally entangled branch while leaving the pmf unchanged.
    """
    p = np.zeros((4, 4, 3))
    p[0, 0, 0] = p[1, 1, 0] = 1.0 / 6.0
    for x in (0, 1):
        for y in (2, 3):
            p[x, y, 1] = 1.0 / 12.0
    for x in (2, 3):
        for y in (0, 1):
            p[x, y, 2] = 1.0 / 12.0
    phases = PhaseAssignment.from_entries(
        (4, 4, 3),
        [
            {"x": 1, "y": 3, "z": 1, "phi": math.pi},
            {"x": 3, "y": 1, "z": 2, "phi": math.pi},
        ],
    )
    return Dist3(p), phases


# ---------------------------------------------------------------------------
# class-conditional key rates


def kd_class(
    d: Dist3,
    report: ClassReport | None = None,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> MeasureResult:
    """Distillable key rate from the classification, when a formula applies.

    UBI-PD: exact H(J|Z).  Only UBI-PD-down with certificate channel:
    exact H(J|Zbar) on the degraded distribution.  Otherwise ``value``
    carries the best cheap upper bound, min I(X:Y|Zbar) over the searched
    channels (Maurer & Wolf, IEEE T-IT 45, 499 (1999)), and
    ``diagnostics`` the certified interval above the one-way floor
    max(I(X:Y) - I(X:Z), I(X:Y) - I(Y:Z), 0) (Ahlswede & Csiszar 1993;
    Maurer 1993).  The kind is ``exact`` (class ``one_way``) when the
    two lie within ``tol``, ``inconclusive`` (class ``unresolved``)
    otherwise.

    A report (classify's on d) supplies the verdict, conditional common
    function and channel search result.  Without one only what the value
    needs is computed, along the class chain: block independence from one
    batched cell gap (classify's exact cell walk only for a gap within
    ``PREFILTER_MARGIN`` of tol), UBI, then the canonical protocol, and the
    channel search only when none certifies UBI-PD; the result equals that
    with ``report=classify(d, tol, support_eps)``.
    The search supplies the degraded rate or, when it certifies nothing,
    the upper bound over the channels it searched and whether its budget
    cut it short.
    """
    if report is None:
        ccf = conditional_common_function(d, support_eps)
        pd = _chain(d, ccf, tol, {})[2]
    else:
        ccf, pd = report.ccf, report.ubi_pd
    if pd == YES:
        return MeasureResult(
            name="K_D",
            value=ccf.block_entropy(d),
            kind="exact",
            method="common-block-entropy",
            diagnostics={"class": "ubi_pd"},
        )
    down = report.down if report is not None else is_ubi_pd_down(
        d, tol, support_eps, _identity=(ccf, pd, None))
    if down.channel is not None:
        return MeasureResult(
            name="K_D",
            value=down.degraded_rate,
            kind="exact",
            method="common-block-entropy-degraded",
            diagnostics={"class": "ubi_pd_down", "channel": down.channel.assignment()},
        )
    upper, rgs = down.ceiling
    # each I(A:B) is H(A) + H(B) - H(AB), summed as mutual_information does
    hx, hy, hz, hxy, hxz, hyz = (entropy_bits(d.p.sum(axis=drop))
                                 for drop in ((1, 2), (0, 2), (0, 1), 2, 1, 0))
    i_xy = hx + hy - hxy
    lower = max(i_xy - (hx + hz - hxz), i_xy - (hy + hz - hyz), 0.0)
    closed = upper - lower <= tol
    return MeasureResult(
        name="K_D",
        value=upper,
        kind="exact" if closed else "inconclusive",
        method="one-way-floor" if closed else "interval",
        diagnostics={
            "class": "one_way" if closed else "unresolved",
            "lower_bound": lower,
            "upper_bound": upper,
            "upper_bound_channel": list(rgs),
            "channels_tested": down.tested,
            "budget_exhausted": down.reason == "budget exhausted",
        },
    )


# ---------------------------------------------------------------------------
# chain verification


def _phases_block_compatible(
    d: Dist3,
    phases: PhaseAssignment | None,
    ccf: CondCommonFunction,
) -> bool:
    """True when every per-(z, block) amplitude submatrix of d has rank one;
    ``ccf`` is d's conditional common function.

    This is the premise under which the embedding's branch states factor
    across blocks and the class equalities transfer to the quantum side.
    """
    if phases is None:
        return True
    amp = _amplitudes(d, phases)
    for z, part in ccf.per_z.items():
        for xs, ys in part.blocks:
            sub = amp[np.ix_(list(xs), list(ys), [z])][:, :, 0]
            s = np.linalg.svd(sub, compute_uv=False)
            if s.size > 1 and s[1] > 1e-9 * max(s[0], 1.0):
                return False
    return True


@dataclass(frozen=True)
class ChainCheck:
    """One verified ordering between two named quantities."""

    name: str
    lhs_name: str
    lhs: float
    rhs_name: str
    rhs: float
    direction: str  # geq | abs_leq
    tol: float
    slack: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": {"name": self.lhs_name, "value": self.lhs},
            "rhs": {"name": self.rhs_name, "value": self.rhs},
            "direction": self.direction,
            "tol": self.tol,
            "slack": self.slack,
            "passed": self.passed,
        }


def _check_geq(name: str, ln: str, lv: float, rn: str, rv: float, tol: float) -> ChainCheck:
    slack = lv - rv
    return ChainCheck(name, ln, lv, rn, rv, "geq", tol, slack, slack >= -tol)


def _check_close(name: str, ln: str, lv: float, rn: str, rv: float, tol: float) -> ChainCheck:
    slack = lv - rv
    return ChainCheck(name, ln, lv, rn, rv, "abs_leq", tol, slack, abs(slack) <= tol)


@dataclass(frozen=True)
class ChainReport:
    """Named quantities plus every ordering checked, with slacks."""

    values: dict
    checks: tuple[ChainCheck, ...]
    classification: ClassReport
    measures: dict = field(repr=False)
    phases_block_compatible: bool = True

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "values": self.values,
            "checks": [c.to_json() for c in self.checks],
            "all_passed": self.all_passed,
            "phases_block_compatible": self.phases_block_compatible,
            "classification": self.classification.to_json(),
            "measures": {k: m.to_json() for k, m in self.measures.items()},
        }


def _quantum_side(
    d: Dist3, phases: PhaseAssignment | None, seed: int, tol: float, support_eps: float
) -> tuple[ClassReport, MeasureResult, bool, QState, dict[str, MeasureResult]]:
    """What both reports build: ``classify(d, tol, support_eps)``, the class
    key rate, whether the phases are block compatible, rho_AB = tr_E of the
    coherent embedding, and its ``E_r_bound`` and, for two qubits, ``E_F_2q``.
    """
    rho_ab = pair_state(d, phases)  # refuses an oversized d before classify runs
    report = classify(d, tol, support_eps)
    compatible = _phases_block_compatible(d, phases, report.ccf)
    measures = {"E_r_bound": rel_ent_upper(rho_ab, seed=seed, tol=tol)}
    if rho_ab.dims == (2, 2):
        measures["E_F_2q"] = eof_2q(rho_ab)
    return report, kd_class(d, report), compatible, rho_ab, measures


def _esq(
    d: Dist3, channel: Channel | None, phases: PhaseAssignment | None, support_eps: float
) -> MeasureResult:
    """Classical-extension E_sq bound through ``channel`` (None: identity) on Z."""
    ch = channel or Channel.identity(d.dims[2])
    return _extension_bound(extension_blocks(d, ch, phases, support_eps), d.dims[:2])


def verify_chain(
    d: Dist3,
    phases: PhaseAssignment | None = None,
    seed: int = 0,
    tol: float = config.ENTROPY_TOL,
    chain_tol: float = config.CHAIN_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> ChainReport:
    """Compute every available rate and bound for d and check the orderings.

    E_F is Wootters' closed form on two qubits, ``eof_numeric`` otherwise.
    Checks, by class of d: UBI-PD-down certified -> key rate at least the
    classical-extension squashed-entanglement bound (tight tolerance);
    UBI-PD -> key rate at least E_F; additionally semi-unambiguous -> all
    quantities agree.  Comparisons with a measure tagged exact use ``tol``,
    the others the chain tolerance.  The key rate, H(J|Z) and the extension
    channel come from one ``classify(d, tol, support_eps)``.
    """
    report, kd, compatible, rho_ab, measures = _quantum_side(
        d, phases, seed, tol, support_eps
    )
    ef = measures.get("E_F_2q") or eof_numeric(rho_ab, seed=seed)
    esq = _esq(d, report.down.channel, phases, support_eps)
    er = measures["E_r_bound"]
    measures.update(K_D_class=kd, E_F_numeric=ef, E_sq_bound=esq)

    values: dict[str, float] = {
        "K_D_class_formula": kd.value,
        "K_D_kind": kd.kind,
        "H_J_given_Z": report.ccf.block_entropy(d),
        "E_F_numeric": ef.value,
        "E_sq_bound": esq.value,
        "E_r_bound": er.value,
    }
    if "E_F_2q" in measures:
        values["E_F_2q"] = measures["E_F_2q"].value
    if _is_pure(rho_ab):
        values["E_entropy"] = er.value

    checks: list[ChainCheck] = []
    if kd.kind == "exact":
        if report.ubi_pd_down == YES:
            checks.append(
                _check_geq(
                    "key_rate_vs_extension_bound",
                    "K_D_class_formula", kd.value,
                    "E_sq_bound", esq.value,
                    config.EQUALITY_TOL,
                )
            )
        if report.ubi_pd == YES:
            checks.append(
                _check_geq(
                    "key_rate_vs_formation",
                    "K_D_class_formula", kd.value,
                    "E_F_numeric", ef.value,
                    tol if ef.kind == "exact" else chain_tol,
                )
            )
        if report.ubi_pd == YES and report.semi_unambiguous == YES:
            for name in ("E_F_numeric", "E_sq_bound", "E_r_bound", "H_J_given_Z"):
                exact = name in measures and measures[name].kind == "exact"
                checks.append(
                    _check_close(
                        f"equality_band_{name}",
                        "K_D_class_formula", kd.value,
                        name, values[name],
                        tol if exact else chain_tol,
                    )
                )
    return ChainReport(
        values=values,
        checks=tuple(checks),
        classification=report,
        measures=measures,
        phases_block_compatible=compatible,
    )


# ---------------------------------------------------------------------------
# classical-versus-quantum advantage


@dataclass(frozen=True)
class AdvantageReport:
    """Pinned rates or certified intervals for both sides, plus a label.

    Labels: eve_advantage (coherent eavesdropper strictly lowers the
    rate), ab_advantage (coherent embedding strictly raises it),
    balanced (both pinned and equal), indeterminate (bounds too loose).
    """

    label: str
    classical: MeasureResult
    classical_interval: tuple[float, float]
    quantum_interval: tuple[float, float]
    quantum_value: float | None
    gap: float | None
    phases_block_compatible: bool
    classification: ClassReport
    measures: dict = field(repr=False)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "classical": self.classical.to_json(),
            "classical_interval": list(self.classical_interval),
            "quantum_interval": list(self.quantum_interval),
            "quantum_value": self.quantum_value,
            "gap": self.gap,
            "phases_block_compatible": self.phases_block_compatible,
            "classification": self.classification.to_json(),
            "measures": {k: m.to_json() for k, m in self.measures.items()},
        }


def advantage_report(
    d: Dist3,
    phases: PhaseAssignment | None = None,
    seed: int = 0,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> AdvantageReport:
    """Compare the classical key rate of d against its coherent embedding.

    The classical side is ``kd_class``'s: its value when exact, its
    certified interval otherwise.  The quantum side is pinned, and is its
    own interval, when the embedded pair state is pure (rate = E_r, the
    entropy of entanglement) or when the class equalities apply
    (reversible + semi-unambiguous, block-compatible phases).  Otherwise
    it is bracketed by E_r's floor and the smallest certified upper
    bound, and taken as the bracket's top once the bracket has closed
    within ``config.EQUALITY_TOL``; the label only fires when the brackets
    separate strictly.  The classical rate and the certificate channel
    come from one ``classify(d, tol, support_eps)``.
    """
    report, kd, compatible, rho_ab, measures = _quantum_side(
        d, phases, seed, tol, support_eps
    )
    if kd.kind == "exact":
        c_lo = c_hi = kd.value
    else:
        c_lo = kd.diagnostics["lower_bound"]
        c_hi = kd.diagnostics["upper_bound"]

    measures["K_D_classical"] = kd
    measures["E_sq_bound_identity"] = _esq(d, None, phases, support_eps)
    cert = report.down.channel
    if cert is not None and cert.assignment() != list(range(d.dims[2])):
        measures["E_sq_bound_certificate"] = _esq(d, cert, phases, support_eps)
    er = measures["E_r_bound"]
    q_value: float | None = None
    if _is_pure(rho_ab):
        q_value = er.value
    elif (
        compatible
        and kd.kind == "exact"
        and report.ubi_pd_down == YES
        and report.semi_unambiguous == YES
    ):
        q_value = kd.value
    if q_value is not None:
        q_lo = q_hi = q_value
    else:
        # every measure but the classical rate caps the quantum side's key
        # rate; coherent information (E_r's floor) <= E_D <= K_D (Devetak &
        # Winter 2005)
        q_hi = min(m.value for name, m in measures.items() if name != "K_D_classical")
        q_lo = er.diagnostics["lower_bound"]
        if q_hi - q_lo <= config.EQUALITY_TOL:
            q_value = q_hi

    gap: float | None = None
    if kd.kind == "exact" and q_value is not None:
        gap = kd.value - q_value
        if abs(gap) <= config.EQUALITY_TOL:
            label = "balanced"
        elif gap > 0:
            label = "eve_advantage"
        else:
            label = "ab_advantage"
    elif c_lo > q_hi + config.EQUALITY_TOL:
        label = "eve_advantage"
    elif q_lo > c_hi + config.EQUALITY_TOL:
        label = "ab_advantage"
    else:
        label = "indeterminate"
    return AdvantageReport(
        label=label,
        classical=kd,
        classical_interval=(c_lo, c_hi),
        quantum_interval=(q_lo, q_hi),
        quantum_value=q_value,
        gap=gap,
        phases_block_compatible=compatible,
        classification=report,
        measures=measures,
    )


# ---------------------------------------------------------------------------
# the bundled one-sided-coherence rates


_PM = np.array(
    [
        [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0],
        [1 / math.sqrt(2), -1 / math.sqrt(2), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
)


def _measured_key_value(sigma: QState) -> float:
    """Mutual information after the subspace-adapted local measurements.

    Each side measures computationally if its own support lies in the
    upper {2,3} half; otherwise it switches to the +/- basis exactly
    when the opposite side's support lies in that half.
    """
    da, db = sigma.dims
    diag = np.real(np.diag(sigma.rho)).reshape(da, db)
    low_a = diag[:2].sum() > config.SUPPORT_EPS
    low_b = diag[:, :2].sum() > config.SUPPORT_EPS
    ua = _PM if low_a and not low_b else np.eye(4)
    ub = _PM if low_b and not low_a else np.eye(4)
    # row a * db + b of u is the product vector ua[a] (x) ub[b]; both are real
    u = (ua[:, None, :, None] * ub[None, :, None, :]).reshape(len(ua) * len(ub), -1)
    joint = np.einsum("ik,kl,il->i", u, sigma.rho, u).real.clip(0.0, None)
    joint = joint.reshape(da, db)
    total = joint.sum()
    if abs(total - 1.0) > 1e-9:
        raise SecrecyForgeError(f"measurement outcomes sum to {total}")
    return mutual_information(joint / total, (0,), (1,))


def lemma_example_rates() -> dict:
    """Key rates of the bundled one-sided-coherence state and its dephasings.

    Builds the coherent embedding and two progressively decohered forms,
    splits each on Eve's flag, and evaluates every branch two independent
    ways: the branch key value, and the mutual information left after the
    subspace-adapted measurement protocol.  The two routes must agree to
    1e-9 on every branch; the headline values are exactly (1, 2/3, 1/3).
    Each branch's I(A:B) is computed once.  A coherent (pure) branch is
    worth its reduced entropy S(A) = I(A:B)/2; a dephased branch
    (basis-diagonal on its dephased side) carries classical correlation
    worth I(A:B).  The half-CMI bound sums the same I(A:B).

    The middle state is not the literal one-sided dephasing of the
    coherent embedding.  In the flag-1 branch Alice's symbol lives
    entirely in her phases, so her dephasing already levels that branch,
    and the middle state drops the branch's remaining one-sided coherence
    as well, leaving it fully mixed; the flag-2 branch keeps Bob's
    coherence untouched.  Each entry reports the trace distance to the
    literal dephasing alongside the rates (zero except for the middle
    state).
    """
    d, phases = one_sided_coherence_example()
    dx, dy, dz = d.dims
    n = dx * dy
    dim = n * dz

    def flag_diagonal(state: QState, level_flags: tuple[int, ...]) -> QState:
        """Flag-block-diagonal part, with the listed branches fully dephased."""
        keep = _dephasing_mask(d.dims, (2,))
        for z in level_flags:
            # z is the minor index, so rows z::dz are flag z's
            keep[z::dz] = np.eye(dim, dtype=bool)[z::dz]
        return QState(np.where(keep, state.rho, 0), d.dims)

    literal = {
        "qqq": embed_qqq(d, phases).density(),
        "cqq": embed_cqq(d, phases),
        "ccq": embed_ccq(d, phases),
    }
    states = {
        "qqq": literal["qqq"],
        "cqq": flag_diagonal(literal["cqq"], (1,)),
        "ccq": flag_diagonal(literal["ccq"], ()),
    }
    out: dict = {}
    for name, st in states.items():
        r = st.rho.reshape(dx, dy, dz, dx, dy, dz)
        branch_vals: list[float] = []
        measured_vals: list[float] = []
        half_cmi = 0.0
        weights: list[float] = []
        for z in range(dz):
            block = r[:, :, z, :, :, z].reshape(n, n)
            pz = float(np.real(np.trace(block)))
            weights.append(pz)
            branch = QState(block / pz, (dx, dy))
            mi = mutual_info_q(branch)
            v = 0.5 * mi if _is_pure(branch) else mi
            m = _measured_key_value(branch)
            if abs(v - m) > config.EQUALITY_TOL:
                raise SecrecyForgeError(
                    f"{name} branch z={z}: key value {v} != measured value {m}"
                )
            branch_vals.append(v)
            measured_vals.append(m)
            half_cmi += 0.5 * pz * mi
        value = float(np.dot(weights, branch_vals))
        out[name] = {
            "value": value,
            "measured_value": float(np.dot(weights, measured_vals)),
            "per_branch": branch_vals,
            "branch_weights": weights,
            "half_cmi_extension_bound": half_cmi,
            "literal_dephasing_distance": trace_distance(st, literal[name]),
        }
    tol = config.EQUALITY_TOL
    out["ordering"] = {
        "qqq_gt_cqq": out["qqq"]["value"] > out["cqq"]["value"] + tol,
        "cqq_gt_ccq": out["cqq"]["value"] > out["ccq"]["value"] + tol,
    }
    return out
