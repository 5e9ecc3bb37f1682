"""Structural taxonomy of tripartite distributions.

The classes checked here, from coarsest to finest:

* block independent (BI): given Eve's symbol and the block label of the
  per-z maximal common partition, Alice and Bob are independent.
* uniform block independent (UBI): BI, and the per-z block labels can be
  relabelled into a single function computable from x alone and from y
  alone while staying maximal for every z.
* UBI with public discussion (UBI-PD): BI, and one round of public
  messages (each a function of one party's symbol) turns the distribution
  UBI without leaking anything about the block label to Eve.
* UBI-PD after Eve degrading (UBI-PD down): some channel on Eve's symbol
  produces a UBI-PD distribution whose block label stays independent of
  the original symbol given the degraded one.
* semi-unambiguous: Eve's symbol is determined by the pair (x, y).
* unambiguous: semi-unambiguous, and (x, y) is determined by Eve's
  symbol together with the block label.

The UBI-PD check runs one fixed, canonical protocol (each party announces
the common part it shares with Eve), so a failure is reported as
``inconclusive`` rather than ``no``: the definition quantifies over all
protocols.  The same caveat applies to the channel search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import config
from .common_info import (
    CondCommonFunction,
    _component_roots,
    _partitions,
    conditional_common_function,
)
from .distributions import (
    Channel,
    Dist3,
    apply_channel_z,
    conditional_mutual_information,
    entropy_bits,
)
from .errors import SecrecyForgeError

__all__ = [
    "ClassReport",
    "PDCertificate",
    "PDDownResult",
    "is_ubi",
    "is_semi_unambiguous",
    "is_ubi_pd_down",
    "classify",
    "set_partitions",
]

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"

# Channels tried by the UBI-PD-down search and the coarse-graining ceiling:
# Bell(5) = 52 fits, so Eve alphabets of up to five symbols are searched in full.
CHANNEL_BUDGET = 64


# ---------------------------------------------------------------------------
# entropic helpers on the block decomposition


def _blockwise(d: Dist3, ccf: CondCommonFunction):
    """Yield (z, block, submatrix, mass) over supported (z, block) cells."""
    for z, part in ccf.per_z.items():
        slice_ = d.p[:, :, z]
        for b, (bxs, bys) in enumerate(part.blocks):
            sub = slice_[np.array(bxs)[:, None], np.array(bys)]
            mass = float(sub.sum())
            if mass > 0.0:
                yield z, b, sub / mass, mass


def cmi_xy_given_blocks(d: Dist3, ccf: CondCommonFunction) -> float:
    """I(X:Y | block label, Z) in bits.

    The (z, block) cells partition the support, so the conditional mutual
    information is the mass-weighted sum of per-cell mutual informations.
    """
    total = 0.0
    for _, _, sub, mass in _blockwise(d, ccf):
        hx = entropy_bits(sub.sum(axis=1))
        hy = entropy_bits(sub.sum(axis=0))
        hxy = entropy_bits(sub)
        total += mass * (hx + hy - hxy)
    return total


def h_xy_given_blocks(d: Dist3, ccf: CondCommonFunction) -> float:
    """H(XY | block label, Z) in bits."""
    return sum(mass * entropy_bits(sub) for _, _, sub, mass in _blockwise(d, ccf))


# ---------------------------------------------------------------------------
# elementary class checks


def is_ubi(
    d: Dist3,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> bool:
    """BI plus a per-z-injective cross-z merge labelling.

    The merge labelling is a function of x alone and of y alone by
    construction, so injectivity per z is the only extra obstruction.
    """
    ccf = conditional_common_function(d, support_eps)
    if cmi_xy_given_blocks(d, ccf) > tol:
        return False
    return ccf.per_z_injective


def is_semi_unambiguous(
    d: Dist3, support_eps: float = config.SUPPORT_EPS
) -> bool:
    """Every supported (x, y) pair occurs with exactly one z."""
    counts = (d.p > support_eps).sum(axis=2)
    pair_supported = d.p.sum(axis=2) > support_eps
    return bool(np.all(counts[pair_supported] == 1))


# ---------------------------------------------------------------------------
# canonical public-discussion check


def _common_part_maps(
    ccf: CondCommonFunction,
) -> tuple[dict[int, int], dict[int, int]]:
    """Common part of X with Z as a map on x, and of Y with Z as a map on y.

    Both are read off ccf's support, so every entry the canonical protocol
    takes from that support has a message.
    """
    (part_xz,) = _partitions(ccf.support.any(axis=1)[:, :, None])
    (part_yz,) = _partitions(ccf.support.any(axis=0)[:, :, None])
    return dict(part_xz.block_of_x), dict(part_yz.block_of_x)


@dataclass(frozen=True)
class PDCertificate:
    """Canonical message construction used by the UBI-PD check."""

    message_of_x: Mapping[int, int]
    message_of_y: Mapping[int, int]
    n_messages: int
    cmi_message_blocks_given_z: float
    extension_ubi: bool

    def to_json(self) -> dict:
        return {
            "message_of_x": {str(k): v for k, v in sorted(self.message_of_x.items())},
            "message_of_y": {str(k): v for k, v in sorted(self.message_of_y.items())},
            "n_messages": self.n_messages,
            "cmi_message_blocks_given_z": self.cmi_message_blocks_given_z,
            "extension_ubi": self.extension_ubi,
        }


def _pd_canonical(
    d: Dist3,
    tol: float,
    support_eps: float,
    ccf: CondCommonFunction,
    maps: tuple[dict[int, int], dict[int, int]],
) -> tuple[str, PDCertificate]:
    """Run the canonical protocol; returns (yes|inconclusive, certificate).

    ``ccf`` and ``maps`` are d's conditional common function and common
    part maps, built once by the caller.
    """
    ma, mb = maps
    dx, dy, dz = d.dims

    # the entries the conditional common function sees, so every entry has a block
    entries = [
        (x, y, z, float(d.p[x, y, z])) for x, y, z in zip(*np.nonzero(ccf.support))
    ]
    # x and y share their common-part blocks with z, so on the support the
    # message (ma[x], mb[y]) is a function of z
    message_of_z = {z: (ma[x], mb[y]) for x, y, z, _ in entries}
    pairs = sorted(set(message_of_z.values()))
    m_index = {pair: i for i, pair in enumerate(pairs)}
    nm = len(pairs)

    # extended distribution over ((M, X), (M, Y), (Z, M)); it keeps all of
    # d's mass on the z that carry a message, also below support_eps, so
    # that it is d relabelled and its block statistics are d's
    zs = np.array(sorted(message_of_z), dtype=int)
    m_of_z = np.array([m_index[message_of_z[z]] for z in zs.tolist()], dtype=int)
    xi, yi, k = np.nonzero(d.p[:, :, zs])
    m = m_of_z[k]
    q = np.zeros((nm * dx, nm * dy, dz * nm))
    q[m * dx + xi, m * dy + yi, zs[k] * nm + m] = d.p[xi, yi, zs[k]]
    q /= q.sum()
    ext = Dist3(q)
    ext_ubi = is_ubi(ext, tol, support_eps)

    # does the announced message leak anything about the block label?
    max_blocks = max((len(p) for p in ccf.per_z.values()), default=1)
    joint = np.zeros((dz, nm, max_blocks))
    for x, y, z, w in entries:
        b = ccf.per_z[z].block_of_x[x]
        joint[z, m_index[message_of_z[z]], b] += w
    leak = conditional_mutual_information(joint, (1,), (2,), (0,))

    cert = PDCertificate(ma, mb, nm, leak, ext_ubi)
    status = YES if (ext_ubi and leak <= tol) else INCONCLUSIVE
    return status, cert


def _ubi_pd_certified(
    d: Dist3, ccf: CondCommonFunction, tol: float, support_eps: float
) -> bool:
    """Whether classify would report d as UBI-PD, computing only what that needs.

    UBI implies UBI-PD (the nesting ClassReport enforces), so the
    canonical protocol runs only for a BI distribution that is not UBI.
    """
    if cmi_xy_given_blocks(d, ccf) > tol:
        return False
    if ccf.per_z_injective:
        return True
    maps = _common_part_maps(ccf)
    return _pd_canonical(d, tol, support_eps, ccf, maps)[0] == YES


# ---------------------------------------------------------------------------
# search over deterministic channels on Eve's symbol


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings.

    Emitted in ascending lexicographic order: the all-merge string
    (0,...,0) first, the identity (0,1,...,n-1) last.
    """

    def extend(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from extend(prefix, max(top, v))
            prefix.pop()

    yield from extend([0], 0)


def _degrade(d: Dist3, rgs: tuple[int, ...]) -> np.ndarray:
    """d's pmf after the channel z -> rgs[z], bitwise ``apply_channel_z``'s
    with ``Channel.deterministic(rgs)``, whose matrix this is."""
    return np.einsum("xyz,zw->xyw", d.p, np.eye(max(rgs) + 1)[list(rgs)])


@dataclass(frozen=True)
class PDDownResult:
    """Outcome of the deterministic-channel search."""

    status: str  # yes | inconclusive
    channel: Channel | None
    tested: int
    reason: str
    certificate: PDCertificate | None = None
    extra_cmi: float | None = None
    degraded_rate: float | None = None  # H(J|Zbar) of a found channel; not serialized

    def to_json(self) -> dict:
        out: dict = {"status": self.status, "tested": self.tested, "reason": self.reason}
        if self.channel is not None:
            out["channel"] = self.channel.assignment()
            out["out_dim"] = self.channel.out_dim
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.extra_cmi is not None:
            out["residual_leak_cmi"] = self.extra_cmi
        return out


def _pd_down_extra_cmi(
    d: Dist3,
    ch: Channel,
    ccf_bar: CondCommonFunction,
    maps_bar: tuple[dict[int, int], dict[int, int]],
    support_eps: float,
) -> float:
    """I(Z : block label of the degraded distribution | message, Zbar).

    ``ccf_bar`` and ``maps_bar`` belong to the degraded distribution.
    """
    assignment = ch.assignment()
    ma, mb = maps_bar
    dz = d.dims[2]
    dzbar = ch.out_dim
    max_blocks = max((len(p) for p in ccf_bar.per_z.values()), default=1)
    pairs = sorted({(a, b) for a in set(ma.values()) for b in set(mb.values())})
    m_index = {pair: i for i, pair in enumerate(pairs)}
    joint = np.zeros((dz, dzbar, len(pairs), max_blocks))
    # p(x, y, z) > support_eps puts (x, y, zbar) in ccf_bar's support, as
    # p(x, y | zbar) >= p(x, y, z), so every entry here has a block and a message
    for x, y, z in zip(*np.nonzero(d.p > support_eps)):
        zbar = assignment[z]
        b = ccf_bar.per_z[zbar].block_of_x[x]
        m = m_index[(ma[x], mb[y])]
        joint[z, zbar, m, b] += d.p[x, y, z]
    return conditional_mutual_information(joint, (0,), (3,), (1, 2))


# The prefilter below rejects a channel when its block-independence gap
# exceeds tol by this margin.  It sums the same terms as
# cmi_xy_given_blocks in another order (unnormalized, all slices at once),
# so the two agree to about 1e-14; the margin keeps every rejection one
# that the exact test would make too.
PREFILTER_MARGIN = 1e-10


def _xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise a log2 a, with 0 log 0 = 0."""
    return a * np.log2(np.where(a > 0.0, a, 1.0))


def _block_gaps(
    d: Dist3, channels: list[tuple[int, ...]], support_eps: float
) -> np.ndarray:
    """I(X:Y | block label, Zbar) in bits after each deterministic channel.

    Each degraded pmf is computed as ``apply_channel_z`` computes it, so
    the conditional supports, and with them the blocks, are the ones the
    exact path sees.  All slices of all channels are then labelled and
    summed at once: a (z, block) cell with in-block entries s, row sums r,
    column sums c and mass m contributes
    -sum r log r - sum c log c + sum s log s + m log m.
    """
    dx, dy, dz = d.dims
    q = np.zeros((dx, dy, len(channels), dz))
    support = np.zeros(q.shape, dtype=bool)
    for i, rgs in enumerate(channels):
        qi = _degrade(d, rgs)
        zbar_probs = qi.sum(axis=(0, 1))
        zs = np.flatnonzero(zbar_probs > support_eps)
        q[:, :, i, : qi.shape[2]] = qi
        support[:, :, i, zs] = qi[:, :, zs] / zbar_probs[zs] > support_eps
    row_roots, col_roots = _component_roots(support)
    in_block = row_roots[:, None] == col_roots[None]
    cells = np.where(in_block, q, 0.0)
    rows = cells.sum(axis=1)
    cols = cells.sum(axis=0)
    masses = (
        (row_roots[:, None] == np.arange(dx)[None, :, None, None]) * rows[:, None]
    ).sum(axis=0)
    gap = (
        _xlogx(cells).sum(axis=(0, 1))
        + _xlogx(masses).sum(axis=0)
        - _xlogx(rows).sum(axis=0)
        - _xlogx(cols).sum(axis=0)
    )
    return gap.sum(axis=1)


def is_ubi_pd_down(
    d: Dist3,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> PDDownResult:
    """Search deterministic channels on Z, coarsest first, for a UBI-PD image.

    Channels are enumerated as set partitions of the z-alphabet (one
    representative per output relabelling) in lexicographic restricted
    growth order, at most ``CHANNEL_BUDGET`` of them, and the first passing
    channel is returned.  A passing channel must make the degraded
    distribution UBI-PD under the canonical protocol and leave the original
    symbol independent of the new block label given the message and the
    degraded symbol.

    A vectorized prefilter sets aside the channels whose degraded
    distribution is not block independent by a clear margin; the exact
    checks decide every other channel.
    """
    partitions = set_partitions(d.dims[2])
    channels = list(itertools.islice(partitions, CHANNEL_BUDGET))
    cut = next(partitions, None) is not None
    gaps = _block_gaps(d, channels, support_eps)
    for tested, (rgs, gap) in enumerate(zip(channels, gaps), start=1):
        if gap > tol + PREFILTER_MARGIN:
            continue
        ch = Channel.deterministic(rgs)
        dbar = apply_channel_z(d, ch)
        ccf = conditional_common_function(dbar, support_eps)
        if cmi_xy_given_blocks(dbar, ccf) > tol:
            continue
        maps = _common_part_maps(ccf)
        # both tests must pass; the leak test is cheaper and fails more often
        extra = _pd_down_extra_cmi(d, ch, ccf, maps, support_eps)
        if extra > tol:
            continue
        status, cert = _pd_canonical(dbar, tol, support_eps, ccf, maps)
        if status == YES:
            rate = ccf.block_entropy(dbar)
            return PDDownResult(YES, ch, tested, "channel found", cert, extra, rate)
    reason = "budget exhausted" if cut else "search space exhausted"
    return PDDownResult(INCONCLUSIVE, None, len(channels), reason)


def _coarse_graining_ceiling(d: Dist3) -> tuple[float, tuple[int, ...], int]:
    """min over the search's channels of I(X:Y|Zbar), the first channel that
    attains it, and the channel count.  A sound upper bound on the key rate
    (the all-merge channel gives plain I(X:Y)), clamped at 0, where rounding
    can leave a vanishing I(X:Y|Zbar) just below the interval's lower bound.
    """
    channels = list(itertools.islice(set_partitions(d.dims[2]), CHANNEL_BUDGET))
    cmi = [conditional_mutual_information(_degrade(d, c), (0,), (1,), (2,))
           for c in channels]
    best = min(range(len(channels)), key=cmi.__getitem__)  # the first minimum
    return max(cmi[best], 0.0), channels[best], len(channels)


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class ClassReport:
    """Verdicts for every class plus certificates and numeric diagnostics.

    ``ccf`` (d's conditional common function) and ``down`` (the UBI-PD-down
    search result, with its channel and degraded rate) are what classify
    built; not serialized.
    """

    bi: str
    ubi: str
    ubi_pd: str
    ubi_pd_down: str
    semi_unambiguous: str
    unambiguous: str
    certificates: dict = field(repr=False)
    diagnostics: dict = field(repr=False)
    tolerances: dict = field(repr=False)
    ccf: CondCommonFunction = field(repr=False)
    down: PDDownResult = field(repr=False)

    def __post_init__(self) -> None:
        if self.ubi == YES and (
            self.bi != YES or self.ubi_pd != YES or self.ubi_pd_down != YES
        ):
            raise SecrecyForgeError("class nesting violated: UBI without PD chain")
        if self.unambiguous == YES and self.semi_unambiguous != YES:
            raise SecrecyForgeError(
                "class nesting violated: unambiguous but not semi-unambiguous"
            )

    def to_json(self) -> dict:
        return {
            "bi": self.bi,
            "ubi": self.ubi,
            "ubi_pd": self.ubi_pd,
            "ubi_pd_down": self.ubi_pd_down,
            "semi_unambiguous": self.semi_unambiguous,
            "unambiguous": self.unambiguous,
            "certificates": self.certificates,
            "diagnostics": self.diagnostics,
            "tolerances": self.tolerances,
        }


def classify(
    d: Dist3,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
    channel_search: bool = True,
) -> ClassReport:
    """Run every class check and assemble a consistent report.

    The UBI-PD-down search tries at most ``CHANNEL_BUDGET`` channels;
    ``channel_search=False`` skips it (useful on large Eve alphabets), and
    the verdict is then inconclusive unless implied by a finer class.
    """
    ccf = conditional_common_function(d, support_eps)
    cmi = cmi_xy_given_blocks(d, ccf)
    h_resid = h_xy_given_blocks(d, ccf)
    bi = YES if cmi <= tol else NO
    ubi = YES if (bi == YES and ccf.per_z_injective) else NO
    semi = YES if is_semi_unambiguous(d, support_eps) else NO
    unamb = YES if (semi == YES and h_resid <= tol) else NO

    certificates: dict = {}
    if ubi == YES:
        labels_x: dict[int, int] = {}
        labels_y: dict[int, int] = {}
        for z, part in ccf.per_z.items():
            for x, b in part.block_of_x.items():
                labels_x[x] = ccf.global_labels[(z, b)]
            for y, b in part.block_of_y.items():
                labels_y[y] = ccf.global_labels[(z, b)]
        certificates["ubi"] = {
            "label_of_x": {str(k): v for k, v in sorted(labels_x.items())},
            "label_of_y": {str(k): v for k, v in sorted(labels_y.items())},
        }

    if bi == NO:
        pd_status: str = NO
        pd_cert = None
    else:
        maps = _common_part_maps(ccf)
        pd_status, pd_cert = _pd_canonical(d, tol, support_eps, ccf, maps)
    if pd_cert is not None:
        certificates["ubi_pd"] = pd_cert.to_json()

    if channel_search:
        down = is_ubi_pd_down(d, tol, support_eps)
    else:
        down = PDDownResult(INCONCLUSIVE, None, 0, "search skipped")
    if down.status != YES and pd_status == YES:
        # the identity channel always certifies a UBI-PD distribution, even
        # when the search stopped short of it
        ch = Channel.identity(d.dims[2])
        down = PDDownResult(YES, ch, down.tested, "implied by UBI-PD (identity)", pd_cert, 0.0)
    certificates["ubi_pd_down"] = down.to_json()

    report = ClassReport(
        bi=bi,
        ubi=ubi,
        ubi_pd=pd_status,
        ubi_pd_down=down.status,
        semi_unambiguous=semi,
        unambiguous=unamb,
        certificates=certificates,
        diagnostics={
            "cmi_xy_given_blocks": cmi,
            "h_xy_given_blocks": h_resid,
            "per_z_injective": ccf.per_z_injective,
            "n_block_labels": ccf.n_labels,
        },
        tolerances={"entropy": tol, "support": support_eps},
        ccf=ccf,
        down=down,
    )
    return report
