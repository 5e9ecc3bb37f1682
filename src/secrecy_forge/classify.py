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

On the conditional support the announced pair is a function of z, so it
tells Eve nothing about the block label that z does not, and no leak test
is needed.  The same fact makes the message-extended distribution d with
each symbol tagged by the message: it keeps d's per-z blocks, and with them
d's block-independence gap, and merges blocks across only the z that share
a message.  A BI distribution passes the protocol exactly when that
restricted merge puts no two blocks of one z together.  It is finer than
d's own cross-z merge, so UBI implies UBI-PD.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import config
from .common_info import (
    CondCommonFunction,
    _component_roots,
    _cross_z_merge,
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

__all__ = [
    "ClassReport",
    "PDCertificate",
    "PDDownResult",
    "is_ubi_pd_down",
    "classify",
]

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"

# Channels tried by the UBI-PD-down search and the coarse-graining ceiling:
# Bell(5) = 52 fits, so Eve alphabets of up to five symbols are searched in full.
CHANNEL_BUDGET = 64


# ---------------------------------------------------------------------------
# entropic helpers on the block decomposition


def _cell_entropies(d: Dist3, ccf: CondCommonFunction) -> tuple[float, float]:
    """I(X:Y | block label, Z) and H(XY | block label, Z) in bits, from one
    walk over the supported (z, block) cells.

    The cells partition the support, so each is the mass-weighted sum of
    its per-cell value.
    """
    cmi = h_xy = 0.0
    for z, part in ccf.per_z.items():
        slice_ = d.p[:, :, z]
        for bxs, bys in part.blocks:
            sub = slice_[np.array(bxs)[:, None], np.array(bys)]
            mass = float(sub.sum())
            if mass > 0.0:
                sub = sub / mass
                hxy = entropy_bits(sub)
                cmi += mass * (entropy_bits(sub.sum(axis=1)) + entropy_bits(sub.sum(axis=0)) - hxy)
                h_xy += mass * hxy
    return cmi, h_xy


# ---------------------------------------------------------------------------
# canonical public-discussion check


@dataclass(frozen=True)
class PDCertificate:
    """Canonical message construction used by the UBI-PD check."""

    message_of_x: Mapping[int, int]
    message_of_y: Mapping[int, int]
    n_messages: int
    extension_ubi: bool

    def to_json(self) -> dict:
        return {
            "message_of_x": {str(k): v for k, v in sorted(self.message_of_x.items())},
            "message_of_y": {str(k): v for k, v in sorted(self.message_of_y.items())},
            "n_messages": self.n_messages,
            "extension_ubi": self.extension_ubi,
        }


def _pd_canonical(ccf: CondCommonFunction) -> tuple[str, PDCertificate]:
    """Run the canonical protocol on a BI distribution with conditional
    common function ``ccf``; returns (yes|inconclusive, certificate).

    Each party announces the block of its symbol in its common part with
    Z, read off ccf's support.  There x, y and z share those blocks, so the
    message is the pair of blocks that z lies in and leaks nothing about
    the block label beyond z.  The message-extended distribution is then d
    relabelled, with d's blocks and block-independence gap, which the
    caller has checked.  It is UBI exactly when the cross-z merge of d's
    blocks, restricted to the z that share a message, puts no two blocks
    of one z together.
    """
    # one labelling of both graphs; the shorter side's padding rows have no
    # edges, so they join no block
    xz, yz = ccf.support.any(axis=1), ccf.support.any(axis=0)
    graphs = np.zeros((max(len(xz), len(yz)), xz.shape[1], 2), bool)
    graphs[:len(xz), :, 0], graphs[:len(yz), :, 1] = xz, yz
    part_xz, part_yz = _partitions(graphs)
    message_of_z = {z: (m, part_yz.block_of_y[z]) for z, m in part_xz.block_of_y.items()}
    m_index = {pair: i for i, pair in enumerate(sorted(set(message_of_z.values())))}
    group_of_z = {z: m_index[m] for z, m in message_of_z.items()}
    # a finer merge of a per-z injective function stays injective
    ext_ubi = ccf.per_z_injective or _cross_z_merge(ccf.per_z, group_of_z, ccf.support)[1]
    cert = PDCertificate(part_xz.block_of_x, part_yz.block_of_x, len(m_index), ext_ubi)
    return (YES if ext_ubi else INCONCLUSIVE), cert


# ---------------------------------------------------------------------------
# search over deterministic channels on Eve's symbol


def _set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted growth strings.

    Emitted in ascending lexicographic order: the all-merge string
    (0,...,0) first, the identity (0,1,...,n-1) last.  Iterative, so any
    alphabet size enumerates.
    """
    rgs = [0] * n
    while True:
        yield tuple(rgs)
        tops = list(itertools.accumulate(rgs, max))
        # grow the rightmost symbol that stays at most one above all before it
        i = next((i for i in range(n - 1, 0, -1) if rgs[i] <= tops[i - 1]), 0)
        if i == 0:
            return
        rgs[i] += 1
        rgs[i + 1:] = [0] * (n - i - 1)


@functools.cache
def _channel_table(
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], bool, np.ndarray, np.ndarray]:
    """The search's channels on n symbols: the first ``CHANNEL_BUDGET``
    restricted growth strings, whether the budget cut their enumeration,
    the read-only 0/1 (subset, z) mask of the distinct subsets of Z that
    their outputs are, and each channel's subset per output, below the
    widest output alphabet (at most five symbols).  Unused outputs point
    at the empty subset.  The batched work scales with the subsets (at most
    44) times |X||Y|, not with channels times outputs (up to 320)."""
    partitions = _set_partitions(n)
    channels = tuple(itertools.islice(partitions, CHANNEL_BUDGET))
    cut = next(partitions, None) is not None
    width = max(map(max, channels)) + 1
    # outputs[c, j, z]: channel c sends z to j
    outputs = np.array(channels)[:, None] == np.arange(width)[:, None]
    subsets, slots = np.unique(outputs.reshape(-1, n), axis=0, return_inverse=True)
    subsets, slots = subsets.astype(float), slots.reshape(len(channels), width)
    subsets.setflags(write=False)
    slots.setflags(write=False)
    return channels, cut, subsets, slots


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
    # no channel found: the key-rate ceiling min I(X:Y|Zbar) clamped at 0
    # and the first channel attaining it; not serialized
    ceiling: tuple[float, tuple[int, ...]] | None = None

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
    d: Dist3, ch: Channel, ccf_bar: CondCommonFunction, support_eps: float
) -> float:
    """I(Z : block label of the degraded distribution | Zbar).

    ``ccf_bar`` belongs to the degraded distribution.  On its support the
    canonical message is a function of Zbar, so conditioning on it as well
    changes nothing.
    """
    assignment = ch.assignment()
    max_blocks = max((len(p) for p in ccf_bar.per_z.values()), default=1)
    joint = np.zeros((d.dims[2], ch.out_dim, max_blocks))
    # p(x, y, z) > support_eps puts (x, y, zbar) in ccf_bar's support, as
    # p(x, y | zbar) >= p(x, y, z), so every entry here has a block
    for x, y, z in zip(*np.nonzero(d.p > support_eps)):
        zbar = assignment[z]
        joint[z, zbar, ccf_bar.per_z[zbar].block_of_x[x]] += d.p[x, y, z]
    return conditional_mutual_information(joint, (0,), (2,), (1,))


# The prefilters below reject a channel when its block-independence gap,
# or its leak, exceeds tol by this margin, and ClassReport decides the BI
# verdict from the gap where it lies farther than this from tol.
# They sum the same terms as _cell_entropies and _pd_down_extra_cmi
# in another order (unnormalized, all slices at once), so each agrees with
# its exact test to about 1e-14; the margin keeps every rejection and
# verdict one that the exact test would make too.  The ceiling re-decides
# exactly the channels whose batched I(X:Y|Zbar) is within it of the
# batched minimum.
PREFILTER_MARGIN = 1e-10


def _xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise a log2 a, with 0 log 0 = 0."""
    return a * np.log2(np.where(a > 0.0, a, 1.0))


def _cell_gap(q: np.ndarray, row_roots: np.ndarray, col_roots: np.ndarray) -> np.ndarray:
    """Mass-weighted I(X:Y | block label) of each (x, y) slice of q, one per
    trailing index, from its ``_component_roots``.

    The entries outside every block are zeroed, which leaves the cells; a
    cell with entries s, row sums r, column sums c and mass m adds
    -sum r log r - sum c log c + sum s log s + m log m.  Each row's mass is
    binned by (root, slice), x outermost, so every bin adds in x order and
    memory stays linear in |X|.
    """
    q = np.where(row_roots[:, None] != col_roots[None], 0.0, q)
    rows, cols = q.sum(axis=1), q.sum(axis=0)
    k = rows[0].size
    bins = row_roots.reshape(len(rows), k) * k + np.arange(k)
    masses = np.bincount(bins.ravel(), rows.ravel(), rows.size).reshape(rows.shape)
    return (_xlogx(q).sum(axis=(0, 1)) + _xlogx(masses).sum(axis=0)
            - _xlogx(rows).sum(axis=0) - _xlogx(cols).sum(axis=0))


def _block_gaps(
    d: Dist3, tol: float, support_eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I(X:Y | block label, Zbar), I(Z : block label | Zbar) and
    I(X:Y | Zbar) in bits after each channel of the search.

    Each output of a channel is a subset of Z, and its slice of the
    degraded pmf depends only on that subset, so every term is computed
    once per distinct subset of ``_channel_table`` and summed over each
    channel's outputs: the work scales with the subsets (at most 44), not
    with channels times outputs.  A slice can differ from
    ``apply_channel_z``'s by an ulp, which can move a support test: a
    channel with a Zbar mass or a conditional entry within a relative 1e-9
    of support_eps has gap and leak -inf, so the exact checks decide it.
    All slices are labelled and summed at once by ``_cell_gap``;
    I(X:Y|Zbar) sums its terms over every positive entry.  The leak,
    ``_pd_down_extra_cmi``'s value, is computed only when some channel's
    gap passes the prefilter, and is +inf for the channels whose gap
    fails; each block is named by its component root.
    """
    dx, _, dz = d.dims
    _, _, subsets, slots = _channel_table(dz)
    q = np.einsum("xyz,sz->xys", d.p, subsets)
    zbar = q.sum(axis=(0, 1))
    cond = np.divide(q, zbar, out=np.zeros_like(q), where=zbar > support_eps)
    lo, hi = support_eps * (1 - 1e-9), support_eps * (1 + 1e-9)
    fragile = ((lo < zbar) & (zbar < hi)) | ((lo < cond) & (cond < hi)).any(axis=(0, 1))
    row_roots, col_roots = _component_roots(cond > support_eps)
    del cond
    cmi = (_xlogx(q).sum(axis=(0, 1)) + _xlogx(zbar) - _xlogx(q.sum(axis=1)).sum(axis=0)
           - _xlogx(q.sum(axis=0)).sum(axis=0))[slots].sum(axis=1)
    gap = _cell_gap(q, row_roots, col_roots)[slots].sum(axis=1)
    leak = np.full_like(gap, np.inf)
    keep = gap <= tol + PREFILTER_MARGIN
    if keep.any():
        # joint[s, z, r]: the mass of p(x, y, z) > support_eps, z in subset
        # s, whose x has root r in slice s, binned so that memory stays
        # linear in |Z|; H(Z, Zbar) is H(Z)
        px = np.where(d.p > support_eps, d.p, 0.0).sum(axis=1)
        n = len(subsets)
        cells = (np.arange(n)[:, None] * dz + np.arange(dz)) * dx + row_roots[:, :, None]
        joint = np.bincount(cells.ravel(), (px[:, None] * subsets).ravel(),
                            n * dz * dx).reshape(n, dz, dx)
        pz, merged = px.sum(axis=0), joint.sum(axis=1)
        per_subset = (_xlogx(joint).sum(axis=(1, 2)) + _xlogx(subsets @ pz)
                      - subsets @ _xlogx(pz) - _xlogx(merged).sum(axis=1))
        leak[keep] = per_subset[slots[keep]].sum(axis=1)
    fragile = fragile[slots].any(axis=1)
    gap[fragile] = leak[fragile] = -np.inf
    return gap, leak, cmi


def _degraded_cmi(d: Dist3, k: np.ndarray) -> float:
    """I(X:Y|Zbar) of d pushed through the row-stochastic table k[z, zbar],
    the einsum and clip at 0 of ``apply_channel_z`` without its checks."""
    q = np.clip(np.einsum("xyz,zw->xyw", d.p, np.ascontiguousarray(k)), 0.0, None)
    return conditional_mutual_information(q, (0,), (1,), (2,))


def is_ubi_pd_down(
    d: Dist3,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
    *,
    _report: ClassReport | None = None,
) -> PDDownResult:
    """Search deterministic channels on Z, coarsest first, for a UBI-PD image.

    Channels are enumerated as set partitions of the z-alphabet (one
    representative per output relabelling) in lexicographic restricted
    growth order, at most ``CHANNEL_BUDGET`` of them, and the first passing
    channel is returned.  A passing channel must make the degraded
    distribution UBI-PD under the canonical protocol and leave the original
    symbol independent of the new block label given the degraded symbol.

    Two vectorized prefilters set aside the channels whose degraded
    distribution is not block independent, or whose block label leaks
    about Z, by a clear margin; the exact checks decide every other
    channel.  When no channel passes, the result carries the
    coarse-graining ceiling over the searched channels.

    Each channel that passes the prefilters is decided by the
    ``ClassReport`` of its degraded distribution: its UBI-PD verdict, its
    conditional common function and its canonical certificate.
    ``_report`` is for callers in this package that hold d's own report.
    The identity channel leaves d's pmf as it is, bit for bit, so that
    report decides the channel without a second build.
    """
    channels, cut, subsets, slots = _channel_table(d.dims[2])
    _, leaks, cmis = _block_gaps(d, tol, support_eps)
    tolerances = {"entropy": tol, "support": support_eps}
    for tested, (rgs, leak) in enumerate(zip(channels, leaks), start=1):
        if leak > tol + PREFILTER_MARGIN:  # +inf where the gap fails
            continue
        ch = Channel.deterministic(rgs)
        identity = max(rgs) + 1 == d.dims[2]
        if identity and _report is not None:
            degraded = _report
        else:
            degraded = ClassReport(apply_channel_z(d, ch), tolerances)
        if degraded.ubi_pd != YES:
            continue
        # through the identity Zbar is Z, so the leak is 0 by construction
        extra = 0.0 if identity else _pd_down_extra_cmi(d, ch, degraded.ccf, support_eps)
        if extra <= tol:
            rate = degraded.ccf.block_entropy(degraded.d)
            return PDDownResult(YES, ch, tested, "channel found", degraded._pd_cert,
                                extra, rate)
    # each batched I(X:Y|Zbar) is well within PREFILTER_MARGIN / 2 of the
    # exact one, so the exact first minimum is among these; the clamp at 0
    # absorbs rounding below the interval's lower bound
    near = np.flatnonzero(cmis <= cmis.min() + PREFILTER_MARGIN)
    exact = [_degraded_cmi(d, subsets[slots[i, :max(channels[i]) + 1]].T) for i in near]
    best = int(np.argmin(exact))  # the first minimum
    ceiling = (max(exact[best], 0.0), channels[near[best]])
    reason = "budget exhausted" if cut else "search space exhausted"
    return PDDownResult(INCONCLUSIVE, None, len(channels), reason, ceiling=ceiling)


# ---------------------------------------------------------------------------
# combined report


VERDICTS = ("bi", "ubi", "ubi_pd", "ubi_pd_down", "semi_unambiguous", "unambiguous")


@dataclass(frozen=True, eq=False, repr=False)
class ClassReport:
    """The six class verdicts of ``d`` at ``tolerances``, plus views built
    on first read.

    Building a report builds d's conditional common function ``ccf`` and
    decides the chain BI -> UBI -> UBI-PD, which every user of a report
    reads: BI from the batched cell gap (the exact cell walk only within
    ``PREFILTER_MARGIN`` of tol), UBI from per-z injectivity, and UBI-PD
    from the canonical protocol, which runs only for a pmf that is BI but
    not UBI, as UBI implies UBI-PD; its certificate is kept.  The other
    three verdicts and the views are cached properties, built on first
    read: ``ubi_pd_down`` runs the channel search (``down``, with its
    channel and degraded rate or its ceiling) only when UBI-PD does not
    settle it, ``unambiguous`` walks the cells only for a semi-unambiguous
    pmf, and ``certificates`` and ``diagnostics`` reuse what the verdicts
    computed, so no search, protocol run or cell walk runs twice.  ``d``,
    ``ccf`` and ``down`` are not serialized.
    """

    d: Dist3
    tolerances: dict  # {"entropy": tol, "support": support_eps}
    ccf: CondCommonFunction = field(init=False)
    bi: str = field(init=False)
    ubi: str = field(init=False)
    ubi_pd: str = field(init=False)

    def __post_init__(self) -> None:
        tol = self.tolerances["entropy"]
        ccf = conditional_common_function(self.d, self.tolerances["support"])
        object.__setattr__(self, "ccf", ccf)
        gap = _cell_gap(self.d.p[:, :, ccf.zs], *ccf._roots).sum()
        if abs(gap - tol) <= PREFILTER_MARGIN:
            gap = self._cells[0]
        if gap > tol:
            chain = NO, NO, NO
        elif ccf.per_z_injective:
            chain = YES, YES, YES
        else:
            # the certificate fills _pd_cert, which a UBI report builds on first read
            pd, cert = _pd_canonical(ccf)
            object.__setattr__(self, "_pd_cert", cert)
            chain = YES, NO, pd
        for name, verdict in zip(VERDICTS, chain):
            object.__setattr__(self, name, verdict)

    def __repr__(self) -> str:
        return f"ClassReport({', '.join(f'{v}={getattr(self, v)!r}' for v in VERDICTS)})"

    @functools.cached_property
    def ubi_pd_down(self) -> str:
        # the identity channel certifies a UBI-PD distribution
        return YES if self.ubi_pd == YES else self.down.status

    @functools.cached_property
    def semi_unambiguous(self) -> str:
        # every supported (x, y) pair occurs with exactly one z
        p, support_eps = self.d.p, self.tolerances["support"]
        counts = (p > support_eps).sum(axis=2)
        return YES if np.all(counts[p.sum(axis=2) > support_eps] == 1) else NO

    @functools.cached_property
    def unambiguous(self) -> str:
        semi = self.semi_unambiguous == YES
        return YES if semi and self._cells[1] <= self.tolerances["entropy"] else NO

    @functools.cached_property
    def _cells(self) -> tuple[float, float]:
        return _cell_entropies(self.d, self.ccf)

    @functools.cached_property
    def _pd_cert(self) -> PDCertificate | None:
        return _pd_canonical(self.ccf)[1] if self.bi == YES else None

    @functools.cached_property
    def down(self) -> PDDownResult:
        tol, support_eps = self.tolerances["entropy"], self.tolerances["support"]
        down = is_ubi_pd_down(self.d, tol, support_eps, _report=self)
        if down.status != YES and self.ubi_pd == YES:
            # the identity channel always certifies a UBI-PD distribution,
            # even when the search stopped short of it
            ch = Channel.identity(self.d.dims[2])
            down = PDDownResult(YES, ch, down.tested, "implied by UBI-PD (identity)",
                                self._pd_cert, 0.0)
        return down

    @functools.cached_property
    def certificates(self) -> dict:
        certificates: dict = {}
        if self.ubi == YES:
            labels_x: dict[int, int] = {}
            labels_y: dict[int, int] = {}
            for z, part in self.ccf.per_z.items():
                for x, b in part.block_of_x.items():
                    labels_x[x] = self.ccf.global_labels[(z, b)]
                for y, b in part.block_of_y.items():
                    labels_y[y] = self.ccf.global_labels[(z, b)]
            certificates["ubi"] = {
                "label_of_x": {str(k): v for k, v in sorted(labels_x.items())},
                "label_of_y": {str(k): v for k, v in sorted(labels_y.items())},
            }
        if self._pd_cert is not None:
            certificates["ubi_pd"] = self._pd_cert.to_json()
        certificates["ubi_pd_down"] = self.down.to_json()
        return certificates

    @functools.cached_property
    def diagnostics(self) -> dict:
        cmi, h_resid = self._cells
        return {"cmi_xy_given_blocks": cmi, "h_xy_given_blocks": h_resid,
                "per_z_injective": self.ccf.per_z_injective, "n_block_labels": self.ccf.n_labels}

    def to_json(self) -> dict:
        return {
            **{name: getattr(self, name) for name in VERDICTS},
            "certificates": self.certificates,
            "diagnostics": self.diagnostics,
            "tolerances": self.tolerances,
        }


def classify(
    d: Dist3,
    tol: float = config.ENTROPY_TOL,
    support_eps: float = config.SUPPORT_EPS,
) -> ClassReport:
    """The ``ClassReport`` of d, with all six verdicts decided.

    Building the report decides BI, UBI and UBI-PD; classify then reads the
    other three, which runs the UBI-PD-down search only when UBI-PD does
    not settle that verdict and the cell walk only for a semi-unambiguous
    pmf.  ``down``, ``certificates`` and ``diagnostics`` are built on first
    read.  The search tries at most ``CHANNEL_BUDGET`` channels; its
    ``reason`` says if that cut it short.
    """
    report = ClassReport(d, {"entropy": tol, "support": support_eps})
    for name in VERDICTS[3:]:
        getattr(report, name)
    return report
