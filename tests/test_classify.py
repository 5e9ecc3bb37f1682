"""Class hierarchy: membership statuses, certificates, nesting relations."""

from __future__ import annotations

import importlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecy_forge import config
from secrecy_forge.classify import (
    CHANNEL_BUDGET,
    PREFILTER_MARGIN,
    _block_gaps,
    _cell_entropies,
    _cell_gap,
    _channel_table,
    _pd_canonical,
    _pd_down_extra_cmi,
    _set_partitions,
    classify,
    is_ubi_pd_down,
)
from secrecy_forge.common_info import _partitions, conditional_common_function
from secrecy_forge.distributions import (
    Channel,
    Dist3,
    apply_channel_z,
    conditional_mutual_information,
    product_power,
)
from secrecy_forge.keyrates import (
    binary_eve_family,
    independent_eve_example,
    kd_class,
    one_sided_coherence_example,
    two_block_uniform_example,
)
from secrecy_forge.qlinalg import QState

# the package's top level binds "classify" to the function, not the module
classify_module = importlib.import_module("secrecy_forge.classify")
common_info_module = importlib.import_module("secrecy_forge.common_info")

REPORT_KEYS = {
    "bi",
    "ubi",
    "ubi_pd",
    "ubi_pd_down",
    "semi_unambiguous",
    "unambiguous",
    "certificates",
    "diagnostics",
    "tolerances",
}


def statuses(report) -> dict[str, str]:
    return {
        "bi": report.bi,
        "ubi": report.ubi,
        "ubi_pd": report.ubi_pd,
        "ubi_pd_down": report.ubi_pd_down,
        "semi": report.semi_unambiguous,
        "unamb": report.unambiguous,
    }


# ---------------------------------------------------------------------------
# bundled instances


def test_binary_eve_family_statuses():
    r = classify(binary_eve_family(0.25))
    assert statuses(r) == {
        "bi": "yes",
        "ubi": "yes",
        "ubi_pd": "yes",
        "ubi_pd_down": "yes",
        "semi": "no",
        "unamb": "no",
    }


def test_two_block_instance_statuses_and_certificate():
    r = classify(two_block_uniform_example())
    assert statuses(r) == {
        "bi": "yes",
        "ubi": "yes",
        "ubi_pd": "yes",
        "ubi_pd_down": "yes",
        "semi": "yes",
        "unamb": "yes",
    }
    cert = r.to_json()["certificates"]["ubi_pd"]
    assert cert["extension_ubi"] is True
    # canonical message: common part of X with Z, here the block group
    assert cert["message_of_x"] == {"0": 0, "1": 0, "2": 1, "3": 1}
    assert cert["n_messages"] == 2


def test_one_sided_example_is_pd_but_not_ubi():
    d, _ = one_sided_coherence_example()
    r = classify(d)
    assert statuses(r) == {
        "bi": "yes",
        "ubi": "no",
        "ubi_pd": "yes",
        "ubi_pd_down": "yes",
        "semi": "yes",
        "unamb": "no",
    }
    down = r.to_json()["certificates"]["ubi_pd_down"]
    assert down["channel"] == [0, 1, 2]
    assert down["residual_leak_cmi"] <= 1e-9


def test_identity_channel_reports_no_leak():
    # through the identity Zbar = Z, so I(Z : J | Zbar) is 0 by construction;
    # computed, it came out as a rounding residue of 2.2e-16 here
    d, _ = one_sided_coherence_example()
    for down in (classify(d).down, is_ubi_pd_down(d)):
        assert down.channel.assignment() == [0, 1, 2] and down.extra_cmi == 0.0


def test_independent_eve_example_statuses():
    r = classify(independent_eve_example())
    assert r.bi == "no"
    assert r.ubi == "no"
    assert r.semi_unambiguous == "yes"
    assert r.unambiguous == "no"


def test_uniform_triple_is_bi():
    r = classify(Dist3(np.full((2, 2, 2), 0.125)))
    assert r.bi == "yes"
    assert r.ubi == "yes"


# ---------------------------------------------------------------------------
# hand-built shapes


def test_nonuniform_product_is_trivially_ubi():
    # single full-support block: labels are constant, hence z-consistent
    p = (np.outer([0.7, 0.3], [0.4, 0.6])).reshape(2, 2, 1)
    r = classify(Dist3(p))
    assert r.bi == "yes"
    assert r.ubi == "yes"


def test_correlated_single_block_is_not_bi():
    p = np.array([[0.3, 0.2], [0.2, 0.3]]).reshape(2, 2, 1)
    r = classify(Dist3(p))
    assert r.bi == "no"
    assert r.ubi == "no"
    assert r.ubi_pd == "no"
    # absence of a repairing channel is not certifiable by search
    assert r.ubi_pd_down == "inconclusive"


def test_nonuniform_diagonal_is_unambiguous():
    p = np.diag([0.2, 0.3, 0.5]).reshape(3, 3, 1)
    r = classify(Dist3(p))
    assert statuses(r) == {
        "bi": "yes",
        "ubi": "yes",
        "ubi_pd": "yes",
        "ubi_pd_down": "yes",
        "semi": "yes",
        "unamb": "yes",
    }


def test_merging_eve_repairs_crossed_pairings():
    # z=0 pairs on the diagonal, z=1 on the anti-diagonal: the pairings
    # clash across z, but pooling Eve's symbol leaves one uniform block
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 0] = 0.25
    p[0, 1, 1] = p[1, 0, 1] = 0.25
    r = classify(Dist3(p))
    assert r.bi == "yes"
    assert r.ubi == "no"
    assert r.ubi_pd == "inconclusive"
    assert r.ubi_pd_down == "yes"
    down = r.to_json()["certificates"]["ubi_pd_down"]
    assert down["channel"] == [0, 0]
    assert down["residual_leak_cmi"] <= 1e-9


# ---------------------------------------------------------------------------
# structural properties


def test_report_json_keys():
    assert set(classify(binary_eve_family(0.3)).to_json()) == REPORT_KEYS


@pytest.mark.parametrize("make", [
    two_block_uniform_example,
    lambda: Channel.identity(2),
    lambda: QState(np.eye(2) / 2, (2,)),
    lambda: one_sided_coherence_example()[1],
    lambda: classify(two_block_uniform_example()),
    lambda: conditional_common_function(two_block_uniform_example()),
])
def test_frozen_array_holders_compare_by_identity(make):
    # a generated __eq__ or __hash__ over array fields raises
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


IMPLICATIONS = (
    ("ubi", "bi"),
    ("ubi", "ubi_pd"),
    ("ubi_pd", "ubi_pd_down"),
    ("unamb", "semi"),
)


def assert_no_nesting_violation(s: dict[str, str]) -> None:
    for premise, conclusion in IMPLICATIONS:
        assert not (s[premise] == "yes" and s[conclusion] == "no"), s


def test_nesting_on_random_distributions(make_dist):
    for sparsity in (0.0, 0.4, 0.7):
        for _ in range(15):
            d = make_dist((3, 3, 2), sparsity=sparsity)
            assert_no_nesting_violation(statuses(classify(d)))


def test_canonical_protocol_uses_the_conditional_support():
    # Entries whose conditional mass p(x, y | z) exceeds support_eps while
    # their absolute mass does not: the canonical protocol once dropped
    # them and classify raised "class nesting violated" on this pmf.
    rng = np.random.default_rng(1243)
    dims = rng.integers(2, 4, size=3)
    p = rng.random(dims) ** rng.integers(1, 6)
    p[rng.random(dims) < 0.4] = 0
    d = Dist3(p / p.sum())
    tols = {"tol": 1e-3, "support_eps": 1e-2}
    report = classify(d, **tols)
    s = statuses(report)
    assert_no_nesting_violation(s)
    assert s["ubi"] == s["ubi_pd"] == "yes"
    assert kd_class(d, **tols).to_json() == kd_class(d, report, **tols).to_json()


def _light_x1_pmf(small):
    # x = 1 has total mass below support_eps but conditional mass above
    # it given z = 0
    p = np.zeros((2, 1, 2))
    p[0, 0, 0], p[1, 0, 0], p[0, 0, 1] = 0.2 - small, small, 0.8
    return p


def _near_independent_block_pmf():
    # Given z = 0, (x1, y1) has conditional mass above support_eps = 1e-2
    # and (x0, y1) below it; both are below it in absolute mass.  An
    # extension that kept only the supported entries and renormalized
    # would make the near-independent block correlated and fail UBI.
    p = np.zeros((3, 2, 2))
    p[:2, :, 0] = [[0.19, 0.003], [0.12, 0.004]]
    p[2, 0, 1] = 0.683
    return p / p.sum()


def _light_eve_symbol_pmf():
    # z = 1 has mass below support_eps = 1e-2.  Given z = 0 the one block
    # has a gap of 1.005e-3, weighted by p(z = 0) = 0.991 to just below
    # tol = 1e-3, so d is BI and UBI.  An extension that dropped z = 1 and
    # renormalized had the unweighted gap, failed UBI, and classify raised
    # "class nesting violated".
    c = 0.0373216062
    p = np.zeros((2, 2, 2))
    p[:, :, 0] = 0.991 * (1 - c) / 4
    p[0, 0, 0] = p[1, 1, 0] = 0.991 * (1 + c) / 4
    p[0, 0, 1] = 0.009
    return p


@pytest.mark.parametrize(
    "p, support_eps",
    [
        (_light_x1_pmf(0.009), 1e-2),
        (_light_x1_pmf(5e-13), 1e-12),
        (_near_independent_block_pmf(), 1e-2),
        (_light_eve_symbol_pmf(), 1e-2),
    ],
    ids=["light-x-eps-1e-2", "light-x-eps-default", "near-independent-block",
         "light-eve-symbol"],
)
def test_canonical_protocol_on_mass_below_support_eps(p, support_eps):
    # The common-part maps give every supported x and y a message, and the
    # extension is d relabelled, so a UBI distribution stays UBI-PD.
    report = classify(Dist3(p), tol=1e-3, support_eps=support_eps)
    s = statuses(report)
    assert_no_nesting_violation(s)
    assert s["ubi"] == s["ubi_pd"] == "yes"
    cert = report.certificates["ubi_pd"]
    assert cert["extension_ubi"] is True
    assert sorted(cert["message_of_x"]) == [str(x) for x in range(p.shape[0])]
    assert sorted(cert["message_of_y"]) == [str(y) for y in range(p.shape[1])]


def test_classification_is_deterministic(make_dist):
    d = make_dist((3, 3, 2), sparsity=0.5)
    a = classify(d).to_json()
    b = classify(d).to_json()
    assert a == b


@st.composite
def small_dist3(draw, max_z=4):
    """Sparse integer weights: every class of the chain turns up often."""
    dims = (draw(st.integers(2, 3)), draw(st.integers(2, 3)),
            draw(st.integers(1, max_z)))
    n = int(np.prod(dims))
    weight = st.sampled_from((0, 0, 0, 1, 2))
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)), float)
    if w.sum() == 0.0:
        w[0] = 1.0
    return Dist3(w.reshape(dims) / w.sum())


@st.composite
def light_dist3(draw):
    """2-3 symbols per party; entries zero, light (1e-14 to 1e-11), near
    support_eps = 1e-2 in conditional mass, or heavy."""
    dims = tuple(draw(st.integers(2, 3)) for _ in range(3))
    entry = st.one_of(st.just(0.0), st.floats(1e-14, 1e-11),
                      st.floats(1e-3, 3e-2), st.floats(0.05, 1.0))
    w = np.array(draw(st.lists(entry, min_size=math.prod(dims),
                               max_size=math.prod(dims))))
    if w.max() < 0.05:
        w[0] = 1.0
    return Dist3(w.reshape(dims) / w.sum())


@st.composite
def block_dist3(draw, max_z=5):
    """Block-product pmfs: a label J = f(x) = g(y) and, given z, weights
    p(j | z) times a product of small integer weights inside each block.
    Most are UBI, so the search's channels pass its gap prefilter and
    reach the leak test, which random dense pmfs seldom do."""
    dx, dy = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    dz = draw(st.integers(1, max_z))
    k = draw(st.integers(1, min(dx, dy)))

    def labels(n):
        extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
        return np.array(draw(st.permutations(list(range(k)) + extra)))

    fx, gy = labels(dx), labels(dy)
    u = np.array(draw(st.lists(st.integers(1, 3), min_size=dx + dy, max_size=dx + dy)), float)
    w = np.array(draw(st.lists(st.integers(0, 2), min_size=dz * k, max_size=dz * k)),
                 float).reshape(dz, k)
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    ux = u[:dx] / np.bincount(fx, u[:dx])[fx]
    uy = u[dx:] / np.bincount(gy, u[dx:])[gy]
    inside = fx[:, None] == gy[None, :]
    p = (inside * np.outer(ux, uy))[:, :, None] * (w / w.sum(axis=1, keepdims=True)).T[fx][:, None, :]
    return Dist3(p / p.sum())


def cmi_xy_given_blocks(d, ccf):
    """I(X:Y | block label, Z) by the exact per-cell walk classify reports."""
    return _cell_entropies(d, ccf)[0]


def _built_extension(d, support_eps):
    """The message-extended pmf built as a Dist3 of its own.

    On the z that carry a message, Eve's symbol z becomes (z, m(z)) and
    Alice's and Bob's symbols carry m(z); the z without one are dropped and
    the rest renormalized.  Returns the extension's block-independence gap,
    whether its own cross-z merge is injective per z, and the mass kept.
    """
    ccf = conditional_common_function(d, support_eps)
    # the common part of X with Z as a map on x, and of Y with Z on y
    (part_xz,) = _partitions(ccf.support.any(axis=1)[:, :, None])
    (part_yz,) = _partitions(ccf.support.any(axis=0)[:, :, None])
    ma, mb = part_xz.block_of_x, part_yz.block_of_x
    dx, dy, dz = d.dims
    message_of_z = {z: (ma[x], mb[y]) for x, y, z in zip(*np.nonzero(ccf.support))}
    pairs = sorted(set(message_of_z.values()))
    nm = len(pairs)
    q = np.zeros((nm * dx, nm * dy, dz * nm))
    for z, pair in message_of_z.items():
        m = pairs.index(pair)
        q[m * dx:(m + 1) * dx, m * dy:(m + 1) * dy, z * nm + m] = d.p[:, :, z]
    kept = q.sum()
    ext = Dist3(q / kept)
    ext_ccf = conditional_common_function(ext, support_eps)
    return cmi_xy_given_blocks(ext, ext_ccf), ext_ccf.per_z_injective, kept


TOLERANCE_PAIRS = (
    {"tol": config.ENTROPY_TOL, "support_eps": config.SUPPORT_EPS},
    {"tol": 1e-3, "support_eps": 1e-2},
)


# random draws seldom give a BI pmf that the protocol certifies without it
# being UBI, so the one-sided-coherence pmf is always tried, as is the pmf
# the built extension got wrong
@settings(max_examples=200)
@given(st.one_of(small_dist3(), light_dist3()), st.sampled_from(TOLERANCE_PAIRS))
@example(one_sided_coherence_example()[0], TOLERANCE_PAIRS[0])
@example(Dist3(_light_eve_symbol_pmf()), TOLERANCE_PAIRS[1])
def test_canonical_protocol_matches_the_built_extension(d, tols):
    report = classify(d, **tols)
    if report.bi != "yes":
        assert report.ubi_pd == "no"
        return
    ext_gap, ext_injective, kept = _built_extension(d, tols["support_eps"])
    cert = report.certificates["ubi_pd"]
    assert cert["extension_ubi"] == ext_injective
    assert (report.ubi_pd == "yes") == ext_injective
    # The built extension renormalizes, so its gap is d's divided by the
    # mass it kept.  Where that alone pushes the gap past tol, it failed a
    # BI pmf (the light-eve-symbol case); elsewhere the verdicts agree.
    gap = report.diagnostics["cmi_xy_given_blocks"]
    if not tols["tol"] * kept < gap <= tols["tol"]:
        built_ubi = ext_gap <= tols["tol"] and ext_injective
        assert (report.ubi_pd == "yes") == built_ubi


@settings(max_examples=150)
@given(small_dist3())
def test_kd_class_without_report_matches_report_path(d):
    assert kd_class(d).to_json() == kd_class(d, classify(d)).to_json()


@st.composite
def gap_dist3(draw):
    """pmfs for the batched cell gap: the strategies above or the square of
    a block pmf.  Some draws turn every zero entry light (1e-15 to 1e-11),
    which puts entries below support_eps inside blocks' rectangles, and a
    last z slice of mass at most 1e-2 is appended, which support_eps = 1e-2
    leaves out."""
    d = draw(st.one_of(small_dist3(), light_dist3(), block_dist3(),
                       block_dist3(max_z=2).map(lambda b: product_power(b, 2))))
    p = d.p.copy()
    if draw(st.booleans()):
        p[p == 0.0] = draw(st.floats(1e-15, 1e-11))
    tail = draw(st.floats(0.0, 1e-2))
    light = np.array(draw(st.lists(st.integers(0, 2), min_size=p[:, :, 0].size,
                                   max_size=p[:, :, 0].size)), float).reshape(p.shape[:2])
    if tail and light.any():
        p = np.concatenate([p / p.sum() * (1 - tail), (tail * light / light.sum())[:, :, None]], axis=2)
    return Dist3(p / p.sum())


def _batched_gap(d, ccf):
    return _cell_gap(d.p[:, :, list(ccf.per_z)], *ccf._roots).sum()


@settings(max_examples=150)
@given(gap_dist3(), st.sampled_from((1e-12, 1e-2)))
@example(Dist3(_light_eve_symbol_pmf()), 1e-2)  # z = 1 weighs less than support_eps
@example(Dist3(_near_independent_block_pmf()), 1e-2)  # (x0, y1) light inside a block
@example(product_power(two_block_uniform_example(), 2), 1e-12)
def test_batched_gap_agrees_with_the_cell_walk(d, support_eps):
    ccf = conditional_common_function(d, support_eps)
    assert abs(_batched_gap(d, ccf) - cmi_xy_given_blocks(d, ccf)) <= 1e-13


@pytest.mark.parametrize("margin", [PREFILTER_MARGIN, 0.0, math.inf])
def test_bi_verdict_within_the_margin_is_the_exact_one(monkeypatch, margin):
    # one block per z and not BI; at tol = its exact gap, and one ulp below,
    # the batched gap lies within the margin of tol, so the exact walk decides
    p = np.random.default_rng(8).random((3, 3, 3))
    d = Dist3(p / p.sum())
    ccf = conditional_common_function(d)
    exact, batched = cmi_xy_given_blocks(d, ccf), _batched_gap(d, ccf)
    assert classify(d).bi == "no" and batched != exact
    monkeypatch.setattr(classify_module, "PREFILTER_MARGIN", margin)
    for tol in (exact, np.nextafter(exact, 0.0)):
        got = kd_class(d, tol=tol).to_json()
        if abs(batched - tol) > margin:
            # margin 0: only a tie reaches the walk, so the batched gap decides
            assert (got["diagnostics"]["class"] == "ubi_pd") == (batched <= tol)
        else:
            assert got == kd_class(d, classify(d, tol=tol), tol=tol).to_json()


def _spy_calls(monkeypatch, names, *modules):
    """Rebind each named function of each module to one that appends its
    name to the returned list."""
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for module in modules:
        for name in names:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("first", ["down", "certificates", "diagnostics", "to_json"])
def test_classify_searches_and_walks_only_when_a_view_is_read(monkeypatch, first):
    # UBI-PD settles UBI-PD-down, so classify runs no search on these, and
    # walks the cells only to decide unambiguity of a semi-unambiguous pmf;
    # the protocol runs eagerly only for BI that is not UBI.  Each view
    # builds what it reads, once, and reuses what classify computed.
    calls = _spy_calls(monkeypatch, ("is_ubi_pd_down", "_cell_entropies", "_pd_canonical"),
                       classify_module)
    ubi, walk, protocol = two_block_uniform_example(), "_cell_entropies", "_pd_canonical"
    product = Dist3(np.einsum("x,y,z->xyz", [0.7, 0.3], [0.4, 0.6], [0.5, 0.5]))
    for d, eager in ((ubi, [walk]), (product_power(ubi, 2), [walk]),
                     (one_sided_coherence_example()[0], [protocol, walk]), (product, [])):
        report = classify(d)
        assert (report.ubi_pd, report.semi_unambiguous) == ("yes", "yes" if eager else "no")
        assert calls == eager
        calls.clear()
        kd_class(d, report)
        assert calls == []
        view = getattr(report, first)
        if first == "to_json":
            view()
        assert ("is_ubi_pd_down" in calls) == (first != "diagnostics")
        assert (walk in calls) == (not eager and first in ("diagnostics", "to_json"))
        report.to_json()
        assert calls.count("is_ubi_pd_down") == 1
        assert calls.count(walk) + eager.count(walk) == 1
        calls.clear()
    # a pmf that is not BI runs the search once, in classify, and the walk
    # once, for its diagnostics
    p = np.random.default_rng(9).random((3, 3, 3))
    d = Dist3(p / p.sum())
    report = classify(d)
    assert report.bi == "no" and calls == ["is_ubi_pd_down"]
    calls.clear()
    kd_class(d, report)
    getattr(report, first)
    report.to_json()
    assert calls == [walk]
    # without a report, kd_class and the search decide BI from the batched gap
    for d in (product_power(ubi, 2), d):
        kd_class(d)
        is_ubi_pd_down(d)
    assert walk not in calls[1:]


def test_kd_class_without_a_report_builds_no_per_z_dicts(monkeypatch):
    # the BI gap, per-z injectivity and H(J|Z) come from the component roots,
    # so kd_class without a report builds no per-z partition and runs no
    # cross-z merge, and the canonical protocol on a per-z injective function
    # runs no restricted merge: a finer merge of it stays injective
    calls = _spy_calls(monkeypatch, ("_partitions", "_cross_z_merge"),
                       common_info_module, classify_module)
    p = np.random.default_rng(9).random((3, 3, 3))
    ubi, not_bi = two_block_uniform_example(), Dist3(p / p.sum())
    for d in (ubi, product_power(ubi, 2), not_bi):
        kd_class(d)
        assert calls == []
    assert classify(not_bi).bi == "no"
    calls.clear()
    ccf = conditional_common_function(ubi)
    assert ccf.per_z_injective
    status, cert = _pd_canonical(ccf)
    assert (status, cert.extension_ubi) == ("yes", True)
    assert "_cross_z_merge" not in calls
    # a BI function that is not per-z injective still runs it
    ccf = conditional_common_function(one_sided_coherence_example()[0])
    assert not ccf.per_z_injective
    calls.clear()
    _pd_canonical(ccf)
    assert calls.count("_cross_z_merge") == 1


def test_each_support_graph_family_is_labelled_once(monkeypatch):
    # conditional_common_function labels its z slices and their union in one
    # call; _pd_canonical labels its x-z and y-z graphs in one and, unless
    # the function is per-z injective, the union of each message's z in one
    # more
    calls = []
    label = common_info_module._component_roots

    def spy(adj):
        calls.append(adj.shape)
        return label(adj)

    monkeypatch.setattr(common_info_module, "_component_roots", spy)
    p = np.random.default_rng(10).random((4, 2, 3))
    for d, labellings in ((product_power(two_block_uniform_example(), 2), 1),
                          (one_sided_coherence_example()[0], 2),
                          (Dist3(p / p.sum()), 1)):
        ccf = conditional_common_function(d)
        assert len(calls) == 1
        calls.clear()
        _pd_canonical(ccf)
        assert len(calls) == labellings
        calls.clear()


# |Z| = 6 has 203 partitions, so the budget-cut table is checked too
@given(small_dist3(max_z=6))
def test_prefilter_rejects_only_channels_the_exact_test_rejects(d):
    tol = config.ENTROPY_TOL
    channels = _channel_table(d.dims[2])[0]
    gaps, _, cmis = _block_gaps(d, tol, config.SUPPORT_EPS)
    assert len(gaps) == len(channels)
    for rgs, gap, cmi in zip(channels, gaps, cmis):
        dbar = apply_channel_z(d, Channel.deterministic(rgs))
        exact = cmi_xy_given_blocks(dbar, conditional_common_function(dbar))
        assert abs(gap - exact) <= 1e-12
        # the ceiling's candidates rest on this: far inside PREFILTER_MARGIN / 2
        assert abs(cmi - conditional_mutual_information(dbar.p, (0,), (1,), (2,))) <= 1e-12
        if gap > tol + PREFILTER_MARGIN:
            assert exact > tol


@settings(max_examples=80)
@given(st.one_of(small_dist3(max_z=6), block_dist3(max_z=6)), st.sampled_from(TOLERANCE_PAIRS))
def test_leak_prefilter_skips_only_channels_the_exact_leak_test_fails(d, tols):
    tol, eps = tols["tol"], tols["support_eps"]
    channels = _channel_table(d.dims[2])[0]
    gaps, leaks, _ = _block_gaps(d, tol, eps)
    assert len(leaks) == len(channels)
    for rgs, gap, leak in zip(channels, gaps, leaks):
        if gap > tol + PREFILTER_MARGIN:
            assert leak == math.inf  # never computed: the gap already rejects
            continue
        if leak == -math.inf:  # fragile: left to the exact checks
            continue
        ch = Channel.deterministic(rgs)
        dbar = apply_channel_z(d, ch)
        exact = _pd_down_extra_cmi(d, ch, conditional_common_function(dbar, eps), eps)
        assert abs(leak - exact) <= 1e-12
        if leak > tol + PREFILTER_MARGIN:
            assert exact > tol


def _down_fields(res):
    return (res.status, res.channel and res.channel.assignment(), res.tested, res.reason,
            res.certificate, res.extra_cmi, res.degraded_rate, res.ceiling)


@settings(max_examples=120)
@given(st.one_of(block_dist3(), small_dist3(), light_dist3()), st.sampled_from(TOLERANCE_PAIRS))
def test_classify_search_equals_the_standalone_search(d, tols):
    # classify decides the identity channel from d's own partition and
    # protocol run; the standalone search builds them again, through
    # apply_channel_z.  Every |Z| here is at most 5, so both search it.
    assert _down_fields(classify(d, **tols).down) == _down_fields(is_ubi_pd_down(d, **tols))


@settings(max_examples=120)
@given(st.one_of(small_dist3(), light_dist3()), st.sampled_from(TOLERANCE_PAIRS))
def test_views_do_not_depend_on_the_order_they_are_read(d, tols):
    reports = [classify(d, **tols) for _ in range(3)]
    reports[0].to_json()
    reports[1].diagnostics
    reports[2].down
    a, b, c = (json.dumps(r.to_json()) for r in reports)
    assert a == b == c
    a, b, c = (_down_fields(r.down) for r in reports)
    assert a == b == c
    # BI is decided by the batched gap, or by the walk itself within
    # PREFILTER_MARGIN of tol; the two differ by far less than the margin
    cmi = reports[0].diagnostics["cmi_xy_given_blocks"]
    assert reports[0].bi == ("yes" if cmi <= tols["tol"] else "no")


def _channel_loop_ceiling(d):
    """I(X:Y|Zbar) through each budgeted channel via apply_channel_z; the
    first minimum, clamped at 0, its channel and the channel count."""
    best, best_rgs = math.inf, ()
    channels = list(itertools.islice(_set_partitions(d.dims[2]), CHANNEL_BUDGET))
    for rgs in channels:
        dbar = apply_channel_z(d, Channel.deterministic(rgs))
        val = conditional_mutual_information(dbar.p, (0,), (1,), (2,))
        if val < best:
            best, best_rgs = val, rgs
    return max(best, 0.0), best_rgs, len(channels)


def _reported_ceilings(d):
    """(value, channel, count) of the ceiling kd_class reports for d without
    and with a report, and whether each says the budget cut its search;
    empty when d's key rate is resolved."""
    out = []
    for kd in (kd_class(d), kd_class(d, classify(d))):
        diag = kd.diagnostics
        if diag["class"] == "unresolved":
            assert kd.value == diag["upper_bound"]
            ceiling = (kd.value, tuple(diag["upper_bound_channel"]), diag["channels_tested"])
            out.append((ceiling, diag["budget_exhausted"]))
    return out


@settings(max_examples=80)
@given(small_dist3(max_z=6))
def test_coarse_graining_ceiling_equals_the_channel_loop(d):
    # |Z| = 6 has 203 partitions, so the budget cuts the enumeration
    want = _channel_loop_ceiling(d)
    down = is_ubi_pd_down(d)
    if down.channel is None:
        assert down.ceiling + (down.tested,) == want
    for ceiling, cut in _reported_ceilings(d):
        assert ceiling == want
        assert cut == (d.dims[2] >= 6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ceiling_of_a_budget_cut_product_power(seed):
    # |Z| = 9 has 21147 partitions; the search stops after CHANNEL_BUDGET
    rng = np.random.default_rng(seed)
    p = rng.random((2, 2, 3))
    d = product_power(Dist3(p / p.sum()), 2)
    reported = _reported_ceilings(d)
    assert reported == [(_channel_loop_ceiling(d), True)] * 2


def test_unresolved_kd_class_degrades_only_near_the_minimum(monkeypatch):
    rng = np.random.default_rng(5)
    p = rng.random((3, 3, 6))
    d = Dist3(p / p.sum())
    degraded = []
    degrade, ceiling_cmi = classify_module.apply_channel_z, classify_module._degraded_cmi

    def spy(dist, ch):
        degraded.append(tuple(ch.assignment()))
        return degrade(dist, ch)

    def ceiling_spy(dist, k):
        # the ceiling reads each channel's 0/1 (z, zbar) table, not a Channel
        degraded.append(tuple(k.argmax(axis=1).tolist()))
        return ceiling_cmi(dist, k)

    monkeypatch.setattr(classify_module, "apply_channel_z", spy)
    monkeypatch.setattr(classify_module, "_degraded_cmi", ceiling_spy)
    assert kd_class(d).diagnostics["class"] == "unresolved"
    channels = _channel_table(6)[0]
    gaps, leaks, cmis = _block_gaps(d, config.ENTROPY_TOL, config.SUPPORT_EPS)
    # the exact checks see only the channels both prefilters pass, and the
    # ceiling only those near the batched minimum
    bound = config.ENTROPY_TOL + PREFILTER_MARGIN
    passed = np.flatnonzero((gaps <= bound) & (leaks <= bound))
    near = np.flatnonzero(cmis <= cmis.min() + PREFILTER_MARGIN)
    assert degraded == [channels[i] for i in passed] + [channels[i] for i in near]
    assert 1 <= len(near) <= len(degraded) < CHANNEL_BUDGET


def test_set_partitions_runs_once_per_alphabet(monkeypatch):
    calls = []
    enumerate_ = classify_module._set_partitions

    def spy(n):
        calls.append(n)
        return enumerate_(n)

    monkeypatch.setattr(classify_module, "_set_partitions", spy)
    _channel_table.cache_clear()
    rng = np.random.default_rng(6)
    for dz in (5, 6, 5, 6):
        p = rng.random((3, 3, dz))
        d = Dist3(p / p.sum())
        classify(d)
        kd_class(d)
    assert calls == [5, 6]


@settings(max_examples=60)
@given(st.one_of(small_dist3(max_z=6), light_dist3()))
def test_channel_stack_slices_are_the_degraded_pmfs(d):
    # each channel's outputs, gathered from the distinct subsets' slices,
    # are its degraded pmf; the outputs past its alphabet are the empty subset
    channels, _, subsets, slots = _channel_table(d.dims[2])
    assert not subsets.flags.writeable and not slots.flags.writeable
    width = max(map(max, channels)) + 1
    assert subsets.shape[1] == d.dims[2] and slots.shape == (len(channels), width)
    slices = np.einsum("xyz,sz->xys", d.p, subsets)
    for rgs, slot in zip(channels, slots):
        want = apply_channel_z(d, Channel.deterministic(rgs)).p
        out_dim = want.shape[2]
        np.testing.assert_array_max_ulp(slices[:, :, slot[:out_dim]], want, maxulp=4)
        assert not subsets[slot[out_dim:]].any()


def test_channel_table_grows_linearly_in_the_alphabet():
    # the budgeted channels' outputs are 43 distinct subsets of Z, plus the
    # empty one their unused outputs point at, so the mask is (44, |Z|)
    # however many channels and outputs there are
    rng = np.random.default_rng(7)
    p = rng.random((2, 2, 1024))
    d = Dist3(p / p.sum())
    channels, cut, subsets, slots = _channel_table(1024)
    assert cut and len(channels) == CHANNEL_BUDGET
    assert subsets.shape == (44, 1024) and slots.shape == (CHANNEL_BUDGET, 5)
    assert len(np.unique(subsets, axis=0)) == 44 and not subsets[slots[0, 1:]].any()
    down = is_ubi_pd_down(d)
    assert down.tested == CHANNEL_BUDGET and down.reason == "budget exhausted"
    assert down.ceiling + (down.tested,) == _channel_loop_ceiling(d)


def test_block_gaps_labels_each_distinct_subset_once(monkeypatch):
    # one graph per distinct output subset, the empty one included; one
    # per (channel, output) would be 4, 15, 60, 260 and 320
    graphs = []
    label = classify_module._component_roots

    def spy(adj):
        graphs.append(math.prod(adj.shape[2:]))
        return label(adj)

    monkeypatch.setattr(classify_module, "_component_roots", spy)
    rng = np.random.default_rng(11)
    for dz in range(2, 7):
        p = rng.random((3, 3, dz))
        _block_gaps(Dist3(p / p.sum()), config.ENTROPY_TOL, config.SUPPORT_EPS)
    assert graphs == [4, 8, 16, 32, 44]


def test_classify_memory_grows_linearly_in_x():
    # the block masses are binned by component root; a (|X|, |X|, channels,
    # |Zbar|) root mask would take about 136 MB on this 256x1x5 pmf
    p = np.random.default_rng(0).random((256, 1, 5))
    d = Dist3(p / p.sum())
    tracemalloc.start()
    try:
        classify(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def merged_entry_at_support_eps():
    """A 2x2x5 pmf and a support_eps at which, after the all-merge channel,
    the (0, 1) conditional entry is exactly support_eps as ``apply_channel_z``
    and ``conditional_common_function`` compute it.  Left out of the
    support, x and y are perfectly correlated in two blocks and the channel
    certifies; let in, they form one block and it fails."""
    rng = np.random.default_rng(1)
    e = rng.random(5) * 1e-13
    w = rng.dirichlet(np.ones(5))
    p = np.zeros((2, 2, 5))
    p[0, 1] = e
    p[0, 0] = p[1, 1] = w * (1 - e.sum()) / 2
    d = Dist3(p)
    q = apply_channel_z(d, Channel.deterministic([0] * 5)).p
    return d, q[0, 1, 0] / q.sum(axis=(0, 1))[0]


def test_search_leaves_a_channel_at_support_eps_to_the_exact_checks(monkeypatch):
    d, eps = merged_entry_at_support_eps()
    gaps, leaks, _ = _block_gaps(d, config.ENTROPY_TOL, eps)
    assert gaps[0] == leaks[0] == -math.inf

    def outcome(res):
        return res.status, res.channel and res.channel.assignment(), res.tested

    got = outcome(is_ubi_pd_down(d, support_eps=eps))
    # an infinite margin turns the prefilter off: every channel is decided exactly
    monkeypatch.setattr(classify_module, "PREFILTER_MARGIN", math.inf)
    assert got == outcome(is_ubi_pd_down(d, support_eps=eps)) == ("yes", [0] * 5, 1)
