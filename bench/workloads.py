"""The four seeded workloads of the secrecy-forge benchmark.

Each workload turns a seed into inputs built through the package's own
constructors, runs one item at a time through the public API, and checks
every output.  Items are grouped into rounds of fixed composition; a
timed run repeats the pre-built rounds until its time is up, so every
round is a complete, balanced sample of the workload's input families.

Where an item's cost varies a lot from one input to the next, the inputs
come from a committed pool (``refs/``) whose members are sorted into
strata: by structure for classification, by measured cost for the
formation optimizer.  A seed picks which pool members fill each slot of
a round, so two seeds see different inputs in the same proportions.  The
pool also carries the reference outputs the checks compare against,
generated by ``make_refs.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import secrecy_forge as sf
from secrecy_forge import cli, io

REFS = Path(__file__).resolve().parent / "refs"

# Pool members are generated from np.random.default_rng([POOL_SEED, ...]).
POOL_SEED = 1510_07344

VALUE_TOL = 1e-9
EOF_ERR_BOUND = 1e-4
DEQUANTIZE_TOL = 1e-9

VERDICTS = ("bi", "ubi", "ubi_pd", "ubi_pd_down", "semi_unambiguous", "unambiguous")
NESTING = (
    ("ubi", "bi"),
    ("ubi", "ubi_pd"),
    ("ubi_pd", "ubi_pd_down"),
    ("unambiguous", "semi_unambiguous"),
)


@dataclass
class Item:
    family: str
    key: Any
    data: Any


def load_ref(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cycle(rng: np.random.Generator, n: int):
    """Endless draws from range(n): seeded permutations back to back."""
    while True:
        yield from rng.permutation(n).tolist()


class Workload:
    """Pre-built rounds of items plus how to run and check one item.

    ``traced_rounds`` is how many of the first rounds one traced pass
    covers.  Subclasses set ``name``, ``families`` and ``rounds`` and
    define ``run`` and ``check``.
    """

    name: str
    families: tuple[str, ...]
    traced_rounds: int
    rounds: list[list[Item]]

    def warmup_items(self) -> list[Item]:
        """One item per input family: the first of each in round 0."""
        first: dict[str, Item] = {}
        for it in self.rounds[0]:
            first.setdefault(it.family, it)
        return [first[f] for f in self.families]

    def close(self) -> None:
        """Release what set-up created."""


# ---------------------------------------------------------------------------
# classify-corpus


# Block strata (|Z|, number of blocks): cost is set by the product power's
# channel search, which |Z| and the block count decide.
BLOCK_STRATA = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
# |Z| of the wide-z items in one round.  Bell(5) = 52 fits the 64-channel
# budget and Bell(6) = 203 does not, so the larger alphabets dominate.
WIDE_Z_ROUND = (4, 5, 5, 6, 6, 6)
SPARSE_PER_ROUND = 6


def classify_strata() -> list[str]:
    return (
        [f"block-{dz}-{k}" for dz, k in BLOCK_STRATA]
        + ["sparse"]
        + [f"wide-z-{dz}" for dz in sorted(set(WIDE_Z_ROUND))]
    )


def _sparse_p(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    while True:
        p = rng.random(dims) * (rng.random(dims) < 0.5)
        if p.sum() > 0.0:
            return p / p.sum()


def _block_p(rng: np.random.Generator, dz: int, k: int) -> np.ndarray:
    """Disjoint rectangles with per-flag weights and product conditionals."""
    dx, dy = (int(rng.integers(max(2, k), 4)) for _ in range(2))

    def labels(n: int) -> np.ndarray:
        lab = np.array(list(range(k)) + list(rng.integers(0, k, size=n - k)))
        rng.shuffle(lab)
        return lab

    lx, ly = labels(dx), labels(dy)
    pz = rng.dirichlet(np.ones(dz))
    p = np.zeros((dx, dy, dz))
    for z in range(dz):
        w = rng.dirichlet(np.ones(k))
        for j in range(k):
            xs = np.where(lx == j)[0]
            ys = np.where(ly == j)[0]
            ux = rng.dirichlet(np.ones(len(xs)))
            uy = rng.dirichlet(np.ones(len(ys)))
            p[np.ix_(xs, ys, [z])] += pz[z] * w[j] * np.outer(ux, uy)[:, :, None]
    return p


def classify_pool_member(stratum: str, j: int) -> sf.Dist3:
    """Pool member j of a stratum, built through the Dist3 constructor."""
    rng = np.random.default_rng([POOL_SEED, classify_strata().index(stratum), j])
    family, _, rest = stratum.partition("-")
    if family == "block":
        dz, k = (int(v) for v in rest.split("-"))
        return sf.Dist3(_block_p(rng, dz, k))
    if family == "sparse":
        dims = tuple(int(v) for v in rng.integers(2, 4, size=3))
        return sf.Dist3(_sparse_p(rng, dims))
    return sf.Dist3(_sparse_p(rng, (3, 3, int(stratum.rsplit("-", 1)[1]))))


def classify_item(d: sf.Dist3) -> tuple:
    """classify, kd_class as the keyrate command calls it, and additivity."""
    report = sf.classify(d)
    kd = sf.kd_class(d)
    kd2 = sf.kd_class(sf.product_power(d, 2)) if report.ubi == "yes" else None
    return report, kd, kd2


def kd_summary(kd) -> list:
    """[kind, value, upper bound] of a K_D result."""
    upper = kd.value if kd.kind == "exact" else kd.diagnostics["upper_bound"]
    return [kd.kind, kd.value, upper]


def classify_summary(out: tuple) -> dict:
    report, kd, kd2 = out
    return {
        "v": [getattr(report, name) for name in VERDICTS],
        "kd": kd_summary(kd),
        "kd2": None if kd2 is None else kd_summary(kd2),
    }


def check_classify(out: tuple, ref: dict) -> list[str]:
    """Accepts any output that is as resolved as the reference and sound."""
    problems = []
    report, kd, kd2 = out
    got = {name: getattr(report, name) for name in VERDICTS}
    for name, want in zip(VERDICTS, ref["v"]):
        if want != "inconclusive" and got[name] != want:
            problems.append(f"{name}: {got[name]} != reference {want}")
    for premise, conclusion in NESTING:
        if got[premise] == "yes" and got[conclusion] == "no":
            problems.append(f"nesting: {premise} yes but {conclusion} no")
    problems += _check_kd("K_D", kd, ref["kd"])
    if ref["kd2"] is not None:
        if kd2 is None:
            problems.append("additivity: product power not evaluated")
        else:
            problems += _check_kd("K_D(p^2)", kd2, ref["kd2"])
            if kd.kind == "exact" and abs(kd2.value - 2.0 * kd.value) > VALUE_TOL:
                problems.append(f"additivity: {kd2.value} != 2 * {kd.value}")
    return problems


def _check_kd(label: str, kd, ref: list) -> list[str]:
    kind, value, upper = ref
    if not math.isfinite(kd.value):
        return [f"{label}: non-finite value"]
    if kind == "exact":
        if kd.kind != "exact" or abs(kd.value - value) > VALUE_TOL:
            return [f"{label}: {kd.kind} {kd.value} != reference exact {value}"]
        return []
    if kd.kind == "exact":
        ok = kd.value <= upper + VALUE_TOL
        return [] if ok else [f"{label}: exact {kd.value} above reference bound {upper}"]
    lo = kd.diagnostics["lower_bound"]
    hi = kd.diagnostics["upper_bound"]
    problems = []
    if lo > hi + VALUE_TOL:
        problems.append(f"{label}: interval lower {lo} above upper {hi}")
    if hi > upper + VALUE_TOL:
        problems.append(f"{label}: upper bound {hi} rose above reference {upper}")
    return problems


class ClassifyCorpus(Workload):
    """Criterion 6 and the classify/keyrate commands at scale."""

    name = "classify-corpus"
    families = ("block", "sparse", "wide-z")
    rounds_built = 32
    traced_rounds = 2

    def __init__(self, seed: int) -> None:
        self.ref = load_ref(self.name)
        rng = np.random.default_rng([seed, 1])
        draws = {s: _cycle(rng, len(self.ref[s])) for s in classify_strata()}
        slots = (
            [f"block-{dz}-{k}" for dz, k in BLOCK_STRATA]
            + ["sparse"] * SPARSE_PER_ROUND
            + [f"wide-z-{dz}" for dz in WIDE_Z_ROUND]
        )
        self.rounds = []
        for _ in range(self.rounds_built):
            items = []
            for stratum in slots:
                j = next(draws[stratum])
                family = next(f for f in self.families if stratum.startswith(f))
                items.append(Item(family, (stratum, j), classify_pool_member(stratum, j)))
            self.rounds.append(items)

    def run(self, item: Item):
        return classify_item(item.data)

    def check(self, item: Item, out) -> list[str]:
        stratum, j = item.key
        return check_classify(out, self.ref[stratum][j])


# ---------------------------------------------------------------------------
# formation-2q


# Items of each rank in one round.  Rank 2 is the most common because the
# embedded pair state of a two-flag Eve has rank at most |Z|.
FORMATION_RANKS = {2: 8, 3: 2, 4: 2}


def serpentine(n_strata: int, count: int, r: int) -> list[int]:
    """The strata that round r draws from, ``count`` of ``n_strata``.

    Strata are ordered cheapest first and visited as 0, K-1, 1, K-2, ...,
    so a round that draws two items pairs a cheap stratum with an
    expensive one and every round costs about the same.
    """
    order = [s for i in range((n_strata + 1) // 2) for s in (i, n_strata - 1 - i)]
    order = list(dict.fromkeys(order))
    return [order[(r * count + i) % n_strata] for i in range(count)]


def formation_pool_member(rank: int, j: int) -> sf.QState:
    rng = np.random.default_rng([POOL_SEED, 100 + rank, j])
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return sf.QState(rho / np.trace(rho).real, (2, 2))


def formation_item(rho: sf.QState, seed: int) -> tuple:
    """The entanglement step of verify_chain and criterion 8, defaults only."""
    return (
        sf.eof_numeric(rho, seed=seed),
        sf.eof_2q(rho),
        sf.rel_ent_upper(rho, seed=seed),
        sf.negativity_log(rho),
    )


class Formation2Q(Workload):
    """The numeric formation optimizer against the Wootters closed form."""

    name = "formation-2q"
    families = ("rank-2", "rank-3", "rank-4")
    rounds_built = 8
    traced_rounds = 1

    def __init__(self, seed: int) -> None:
        ref = load_ref(self.name)
        rng = np.random.default_rng([seed, 2])
        # strata[rank] lists the pool keys of each cost stratum, cheapest first
        strata = {int(r): s for r, s in ref["strata"].items()}
        draws = {
            (rank, s): _cycle(rng, len(keys))
            for rank, per in strata.items()
            for s, keys in enumerate(per)
        }
        self.strata = strata
        self.rounds = []
        for r in range(self.rounds_built):
            items = []
            for rank, count in FORMATION_RANKS.items():
                for st in serpentine(len(strata[rank]), count, r):
                    j = strata[rank][st][next(draws[(rank, st)])]
                    items.append(Item(f"rank-{rank}", (rank, j),
                                      formation_pool_member(rank, j)))
            self.rounds.append(items)
        self.eof_max_err = 0.0

    def warmup_items(self) -> list[Item]:
        """The first state of each rank's cheapest stratum."""
        return [
            Item(f"rank-{rank}", (rank, per[0][0]), formation_pool_member(rank, per[0][0]))
            for rank, per in self.strata.items()
        ]

    def run(self, item: Item):
        return formation_item(item.data, seed=item.key[1])

    def check(self, item: Item, out) -> list[str]:
        ef, ef2 = out[0], out[1]
        problems = [
            f"{m.name}: value {m.value} not finite and >= 0"
            for m in out
            if not (math.isfinite(m.value) and m.value >= 0.0)
        ]
        err = abs(ef.value - ef2.value)
        self.eof_max_err = max(self.eof_max_err, err)
        if not err <= EOF_ERR_BOUND:
            problems.append(f"|eof_numeric - eof_2q| = {err:.3e} > {EOF_ERR_BOUND}")
        return problems


# ---------------------------------------------------------------------------
# cli-session


def _plain(obj: Any) -> Any:
    """Arrays to nested lists, floats untouched: full precision on disk."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def write_user_json(obj: Any, path: Path) -> None:
    """Write an input file the way a user writes one by hand.

    Floats keep every digit (Python's shortest round-trip repr).  The
    package's own ``io.dump_json`` rounds to 12 significant digits, after
    which ``load_dist`` can reject a generic pmf whose rounded entries no
    longer sum to 1 within ``VALIDATION_TOL``; see NOTES.md.
    """
    path.write_text(json.dumps(_plain(obj)), encoding="utf-8")


def cli_pool_dist(j: int) -> sf.Dist3:
    rng = np.random.default_rng([POOL_SEED, 200, j])
    p = rng.random((3, 3, 4))
    return sf.Dist3(p / p.sum())


CLI_EXAMPLES = ("thm6a", "thm6b", "lemma", "thm7d", "table1", "table2")


def write_cli_inputs(workdir: Path, pool_index: int, seed: int) -> None:
    """Seeded input files for one session, built through the constructors."""
    d_osc, phases = sf.one_sided_coherence_example()
    pair = sf.partial_trace(sf.embed_qqq(d_osc, phases).density(), (0, 1))
    # The two-qubit state is fixed, not drawn: its E_r optimization costs
    # from 44 to 155 ms over random states, and that one command would
    # then decide where the session's median command time falls.
    lam_pair = sf.partial_trace(sf.embed_qqq(sf.binary_eve_family(0.25)).density(), (0, 1))
    tree = sf.random_instrument_tree(
        4, 4, rounds=2, outcomes=2, kraus_each=1,
        rng=np.random.default_rng([seed, 3]),
    )
    files = {
        "rand.json": io.dump_dist(cli_pool_dist(pool_index)),
        "osc.json": io.dump_dist(d_osc),
        "osc_phases.json": io.dump_phases(phases),
        "lam.json": io.dump_dist(sf.binary_eve_family(0.25)),
        "twoblock.json": io.dump_dist(sf.two_block_uniform_example()),
        "q2.json": io.dump_state(lam_pair),
        "osc_pair.json": io.dump_state(pair),
        "tree.json": io.dump_tree(tree),
        "deq.json": io.dump_dist(sf.binary_eve_family(0.25)),
    }
    for name, doc in files.items():
        write_user_json(doc, workdir / name)


def cli_session_commands(workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for the fixed session; labels name the cli metrics."""
    w = str(workdir)
    cmds = [(f"reproduce-{ex}", ["reproduce", ex]) for ex in CLI_EXAMPLES]
    cmds += [
        ("classify", ["classify", "--dist", f"{w}/rand.json"]),
        ("commoninfo", ["commoninfo", "--dist", f"{w}/rand.json"]),
        ("keyrate", ["keyrate", "--dist", f"{w}/rand.json"]),
        ("embed", ["embed", "--kind", "cqq", "--dist", f"{w}/osc.json",
                   "--phases", f"{w}/osc_phases.json"]),
        ("chain", ["chain", "--dist", f"{w}/osc.json",
                   "--phases", f"{w}/osc_phases.json"]),
        ("chain", ["chain", "--dist", f"{w}/lam.json"]),
        ("chain", ["chain", "--dist", f"{w}/twoblock.json"]),
        ("measures", ["measures", "--which", "ef,er,neg", "--state", f"{w}/q2.json"]),
        ("measures", ["measures", "--which", "er,neg", "--state", f"{w}/osc_pair.json"]),
        ("dequantize-check", ["dequantize-check", "--tree", f"{w}/tree.json",
                              "--dist", f"{w}/deq.json", "--n", "2"]),
    ]
    return [
        (label, argv + ["--out", f"{w}/out-{i:02d}.json"])
        for i, (label, argv) in enumerate(cmds)
    ]


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite constant {name} in envelope")


def strict_json(text: str) -> Any:
    """Parse an envelope as strict JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def envelope_facts(doc: Any, path: str = "") -> dict[str, dict]:
    """Facts an envelope must keep, keyed by JSON path.

    ``exact``: values tagged exact; ``passed``: every item's passed flag;
    ``verdicts``: the class verdicts of every classification report.
    """
    facts: dict[str, dict] = {"exact": {}, "passed": {}, "verdicts": {}}
    if isinstance(doc, dict):
        if doc.get("kind") == "exact" and isinstance(doc.get("value"), (int, float)):
            facts["exact"][f"{path}/value"] = float(doc["value"])
        if isinstance(doc.get("passed"), bool):
            facts["passed"][f"{path}/passed"] = doc["passed"]
        if all(name in doc for name in VERDICTS):
            for name in VERDICTS:
                facts["verdicts"][f"{path}/{name}"] = doc[name]
        children = doc.items()
    elif isinstance(doc, list):
        children = ((str(i), v) for i, v in enumerate(doc))
    else:
        children = ()
    for key, value in children:
        for kind, found in envelope_facts(value, f"{path}/{key}").items():
            facts[kind].update(found)
    return facts


def session_summary(code: int, text: str | None) -> dict:
    facts = envelope_facts(strict_json(text)) if text is not None else {}
    return {"exit": code, **facts}


def check_session_command(code: int, text: str | None, ref: dict) -> list[str]:
    """Exit code, strict JSON, and the reference's exact values, passed
    flags and decisive verdicts; an inconclusive verdict may resolve."""
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit code {code} != reference {ref['exit']}")
    if text is None:
        return problems + ["no envelope written"]
    try:
        facts = envelope_facts(strict_json(text))
    except ValueError as exc:
        return problems + [f"envelope is not strict JSON: {exc}"]
    for path, want in ref["exact"].items():
        got = facts["exact"].get(path)
        if got is None:
            problems.append(f"{path}: no longer tagged exact")
        elif abs(got - want) > VALUE_TOL:
            problems.append(f"{path}: {got} != reference {want}")
    for path, want in ref["passed"].items():
        if facts["passed"].get(path) != want:
            problems.append(f"{path}: passed {facts['passed'].get(path)} != reference {want}")
    for path, want in ref["verdicts"].items():
        if want != "inconclusive" and facts["verdicts"].get(path) != want:
            problems.append(f"{path}: {facts['verdicts'].get(path)} != reference {want}")
    return problems


def run_cli(argv: list[str]) -> tuple[int, str | None]:
    code = cli.run(argv)
    out = Path(argv[argv.index("--out") + 1])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, text


class CliSession(Workload):
    """What a user types: every command, in process, files in and out."""

    name = "cli-session"
    traced_rounds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.ref = load_ref(self.name)
        self.pool_index = int(
            np.random.default_rng([seed, 4]).integers(len(self.ref["pool"]))
        )
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        write_cli_inputs(self.workdir, self.pool_index, seed)
        self.rounds = [[
            Item(label, i, argv)
            for i, (label, argv) in enumerate(cli_session_commands(self.workdir))
        ]]

    def warmup_items(self) -> list[Item]:
        """One command per kind of input: none, a pmf, a pmf with phases,
        a state, a tree."""
        by_label = {it.family: it for it in self.rounds[0]}
        return [by_label[k] for k in
                ("reproduce-thm6a", "classify", "embed", "measures", "dequantize-check")]

    def run(self, item: Item):
        return run_cli(item.data)

    def check(self, item: Item, out) -> list[str]:
        ref = self.ref["fixed"].get(str(item.key))
        if ref is None:
            ref = self.ref["pool"][self.pool_index][str(item.key)]
        return check_session_command(*out, ref)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# dequantize-trees


# Per round: n = 2 trees, whose output state sits at the 256-dim rho_dim
# cap, then n = 1 trees with 2 or 4 rounds, as in criterion 5.
DEQUANTIZE_N2_PER_ROUND = 3
DEQUANTIZE_N1_PER_ROUND = 2


class DequantizeTrees(Workload):
    """Quantum tree protocols against their dequantized classical twins."""

    name = "dequantize-trees"
    families = ("n=1", "n=2")
    rounds_built = 48
    traced_rounds = 8

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 5])
        self.rounds = []
        for _ in range(self.rounds_built):
            items = []
            shapes = (
                [(2, 2)] * DEQUANTIZE_N2_PER_ROUND
                + [(1, int(rng.choice((2, 4)))) for _ in range(DEQUANTIZE_N1_PER_ROUND)]
            )
            for n, rounds in shapes:
                p = rng.random((2, 2, 2))
                d = sf.Dist3(p / p.sum())
                tree = sf.random_instrument_tree(
                    2**n, 2**n, rounds=rounds, outcomes=2,
                    kraus_each=int(rng.integers(1, 3)), rng=rng,
                )
                items.append(Item(f"n={n}", rounds, (tree, d, n)))
            self.rounds.append(items)

    def run(self, item: Item):
        tree, d, n = item.data
        return sf.verify_equivalence(tree, d, n=n)

    def check(self, item: Item, out) -> list[str]:
        if not (math.isfinite(out) and out <= DEQUANTIZE_TOL):
            return [f"deviation {out:.3e} > {DEQUANTIZE_TOL}"]
        return []


WORKLOADS = ("classify-corpus", "formation-2q", "cli-session", "dequantize-trees")


def build(name: str, seed: int, workdir: Path):
    """Set-up: construct a workload's inputs from its seed."""
    if name == "classify-corpus":
        return ClassifyCorpus(seed)
    if name == "formation-2q":
        return Formation2Q(seed)
    if name == "cli-session":
        return CliSession(seed, workdir)
    if name == "dequantize-trees":
        return DequantizeTrees(seed)
    raise ValueError(f"unknown workload {name!r}")
