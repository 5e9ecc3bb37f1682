"""Command-line surface: envelopes, exit codes, determinism."""

import ast
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import secrecy_forge
from secrecy_forge import cli, config, keyrates
from secrecy_forge.dequantize import random_instrument_tree
from secrecy_forge.distributions import Dist3
from secrecy_forge.embeddings import embed_qqq
from secrecy_forge.entanglement import rel_ent_upper
from secrecy_forge.io import (
    dump_dist,
    dump_json,
    dump_state,
    dump_tree,
    sha256_file,
)
from secrecy_forge.keyrates import (
    binary_eve_family,
    one_sided_coherence_example,
    two_block_uniform_example,
)
from secrecy_forge.qlinalg import PureState, QState, partial_trace


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = {}

    d = two_block_uniform_example()
    out["dist"] = str(root / "dist.json")
    dump_json(dump_dist(d), out["dist"])

    lemma_d, lemma_phi = one_sided_coherence_example()
    out["lemma_dist"] = str(root / "lemma_dist.json")
    dump_json(dump_dist(lemma_d), out["lemma_dist"])
    out["phases"] = str(root / "phases.json")
    dump_json(lemma_phi.to_json(), out["phases"])

    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2)).density()
    out["state"] = str(root / "bell.json")
    dump_json(dump_state(bell), out["state"])

    out["small_dist"] = str(root / "small_dist.json")
    dump_json(dump_dist(binary_eve_family(0.25)), out["small_dist"])

    tree = random_instrument_tree(2, 2, rounds=2, outcomes=2,
                                  rng=np.random.default_rng(7))
    out["tree"] = str(root / "tree.json")
    dump_json(dump_tree(tree), out["tree"])
    return out


def run_json(capsys, argv):
    code = cli.run(argv)
    text = capsys.readouterr().out
    return code, (json.loads(text) if text else None)


class TestEnvelope:
    def test_common_fields(self, capsys, files):
        code, doc = run_json(capsys, ["classify", "--dist", files["dist"],
                                      "--seed", "5"])
        assert code == 0
        assert set(doc) == {"version", "command", "seed", "tolerances",
                            "inputs", "result"}
        assert doc["command"] == "classify"
        assert doc["seed"] == 5
        assert doc["inputs"]["dist"]["sha256"] == sha256_file(files["dist"])
        assert doc["tolerances"]["equality"] == 1e-9

    def test_tolerance_override_is_echoed(self, capsys, files):
        code, doc = run_json(capsys, ["classify", "--dist", files["dist"],
                                      "--tol.entropy", "1e-7"])
        assert code == 0
        assert doc["tolerances"]["entropy"] == 1e-7

    def test_byte_determinism(self, capsys, files):
        argv = ["chain", "--dist", files["dist"], "--seed", "3"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_flag_writes_file_and_silences_stdout(self, tmp_path, capsys,
                                                      files):
        target = tmp_path / "report.json"
        code = cli.run(["keyrate", "--dist", files["dist"],
                        "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["result"]["value"] == 1.0

    def test_readme_envelope_is_what_keyrate_prints(self, capsys, tmp_path,
                                                    monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        head = readme.index("A typical envelope")
        start = readme.index("```json\n", head) + len("```json\n")
        block = readme[start:readme.index("```\n", start)]
        monkeypatch.chdir(tmp_path)
        dump_json(dump_dist(two_block_uniform_example()), "dist.json")
        assert cli.run(["keyrate", "--dist", "dist.json"]) == 0
        assert capsys.readouterr().out == block


class TestParserReuse:
    # one parser serves every run in a process; nothing may carry over
    def test_seed_falls_back_to_its_default(self, capsys, files):
        argv = ["keyrate", "--dist", files["dist"]]
        assert run_json(capsys, [*argv, "--seed", "7"])[1]["seed"] == 7
        assert run_json(capsys, argv)[1]["seed"] == 0

    def test_a_usage_exit_leaves_the_parser_as_new(self, capsys, files):
        argv = ["embed", "--dist", files["lemma_dist"],
                "--phases", files["phases"], "--kind", "qqq"]
        with pytest.raises(SystemExit) as info:
            cli.run([*argv[:-1], "qq"])
        assert info.value.code == 2
        assert cli.run(argv) == 0
        reused = capsys.readouterr().out
        cli._parser.cache_clear()
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == reused

    def test_tolerance_override_ends_with_its_run(self, capsys, files):
        argv = ["classify", "--dist", files["dist"]]
        doc = run_json(capsys, [*argv, "--tol.entropy", "1e-7"])[1]
        assert doc["tolerances"]["entropy"] == 1e-7
        doc = run_json(capsys, argv)[1]
        assert doc["tolerances"] == config.default_tolerances()


class TestCommands:
    def test_classify_statuses(self, capsys, files):
        code, doc = run_json(capsys, ["classify", "--dist", files["dist"]])
        assert code == 0
        assert doc["result"]["ubi"] == "yes"

    def test_commoninfo(self, capsys, files):
        code, doc = run_json(capsys, ["commoninfo", "--dist", files["dist"]])
        assert code == 0
        assert doc["result"]["cond_common_entropy"] == 1.0

    def test_keyrate(self, capsys, files):
        code, doc = run_json(capsys, ["keyrate", "--dist", files["dist"]])
        assert code == 0
        assert doc["result"]["value"] == 1.0
        assert doc["result"]["kind"] == "exact"

    def test_embed_with_phases(self, capsys, files):
        code, doc = run_json(capsys, ["embed", "--dist", files["lemma_dist"],
                                      "--phases", files["phases"],
                                      "--kind", "qqq"])
        assert code == 0
        assert doc["result"]["state"]["dims"] == [4, 4, 3]

    def test_measures(self, capsys, files):
        code, doc = run_json(capsys, ["measures", "--state", files["state"],
                                      "--which", "ef,neg"])
        assert code == 0
        ef, neg = doc["result"]
        assert ef["name"] == "E_F"
        assert ef["value"] == pytest.approx(1.0, abs=1e-9)
        assert neg["value"] == pytest.approx(1.0, abs=1e-9)

    def test_split_pair_state_gets_one_relative_entropy(self, capsys, files,
                                                         tmp_path):
        # the one-sided pair state is three equal-weight ebits on local
        # blocks, so E_r = 1 exactly, whether the state is held in memory,
        # read from a file, or built by `chain` from the pmf and phases files
        d, phases = one_sided_coherence_example()
        pair = partial_trace(embed_qqq(d, phases).density(), (0, 1))
        path = tmp_path / "pair.json"
        dump_json(dump_state(pair), path)
        _, doc = run_json(capsys, ["measures", "--state", str(path),
                                   "--which", "er"])
        _, chain = run_json(capsys, ["chain", "--dist", files["lemma_dist"],
                                     "--phases", files["phases"]])
        results = [rel_ent_upper(pair).to_json(), doc["result"][0],
                   chain["result"]["measures"]["E_r_bound"]]
        assert [r["kind"] for r in results] == ["exact"] * 3
        assert [r["value"] for r in results] == pytest.approx([1.0] * 3, abs=1e-12)

    def test_chain(self, capsys, files):
        code, doc = run_json(capsys, ["chain", "--dist", files["dist"]])
        assert code == 0
        assert doc["result"]["all_passed"] is True

    def test_dequantize_check(self, capsys, files):
        code, doc = run_json(capsys, ["dequantize-check",
                                      "--tree", files["tree"],
                                      "--dist", files["small_dist"]])
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["max_deviation"] <= 1e-9

    def test_dequantize_check_dims_mismatch_is_usage(self, capsys, files):
        # 2x2 tree against the 4x4x2 distribution: input mismatch, not failure
        assert cli.run(["dequantize-check", "--tree", files["tree"],
                        "--dist", files["dist"]]) == 2


class TestToleranceRouting:
    def test_entropy_tolerance_reaches_chain_classification(
        self, capsys, files, monkeypatch
    ):
        seen = []
        real = keyrates.classify

        def spy(d, tol, *args, **kwargs):
            seen.append(tol)
            return real(d, tol, *args, **kwargs)

        monkeypatch.setattr(keyrates, "classify", spy)
        code, doc = run_json(capsys, ["chain", "--dist", files["dist"],
                                      "--tol.entropy", "1e-7",
                                      "--tol.equality", "1e-5"])
        assert code == 0
        assert seen == [1e-7]
        assert doc["result"]["classification"]["tolerances"]["entropy"] == 1e-7

    @pytest.mark.parametrize("argv", [
        ["chain", "--dist", "dist"],
        ["reproduce", "thm6b"],
        ["measures", "--state", "state", "--which", "er"],
    ])
    def test_entropy_tolerance_reaches_rel_ent_bracket(self, capsys, files,
                                                       monkeypatch, argv):
        seen = []
        real = keyrates.rel_ent_upper

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(keyrates, "rel_ent_upper", spy)
        monkeypatch.setattr(cli, "rel_ent_upper", spy)
        argv = [files.get(a, a) for a in argv]
        code, _ = run_json(capsys, argv + ["--tol.entropy", "1e-7",
                                           "--tol.equality", "1e-5"])
        assert code == 0
        assert seen == [1e-7]

    @pytest.mark.parametrize("example, report_path", [
        ("thm6b", ("advantage", "classification")),
        ("thm7d", ("chain", "classification")),
        ("table2", ("chain", "classification")),
    ])
    def test_entropy_tolerance_reaches_examples(self, capsys, example,
                                                report_path):
        code, doc = run_json(capsys, ["reproduce", example,
                                      "--tol.entropy", "1e-7",
                                      "--tol.equality", "1e-5"])
        assert code == 0
        report = doc["result"]
        for key in report_path:
            report = report[key]
        assert report["tolerances"]["entropy"] == 1e-7

    def test_support_tolerance_reaches_thm7d_key_rate(self, capsys,
                                                      monkeypatch):
        # thm7d's K_D is kd_class on the chain's report, which then reads
        # the report's support tolerance
        seen = []
        real = keyrates.kd_class

        def spy(d, report=None, *args, **kwargs):
            seen.append(report.tolerances["support"])
            return real(d, report, *args, **kwargs)

        monkeypatch.setattr(keyrates, "kd_class", spy)
        assert cli.run(["reproduce", "thm7d", "--tol.support", "1e-10"]) == 0
        assert seen == [1e-10]

    def test_tolerances_reach_table1_advantage_reports(self, capsys,
                                                       monkeypatch):
        seen = []
        real = cli.advantage_report

        def spy(*args, **kwargs):
            seen.append((kwargs.get("tol"), kwargs.get("support_eps")))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "advantage_report", spy)
        cli.run(["reproduce", "table1", "--tol.entropy", "1e-7",
                 "--tol.support", "1e-7"])
        assert seen == [(1e-7, 1e-7), (1e-7, 1e-7)]


# One command per --tol.<name>, with an override that must change what the
# command computes: a verdict, a value or the exit code.
ROUTING_CASES = {
    # a correlated-Eve pmf that is not block independent at 1e-9 bits
    "entropy": (["classify", "--dist", "not_bi"], "10"),
    # the 1e-6 cross entry merges the two blocks unless it counts as zero
    "support": (["commoninfo", "--dist", "faint_link"], "1e-5"),
    "chain": (["reproduce", "thm7d"], "1e-30"),
    "equality": (["dequantize-check", "--tree", "tree", "--dist", "small_dist"],
                 "1e-30"),
}


def _without_tolerances(doc):
    """The envelope minus every echoed ``tolerances`` object."""
    if isinstance(doc, dict):
        return {k: _without_tolerances(v) for k, v in doc.items()
                if k != "tolerances"}
    if isinstance(doc, list):
        return [_without_tolerances(v) for v in doc]
    return doc


@pytest.mark.parametrize("name", sorted(ROUTING_CASES))
def test_every_tolerance_override_changes_the_result(capsys, files, tmp_path,
                                                     name):
    assert set(ROUTING_CASES) == set(config.default_tolerances())
    p = np.zeros((2, 2, 2))
    p[0, 0, 0], p[1, 1, 0], p[0, 1, 1], p[1, 0, 1] = 0.4, 0.1, 0.3, 0.2
    dump_json(dump_dist(Dist3(p)), tmp_path / "not_bi.json")
    p = np.zeros((2, 2, 1))
    p[0, 0, 0], p[1, 1, 0], p[0, 1, 0] = 0.5 - 1e-6, 0.5, 1e-6
    dump_json(dump_dist(Dist3(p)), tmp_path / "faint_link.json")
    paths = {**files, "not_bi": str(tmp_path / "not_bi.json"),
             "faint_link": str(tmp_path / "faint_link.json")}
    argv, value = ROUTING_CASES[name]
    argv = [paths.get(a, a) for a in argv]
    code, doc = run_json(capsys, argv)
    code_tol, doc_tol = run_json(capsys, argv + [f"--tol.{name}", value])
    assert doc_tol["tolerances"][name] == float(value)
    assert (code, _without_tolerances(doc)) != (code_tol, _without_tolerances(doc_tol))


def test_validation_tolerance_is_unknown(capsys, files):
    # pmf validation is fixed; an override that nothing applies is refused
    assert cli.run(["classify", "--dist", files["dist"],
                    "--tol.validation", "1e-6"]) == 2
    assert "unknown tolerance 'validation'" in capsys.readouterr().err


class TestReproduce:
    def test_lemma(self, capsys, files):
        code, doc = run_json(capsys, ["reproduce", "lemma"])
        assert code == 0
        names = {item["name"] for item in doc["result"]["items"]}
        assert {"rate_qqq", "rate_cqq", "rate_ccq"} <= names \
            or any("qqq" in n for n in names)
        assert all(item["passed"] for item in doc["result"]["items"])

    def test_family_parameter(self, capsys, files):
        code, doc = run_json(capsys, ["reproduce", "thm6a",
                                      "--lambda", "0.1"])
        assert code == 0
        assert all(item["passed"] for item in doc["result"]["items"])

    def test_notes_flag_shorthand_discrepancy(self, capsys, files):
        code, doc = run_json(capsys, ["reproduce", "thm6b"])
        assert code == 0
        assert doc["result"]["notes"]
        assert any("1 - h(1/3)" in note for note in doc["result"]["notes"])

    def test_thm6b_quantum_interval_is_ordered(self, capsys):
        # rho_AB is pure, so the quantum side is pinned at E_r's exact value,
        # the entropy of entanglement, and is its own interval
        code, doc = run_json(capsys, ["reproduce", "thm6b"])
        assert code == 0
        adv = doc["result"]["advantage"]
        lo, hi = adv["quantum_interval"]
        assert lo <= hi
        assert lo == hi == adv["quantum_value"] == adv["measures"]["E_r_bound"]["value"]

    def test_unpinned_quantum_rate_is_null_and_fails(self, capsys,
                                                     monkeypatch):
        real = cli.advantage_report

        def unpinned(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), quantum_value=None)

        def reject(token):
            raise AssertionError(f"non-JSON constant {token}")

        monkeypatch.setattr(cli, "advantage_report", unpinned)
        assert cli.run(["reproduce", "thm6b"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        items = {item["name"]: item for item in doc["result"]["items"]}
        for name in ("quantum_rate", "gap_positive"):
            assert items[name]["value"] is None
            assert items[name]["passed"] is False

    def test_formation_note_states_the_closed_form(self, capsys):
        code, doc = run_json(capsys, ["reproduce", "thm6a"])
        assert code == 0
        assert doc["result"]["notes"] == [cli.NOTE_EF_FORMULA]
        assert "negative radicand" not in cli.NOTE_EF_FORMULA
        # the note's closed form, evaluated here, against the reported value
        lam = doc["result"]["lambda"]
        c = 0.5 + math.sqrt(lam * (1 - lam))
        x = (1 + math.sqrt(1 - c * c)) / 2
        closed = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert doc["result"]["eof_ab"] == pytest.approx(closed, abs=1e-11)

    def test_lambda_restricted_to_family_id(self, capsys, files):
        assert cli.run(["reproduce", "thm7d", "--lambda", "0.3"]) == 2

    def test_tables_run(self, capsys, files):
        for table in ("table1", "table2"):
            code, doc = run_json(capsys, ["reproduce", table])
            assert code == 0
            assert all(item["passed"] for item in doc["result"]["items"])


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        assert cli.run(["classify", "--dist", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.json", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, where,
                                             reason):
        target = tmp_path / where
        assert cli.run(["reproduce", "lemma", "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {target}: {reason}\n"

    def test_unknown_measure_name(self, capsys, files):
        assert cli.run(["measures", "--state", files["state"],
                        "--which", "ef,bogus"]) == 2

    def test_squashed_bound_needs_three_parties(self, capsys, files):
        assert cli.run(["measures", "--state", files["state"],
                        "--which", "esq"]) == 2

    def test_diagonal_embedding_rejects_phases(self, capsys, files):
        assert cli.run(["embed", "--dist", files["lemma_dist"],
                        "--phases", files["phases"], "--kind", "ccc"]) == 2

    def test_duplicate_phase_entry(self, capsys, files, tmp_path):
        path = tmp_path / "phi.json"
        entry = {"x": 0, "y": 0, "z": 0, "phi": 1.0}
        dump_json({"entries": [entry, {**entry, "phi": 2.0}]}, path)
        assert cli.run(["embed", "--dist", files["lemma_dist"],
                        "--phases", str(path), "--kind", "qqq"]) == 2
        assert "duplicate phase entry at (0, 0, 0)" in capsys.readouterr().err

    def test_unknown_tolerance_name(self, capsys, files):
        assert cli.run(["classify", "--dist", files["dist"],
                        "--tol.bogus", "1e-9"]) == 2

    def test_non_positive_tolerance(self, capsys, files):
        assert cli.run(["classify", "--dist", files["dist"],
                        "--tol.entropy", "0"]) == 2

    def test_jobs_is_an_unknown_argument(self, capsys, files):
        with pytest.raises(SystemExit) as info:
            cli.run(["classify", "--dist", files["dist"], "--jobs", "1"])
        assert info.value.code == 2

    def test_property_failure_is_exit_one(self, capsys, files):
        assert cli.run(["dequantize-check", "--tree", files["tree"],
                        "--dist", files["small_dist"],
                        "--tol.equality", "1e-30"]) == 1

    def test_chain_tolerance_reaches_every_check_on_a_bound(self, capsys):
        # Every thm7d check compares two values that are exactly 1, so its
        # exit code rests on rounding residues and is not asserted.  The
        # override shows in the tolerance of each check against a value not
        # tagged exact; the extension check keeps its fixed band.
        code, doc = run_json(capsys, ["reproduce", "thm7d", "--tol.chain", "1e-30"])
        assert code in (0, 1)
        chain = doc["result"]["chain"]
        on_bounds = [
            c for c in chain["checks"]
            if c["name"] != "key_rate_vs_extension_bound"
            and chain["measures"].get(c["rhs"]["name"], {}).get("kind") != "exact"
        ]
        assert [c["name"] for c in on_bounds] == [
            "equality_band_E_sq_bound", "equality_band_H_J_given_Z"]
        assert all(c["tol"] == 1e-30 for c in on_bounds)

    def test_optimizer_cap_refusal_is_usage(self, capsys, tmp_path):
        # a full-rank 5x4 state: its E_r bracket is open and 20 > 16
        g = np.random.default_rng(0).standard_normal((20, 20, 2)) @ [1, 1j]
        rho = g @ g.conj().T
        path = tmp_path / "wide.json"
        dump_json(dump_state(QState(rho / np.trace(rho).real, (5, 4))), path)
        assert cli.run(["measures", "--state", str(path), "--which", "er"]) == 2
        assert "dimension 20 exceeds optimizer cap 16" in capsys.readouterr().err

    def test_chain_optimizer_cap_refusal_is_usage(self, capsys, tmp_path):
        # a full-rank 5x4x3 pmf: rho_AB has rank 3, so neither E_r's bracket
        # nor a local-block split answers, and the optimizers refuse 20 > 16
        # with the same exit code as in measures
        path = tmp_path / "wide.json"
        p = np.random.default_rng(0).random((5, 4, 3))
        dump_json(dump_dist(Dist3(p / p.sum())), path)
        assert cli.run(["chain", "--dist", str(path)]) == 2
        assert "dimension 20 exceeds optimizer cap 16" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, msg", [
        ([100, 100, 1], "density operator dimension 10000 > cap 256"),
        ([16, 16, 32], "|X||Y||Z| = 8192 > cap 4096"),
    ])
    def test_chain_refuses_an_oversized_dense_pmf(self, capsys, tmp_path, dims, msg):
        # a dense 'p' file has no cap of its own; chain refuses it before it
        # builds rho_AB (a 10000-dim one is 1.6 GB) or the extension blocks,
        # and a size-cap refusal is bad input (exit 2)
        path = tmp_path / "big.json"
        dump_json({"dims": dims, "p": np.full(dims, 1.0 / math.prod(dims)).tolist()}, path)
        tracemalloc.start()
        try:
            code = cli.run(["chain", "--dist", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert msg in capsys.readouterr().err
        assert peak < 32 * 2**20

    def test_sparse_dims_past_the_cap_are_usage(self, capsys, tmp_path):
        # the declared dims alone would ask numpy for 7 PiB
        path = tmp_path / "huge.json"
        dump_json({"dims": [100000] * 3, "entries": []}, path)
        assert cli.run(["classify", "--dist", str(path)]) == 2
        assert "cap is 4096" in capsys.readouterr().err

    def test_tree_dims_past_the_cap_are_usage(self, capsys, files, tmp_path,
                                              monkeypatch):
        # a valid 17x1 tree, refused before its Kraus operators are read
        monkeypatch.setenv("SECRECY_FORGE_CAPS", '{"product_states": 16}')
        path = tmp_path / "wide.json"
        dump_json({"rounds": 0, "dim_a": 17, "dim_b": 1, "nodes": {},
                   "leaf_a": {"": [{"re": np.eye(17)}]},
                   "leaf_b": {"": [{"re": [[1.0]]}]}}, path)
        assert cli.run(["dequantize-check", "--tree", str(path),
                        "--dist", files["small_dist"]]) == 2
        assert "cap is 16" in capsys.readouterr().err

    @pytest.mark.parametrize("dim_a, nodes, hist", [
        # eight 1x8 leaf rows on an 8-dim Alice
        (8, {}, ""),
        # a 2-dim Alice whose node is the isometry C^2 -> C^8
        (2, {"": [[{"re": np.eye(8)[:, :2]}]], "0": [[{"re": [[1.0]]}]]}, "0,0"),
    ], ids=["party", "node-output"])
    def test_tree_density_matrices_past_rho_dim_are_usage(
            self, capsys, tmp_path, monkeypatch, dim_a, nodes, hist):
        # every output law is 1-dim, so only the party or node dimension
        # says how large a density matrix the simulation builds
        tree, dist = tmp_path / "tree.json", tmp_path / "dist.json"
        dump_json({"rounds": len(nodes), "dim_a": dim_a, "dim_b": 1, "nodes": nodes,
                   "leaf_a": {hist: [{"re": row[None]} for row in np.eye(8)]},
                   "leaf_b": {hist: [{"re": [[1.0]]}]}}, tree)
        dump_json({"dims": [dim_a, 1, 1], "p": np.full((dim_a, 1, 1), 1 / dim_a)}, dist)
        argv = ["dequantize-check", "--tree", str(tree), "--dist", str(dist)]
        assert cli.run(argv + ["--out", str(tmp_path / "out.json")]) == 0
        monkeypatch.setenv("SECRECY_FORGE_CAPS", '{"rho_dim": 4}')
        assert cli.run(argv) == 2
        assert "tree density matrix dimension 8, cap is 4" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.run(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["classify", "--dist", "dist"],
        ["commoninfo", "--dist", "dist"],
        ["keyrate", "--dist", "dist"],
        ["embed", "--dist", "lemma_dist", "--kind", "qqq"],
        ["measures", "--state", "state", "--which", "neg"],
        ["chain", "--dist", "dist"],
        ["dequantize-check", "--tree", "tree", "--dist", "small_dist"],
        ["reproduce", "thm6a"],
        ["reproduce", "thm7d"],
        ["reproduce", "table1"],
        ["reproduce", "table2"],
    ], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
    def test_negative_seed_is_usage(self, capsys, files, argv):
        # numpy's generators refuse negative seeds; the parser refuses
        # them for every command, not only those that draw numbers
        argv = [files.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as info:
            cli.run(argv + ["--seed", "-1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err


def _package_modules() -> list:
    return [secrecy_forge] + [
        importlib.import_module(f"secrecy_forge.{info.name}")
        for info in pkgutil.iter_modules(secrecy_forge.__path__)
    ]


def test_every_exported_name_resolves():
    for mod in _package_modules():
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_only_classify_reads_certificates():
    # the certificate format is classify's own: other modules take the
    # objects a ClassReport carries (ccf, down), not its JSON
    src = Path(secrecy_forge.__file__).parent
    readers = sorted(
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "certificates"
    )
    assert set(readers) <= {"classify.py"}, readers


def test_only_classify_reads_the_channel_set():
    # the channels Eve's symbol is degraded through are enumerated, and d
    # degraded through them, in one place, which both the UBI-PD-down
    # search and the key-rate ceiling use
    names = {"_set_partitions", "CHANNEL_BUDGET", "_channel_table"}
    src = Path(secrecy_forge.__file__).parent
    readers = sorted(
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.alias) and node.name in names)
    )
    assert set(readers) <= {"classify.py"}, readers


def test_only_io_write_file_writes_files():
    # one writer rewrites an existing file in place; a second write path
    # (write_text, write_bytes, os.open, or open in a writing mode) would
    # bring back open(path, "w")'s truncation to length 0
    def writes(call):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("write_text", "write_bytes", "fdopen") or (
                name == "open" and isinstance(func, ast.Attribute)
                and getattr(func.value, "id", "") == "os"):
            return True
        if name != "open":
            return False
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    call.args[1] if len(call.args) > 1 else ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))

    def writers(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        found = {where} if isinstance(node, ast.Call) and writes(node) else set()
        for child in ast.iter_child_nodes(node):
            found |= writers(child, where)
        return found

    src = Path(secrecy_forge.__file__).parent
    found = {f"{path.stem}.{where}"
             for path in sorted(src.glob("*.py"))
             for where in writers(ast.parse(path.read_text(encoding="utf-8")), "<module>")}
    assert found == {"io.write_file"}


def test_every_import_is_read():
    # names listed in __all__ count as read: they are re-exported
    src = Path(secrecy_forge.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
        assert not imported - read, (path.name, sorted(imported - read))


def test_every_module_constant_is_read():
    # an UPPER_CASE name assigned at module level must be loaded somewhere
    # in the package, as a name or as an attribute; a threshold that
    # nothing reads any more is dead policy
    src = Path(secrecy_forge.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    defined = {
        (name, target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name)
        and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }
    assert defined
    unread = sorted(f"{name}:{const}" for name, const in defined
                    if const not in read)
    assert not unread, unread


def test_every_exported_name_has_a_caller():
    # a name in __all__ must be read by another module of the package, by
    # the benchmark or by the scripts, or be written in backticks in README;
    # reads inside the name's own module, the package's re-exports and reads
    # by tests do not count
    root = Path(secrecy_forge.__file__).parents[2]
    reads = {
        path: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)
        }
        for folder in ("src", "bench", "scripts")
        for path in (root / folder).rglob("*.py")
    }
    readme = (root / "README.md").read_text(encoding="utf-8")
    documented = {word for span in re.findall(r"`([^`\n]+)`", readme)
                  for word in re.findall(r"\w+", span)}
    init = Path(secrecy_forge.__file__)
    unread = [
        f"{mod.__name__}.{name}"
        for mod in _package_modules()
        for name in getattr(mod, "__all__", ())
        if name not in documented
        and not any(name in names for path, names in reads.items()
                    if path not in (init, Path(mod.__file__)))
    ]
    assert not unread, unread
