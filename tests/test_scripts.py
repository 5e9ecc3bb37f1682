"""The experiment scripts under scripts/: their output and their parsers."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from secrecy_forge.cli import run
from secrecy_forge.io import dump_json, sha256_file

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def _run_reproduce_all(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """reproduce_all.py in a fresh interpreter with no PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_all.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _readme_section(title: str) -> list[str]:
    """README's ``## title`` section, heading included, up to the next one."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"## {title}")
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def test_readme_lists_every_script_and_keeps_performance_short():
    # the script list names exactly the files under scripts/ (a bare name or
    # scripts/<name>, not another folder's file); the Performance section
    # tells a user how to measure, and per-change figures go in CHANGES.md
    listed = "\n".join(_readme_section("Experiment scripts"))
    named = set(re.findall(r"(?<![\w/])(?:scripts/)?(\w+\.py)", listed))
    assert named == {path.name for path in SCRIPTS.glob("*.py")}
    assert len(_readme_section("Performance")) < 60


def test_reproduce_all_rejects_a_negative_seed_before_writing(tmp_path):
    res = _run_reproduce_all(["--seed", "-1", "--out-dir", "out"], tmp_path)
    assert res.returncode == 2
    assert "reproduce_all.py: error: argument --seed" in res.stderr
    assert not (tmp_path / "out").exists()


def test_reproduce_all_imports_its_own_checkout(tmp_path):
    res = _run_reproduce_all(["--help"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "--out-dir" in res.stdout


# sha256 of `reproduce lemma --seed 0`'s envelope: the lemma's rates are exact,
# so a refactor of the state layer or of the lemma must not move it by a byte.
LEMMA_SHA256 = "d544630cff6ed7bb1ecb9bb426c7a599e92bedba31b36a2c9cfed50daaaba8af"

# sha256 of every reproduce envelope at --seed 0, so that a change to the
# command line's report plumbing is checked byte for byte.  lemma and table1
# run classify through advantage_report.  One table1 value is a 1.6e-16
# rounding residue, which an equivalent reordering of floating-point sums may
# move: a change that moves only that value re-derives the table1 hash and
# says so.
REPRODUCE_SHA256 = {
    "lemma": LEMMA_SHA256,
    "table1": "b0e976acb6b1a3d1b4c9817bdf609ac4edb18a8ee0498f0d3a1433fcf7cf73e9",
    "thm6a": "f79ff884ea32a719373971f55f1619ec885ea399b49d3e9bd4bf709d229557b4",
    "thm6b": "b9914bdac9ecd446fba89484683feb0c4b1069fae37e91f588a7cc349e24eb42",
    "thm7d": "d2da67aa7511b81101596381dd1a85813a6982a7fc51d188ef550f309c5a367c",
    "table2": "408585f5ed4f912a8b91e01f046a341f2044dae7004322e9d67baeddf675644f",
}


@pytest.mark.parametrize("example", sorted(REPRODUCE_SHA256))
def test_reproduce_envelopes_are_pinned(tmp_path, example):
    target = tmp_path / f"{example}.json"
    assert run(["reproduce", example, "--seed", "0", "--out", str(target)]) == 0
    assert sha256_file(target) == REPRODUCE_SHA256[example]


def test_reproduce_all_is_byte_identical_across_runs(tmp_path):
    # two fresh interpreters at one seed, the second into the first's
    # directory: every envelope and input file the script writes must match
    # byte for byte, and each is rewritten in place, as the same file
    def snapshot():
        res = _run_reproduce_all(["--seed", "0", "--out-dir", "first"], tmp_path)
        assert res.returncode == 0, res.stderr
        return {p.relative_to(tmp_path / "first"): (p.read_bytes(), p.stat().st_ino)
                for p in sorted((tmp_path / "first").rglob("*.json"))}

    before, after = snapshot(), snapshot()
    assert len(before) >= 6 + 16  # six reproduce examples, 16 session envelopes
    assert before.keys() == after.keys()
    assert [name for name in before if before[name] != after[name]] == []
    first = {name: blob for name, (blob, _) in after.items()}
    # the envelopes are json.dumps' text on real data; the session's input
    # files are written compactly by the benchmark, so dump_json renders them
    # again here
    for name, blob in first.items():
        doc = json.loads(blob)
        if name.parent.name == "cli-session" and not name.name.startswith("out-"):
            dump_json(doc, tmp_path / "again.json")
            blob = (tmp_path / "again.json").read_bytes()
        assert blob.decode() == json.dumps(doc, indent=2, sort_keys=True) + "\n", name
