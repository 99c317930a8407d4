"""Regression corpus: frozen sha256 digests of solver output, per degree.

A regression check, not ground truth.  The digests pin what the engine
printed when they were frozen, so an optimisation that changes any entry,
label or ordering of `canonical_basis(h, m).to_json()` or
`reduced_matrix(h, m).to_json()` fails here with the first bad degree.
Ground truth stays with the paper fixtures and the uniqueness of the
canonical basis (Lascoux-Leclerc-Thibon).

`python tests/test_corpus.py` rewrites corpus_digests.json.  It refuses
unless the fast route and the independent vacuum ("slow") route give the
same digest at every degree.

The replay tests run every command that perfbench/freeze.py freezes, at
every benchmark size, through the CLI in this process, and compare its exit
code and stdout digest with perfbench/expected.json (rewritten only by
freeze.py).  They load perfbench's modules by path.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spinfock.canonical import CanonicalBasis
from spinfock.cli import main
from spinfock.modular import ReducedMatrix

CORPUS = Path(__file__).resolve().parent / "corpus_digests.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GRID = {3: 26, 5: 24, 7: 24, 9: 24}             # h -> largest degree


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(h: int, max_m: int, fast: bool = True) -> dict:
    """{"m": {"canonical": sha256, "reduced": sha256}} for m = 0..max_m."""
    solver = CanonicalBasis(h, fast=fast)
    return {str(m): {"canonical": _digest(solver.matrix(m).to_json()),
                     "reduced": _digest(
                         ReducedMatrix.of(solver.matrix(m)).to_json())}
            for m in range(max_m + 1)}


@pytest.mark.parametrize("h", sorted(GRID))
def test_digests_match_corpus(h):
    frozen = json.loads(CORPUS.read_text())[str(h)]
    got = digests(h, GRID[h])
    assert len(frozen) == GRID[h] + 1
    bad = [m for m in frozen if got[m] != frozen[m]]
    assert not bad, f"h={h}: output changed at degrees {bad}"


@pytest.mark.parametrize("h", sorted(GRID))
def test_writer_matches_to_json(h):
    # the CLI's packed JSON writer against its specification, to_json,
    # at every degree of the corpus (m = 0 and its [] label included)
    solver = CanonicalBasis(h)
    for m in range(GRID[h] + 1):
        M = solver.matrix(m)
        spec = json.dumps(M.to_json(), indent=2) + "\n"
        assert "".join(M.json_chunks()) == spec, f"h={h} m={m}"


def _load(name):
    """perfbench/<name>.py as module `name`, the name freeze.py imports run by."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run, freeze = _load("run"), _load("freeze")
FROZEN = json.loads(run.EXPECTED.read_text())["commands"]
REPLAYS = [(size, argv) for size in run.SIZES
           for argv in freeze.all_commands(size)]


@pytest.mark.parametrize("size, argv", REPLAYS, ids=[
    f"{size}:{' '.join(argv)}" for size, argv in REPLAYS])
def test_replay_matches_frozen_output(size, argv, capsys):
    # as child.py runs it for the benchmark, but in this process
    code = main(argv)
    out, err = capsys.readouterr()
    want = FROZEN[run.expectation_key(argv)]
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (
        want["exit"], want["sha256"], "")


def test_replay_covers_every_frozen_key():
    assert {run.expectation_key(argv) for _, argv in REPLAYS} == set(FROZEN)


if __name__ == "__main__":
    corpus = {}
    for h, max_m in sorted(GRID.items()):
        fast = digests(h, max_m)
        if fast != digests(h, max_m, fast=False):
            raise SystemExit(f"h={h}: fast and slow routes disagree")
        corpus[str(h)] = fast
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
