"""Golden CLI output: byte-identical reports on tests/fixtures/*.

Each case runs one subcommand on one fixture and compares the exit
code, the stdout bytes and the stderr text (which carries the
precondition residuals) against a snapshot under tests/golden/.  A
change to any number in any report, including the low-order bits of a
transform, fails this test.  The low-order bits come from the numpy and
BLAS build, so the snapshots hold for the build they were recorded
with; a different build may need a fresh recording.

To re-record the snapshots after an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from canonica import cli

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

COMMANDS = {
    "classify": ["classify"],
    "canon-star": ["canon", "--star"],
    "canon-star-verify": ["canon", "--star", "--verify"],
    "canon-star-triangular": ["canon", "--star", "--triangular"],
    "canon-congruence": ["canon", "--congruence"],
    "regularize-star": ["regularize", "--star"],
    "regularize-congruence": ["regularize", "--congruence"],
    "compare-star-self": ["compare", "--star"],
    "compare-congruence-self": ["compare", "--congruence"],
    "canon-unitary-h2": ["canon", "--congruence", "--style", "h2"],
    "canon-unitary-real-orthogonal": [
        "canon", "--congruence", "--style", "real_orthogonal"
    ],
    "canon-unitary-hermitian-unitary": [
        "canon", "--congruence", "--style", "hermitian_unitary"
    ],
}

CASES = [
    (fixture.stem, slug)
    for fixture in sorted(FIXTURES.glob("*.json"))
    for slug in COMMANDS
]


def _snapshot_path(stem: str, slug: str) -> Path:
    return GOLDEN / f"{stem}.{slug}.json"


def _run(stem: str, slug: str) -> dict:
    path = str(FIXTURES / f"{stem}.json")
    argv = COMMANDS[slug] + [path]
    if slug.endswith("-self"):
        argv.append(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("stem,slug", CASES, ids=[f"{s}.{c}" for s, c in CASES])
def test_cli_output_matches_snapshot(stem, slug):
    expected = json.loads(_snapshot_path(stem, slug).read_text())
    got = _run(stem, slug)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]


def test_every_case_has_a_snapshot():
    recorded = {p.name for p in GOLDEN.glob("*.json")}
    assert recorded == {_snapshot_path(s, c).name for s, c in CASES}


def _write_snapshots() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem, slug in CASES:
        text = json.dumps(_run(stem, slug), indent=1, sort_keys=True) + "\n"
        _snapshot_path(stem, slug).write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    _write_snapshots()
