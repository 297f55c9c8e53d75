"""Report bytes and exit codes of the fixture ops, pinned by digest.

`report_digests.json` holds, for each op, the sha256 of its stdout and
its exit code.  Optimisations must leave every report byte unchanged, so
this test fails on any change to a verdict, a witness or the report
layout.  Ops run in-process with the working directory at `fixtures/`
and relative file names, because reports record paths as given.

Regenerate the digests (only for a deliberate, documented report change):

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

AUTOMATA = (
    "cube_identity",
    "cube_or",
    "cyclic4_identity",
    "cyclic4_or",
    "cyclic4_shift",
    "square_identity",
    "square_or",
    "square_projection",
    "torus_identity",
    "torus_or",
)
NOT_INVARIANT = ("square_projection",)
GLOBAL_MAPS = ("cyclic4_shift_globalmap", "cyclic4_broken_globalmap")
SUITES = (
    "coordinate-independence",
    "equivalence",
    "determination",
    "composition",
    "chl",
    "invertibility",
    "uniformity",
)
SEEDS = (0, 3)


def ops() -> list[tuple[str, ...]]:
    out = []
    for a in AUTOMATA:
        for s in SUITES:
            for seed in SEEDS:
                out.append(("laws", f"{a}.json", "--suite", s, "--seed", str(seed)))
    for a in AUTOMATA:
        if a not in NOT_INVARIANT:
            out.append(("invert", f"{a}.json"))
            out.append(("compose", f"{a}.json", f"{a}.json"))
    for g in GLOBAL_MAPS:
        out.append(("extract", f"{g}.json"))
    for f in sorted(FIXTURES.glob("*.json")):
        out.append(("validate", f.name))
    return out


def digest(argv: tuple[str, ...]) -> dict:
    """Run one op from inside fixtures/ and digest what it printed."""
    from homoca.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(), "exit": code}


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def test_the_digest_file_covers_every_op():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_key(a) for a in ops())


@pytest.mark.parametrize("argv", ops(), ids=_key)
def test_report_bytes_and_exit_code_are_unchanged(argv):
    expected = json.loads(DIGESTS.read_text())[_key(argv)]
    assert digest(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {_key(a): digest(a) for a in ops()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
