"""Ops keep nothing from one another.

What an op decides once it keeps on the objects it loads: an automaton's
global table and its rotation verdicts live on the automaton, and none
at module level.  So an op's report cannot depend on the ops run before
it in the same process, as when `homoca.cli.main` is called in-process
one op after another.  This runs every fixture op (each suite on each
automaton fixture, `invert` and `compose`) in one process in two seeded
orders, and compares each op's stdout and exit code with a fresh run's:
that of a child forked, before any op ran, from a process that has
imported `homoca.cli`.

The runs happen in a child interpreter, started as

    PYTHONPATH=src python tests/test_op_isolation.py

which prints, for every op, its fresh outcome and its outcome in each
order, as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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
SUITES = (
    "coordinate-independence",
    "equivalence",
    "determination",
    "composition",
    "chl",
    "invertibility",
    "uniformity",
)
ORDER_SEEDS = (1, 2)


def ops() -> list[list[str]]:
    out = []
    for a in AUTOMATA:
        out.extend(["laws", f"{a}.json", "--suite", s, "--seed", "0"] for s in SUITES)
        out.append(["invert", f"{a}.json"])
        out.append(["compose", f"{a}.json", f"{a}.json"])
    return out


def outcome(argv: list[str]) -> list:
    """The sha256 of what one op printed on stdout, and its exit code."""
    from homoca.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code]


def forked_outcome(argv: list[str]) -> list:
    """outcome(argv) in a child forked from this process."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            os.write(write, json.dumps(outcome(argv)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"fresh run of {argv} ended with status {status}")
    return json.loads(data)


def run_all() -> dict:
    import homoca.cli  # noqa: F401 - the fresh runs fork after the import, before any op

    os.chdir(FIXTURES)
    keys = [" ".join(op) for op in ops()]
    results = {"fresh": {key: forked_outcome(op) for key, op in zip(keys, ops())}}
    for seed in ORDER_SEEDS:
        order = list(zip(keys, ops()))
        random.Random(seed).shuffle(order)
        results[f"order {seed}"] = {key: outcome(op) for key, op in order}
    return results


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fresh runs are forked")
def test_every_op_in_one_process_reports_as_a_fresh_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    fresh = results.pop("fresh")
    assert len(fresh) == len(AUTOMATA) * (len(SUITES) + 2)
    for name, got in results.items():
        differing = sorted(key for key in fresh if got[key] != fresh[key])
        assert not differing, f"{name}: {differing}"


if __name__ == "__main__":
    print(json.dumps(run_all()))
