"""The CLI on damaged fixtures: one or two leaves of a bundled file changed
or deleted, then one subcommand run in-process.  Whatever the damage,
the run ends in an exit code the README promises (0 pass, 1 violation,
2 malformed input, 3 bound) and no exception escapes `main`.

HYPOTHESIS_PROFILE=thorough raises the example count.  The damage the
fuzzer has found escaping is pinned below, one test per site: a table
entry past int64, and tables that are not a group action, which exit 2
naming the broken axiom.
"""

import contextlib
import io
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca.cli import EXIT_INPUT, EXIT_VIOLATION, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
# the value a leaf is set to; DELETE removes the key, or the list entry
DELETE = object()
VALUES = (-1, 0, 1, 2, 3, 7, 2**31, 2**63, 10**30, 1.5, True, False, None, "x", [], [[0]], {}, DELETE)


@lru_cache(maxsize=None)
def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


@lru_cache(maxsize=None)
def _leaves(name: str) -> tuple:
    """The path of every leaf of the fixture: a key or index per level."""
    out = []

    def walk(node, path):
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
        if children is None:
            out.append(path)
            return
        for key, child in children:
            walk(child, path + (key,))

    walk(json.loads(_fixture(name)), ())
    return tuple(out)


def _commands(name: str, path: str) -> list[list[str]]:
    """The subcommands that read this kind of file, besides validate."""
    data = json.loads(_fixture(name))
    if "delta" in data:
        points = data["space"]["action"]["points"]
        config = ",".join(["1"] + ["0"] * (points - 1))
        return [
            ["laws", path],
            ["run", path, "--config", config, "--steps", "2"],
            ["invert", path],
            ["compose", path, path],
        ]
    if "table" in data:
        return [["extract", path]]
    return []


def _mutate(data, leaf, value):
    *parents, last = leaf
    for key in parents:
        data = data[key]
    if value is DELETE:
        del data[last]
    else:
        data[last] = value


@st.composite
def damaged_runs(draw, path: str):
    name = draw(st.sampled_from(NAMES))
    data = json.loads(_fixture(name))
    leaves = _leaves(name)
    # the later leaf first, so deleting it cannot shift the other's path
    picked = sorted(
        draw(st.lists(st.integers(0, len(leaves) - 1), min_size=1, max_size=2, unique=True)),
        key=lambda i: leaves[i],
        reverse=True,
    )
    for i in picked:
        _mutate(data, leaves[i], draw(st.sampled_from(VALUES)))
    argv = draw(st.sampled_from([["validate", path]] + _commands(name, path)))
    return json.dumps(data), argv


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.json"


@settings(deadline=None)
@given(st.data())
def test_damaged_fixtures_get_a_promised_exit_code(path, data):
    text, argv = data.draw(damaged_runs(str(path)))
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, text)


# ------------------------------------------------------ the sites it found


def _damaged(tmp_path, name, leaf, value) -> str:
    data = json.loads(_fixture(name))
    _mutate(data, leaf, value)
    out = tmp_path / name
    out.write_text(json.dumps(data))
    return str(out)


def _input_error(capsys, *argv) -> str:
    """The stderr line of a run that exits 2."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    return err.splitlines()[0]


@pytest.mark.parametrize("command", ["validate", "extract"])
def test_a_global_map_entry_past_int64_is_malformed(capsys, tmp_path, command):
    path = _damaged(tmp_path, "cyclic4_shift_globalmap.json", ["table", 1], 10**30)
    assert _input_error(capsys, command, path) == "input error: table entry out of range"


def test_laws_on_a_table_that_is_not_a_group_names_the_axiom(capsys, tmp_path):
    # coordinate-independence conjugates the neighborhood through the table
    path = _damaged(tmp_path, "cube_or.json", ["space", "action", "group", "mul", 14, 10], 0)
    assert _input_error(capsys, "laws", path).startswith("input error: law group-associativity fails: ")


def test_invert_on_a_table_that_is_not_an_action_names_the_axiom(capsys, tmp_path):
    # the step is a bijection whose inverse is not equivariant
    path = _damaged(tmp_path, "cyclic4_shift.json", ["space", "action", "act", 3, 2], 3)
    assert _input_error(capsys, "invert", path).startswith("input error: law action-compatibility fails: ")
    assert main(["laws", path, "--suite", "invertibility"]) == EXIT_VIOLATION
    [verdict] = json.loads(capsys.readouterr().out)["suites"]["invertibility"]["verdicts"]
    assert (verdict["law"], verdict["ok"]) == ("invertibility-precondition", False)
    assert verdict["witness"]["reason"].startswith("law action-compatibility fails: ")


def test_extract_on_a_table_that_is_not_a_group_names_the_axiom(capsys, tmp_path):
    # the map is equivariant, but the automaton read off it does not reproduce it
    path = _damaged(tmp_path, "cyclic4_shift_globalmap.json", ["space", "action", "group", "mul", 0, 1], 0)
    assert _input_error(capsys, "extract", path).startswith("input error: law group-identity fails: ")


def test_compose_on_a_table_that_is_not_a_group_names_the_axiom(capsys, tmp_path):
    path = _damaged(tmp_path, "cyclic4_or.json", ["space", "action", "group", "mul", 3, 3], 0)
    assert _input_error(capsys, "compose", path, path).startswith("input error: law group-associativity fails: ")
