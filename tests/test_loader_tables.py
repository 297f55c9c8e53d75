"""Group and action tables from file to array: refusals, identity, dumps.

A table is accepted when it is a rectangle of integers in range.  The
refusals pinned here name the first fault in the same words whichever way
the table is read, and `validate` reports them with exit code 2; a table
of JSON booleans is accepted as the integers 0 and 1.  Loaded tables are
read-only, two loads of one file compare and hash equal, and the dump of
every bundled file is byte for byte what it has always been.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from homoca.cli import EXIT_INPUT, EXIT_PASS, main
from homoca.errors import InputError
from homoca.serialize import (
    detect_kind,
    dump_action,
    dump_automaton,
    dump_global_map,
    dump_group,
    dump_space,
    load_action,
    load_automaton,
    load_global_map,
    load_group,
    load_space,
    write_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _nested_three_deep(rows):
    return [[[x] for x in row] for row in rows]


def _ragged(rows):
    return [row + [0] if i == 1 else row for i, row in enumerate(rows)]


def _with_entry(value):
    def edit(rows):
        rows = copy.deepcopy(rows)
        rows[1][2] = value
        return rows

    return edit


# edit of a 4x4 table -> the fault the loader names, after "<table>: "
REFUSALS = {
    "float": (_with_entry(1.0), "expected a list of rows of integers"),
    "string": (_with_entry("1"), "expected a list of rows of integers"),
    "ragged": (_ragged, "row 1 has length 5, expected 4"),
    "three-deep": (_nested_three_deep, "expected a list of rows of integers"),
    "negative": (_with_entry(-1), "entry -1 in row 1 out of range"),
    "equal-to-bound": (_with_entry(4), "entry 4 in row 1 out of range"),
    "wraps-in-int32": (_with_entry(2**32 + 1), f"entry {2**32 + 1} in row 1 out of range"),
    "past-int64": (_with_entry(2**70), f"entry {2**70} in row 1 out of range"),
}


def _group_with(edit):
    data = _fixture("cyclic4_group.json")
    return dict(data, mul=edit(data["mul"]))


def _action_with(edit):
    data = _fixture("cyclic4_action.json")
    return dict(data, act=edit(data["act"]))


def _validate(tmp_path, capsys, data):
    path = tmp_path / "table.json"
    write_json(path, data)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(REFUSALS))
@pytest.mark.parametrize(
    "build, loader, what",
    [(_group_with, load_group, "mul table"), (_action_with, load_action, "act table")],
    ids=["mul", "act"],
)
def test_malformed_tables_are_refused_with_the_first_fault(build, loader, what, name, tmp_path, capsys):
    edit, fault = REFUSALS[name]
    data = build(edit)
    message = f"{what}: {fault}"
    with pytest.raises(InputError) as refused:
        loader(data)
    assert str(refused.value) == message
    code, out, err = _validate(tmp_path, capsys, data)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.splitlines()[0] == f"input error: {message}"


Z2 = [[False, True], [True, False]]


def test_a_table_of_booleans_is_read_as_integers(tmp_path, capsys):
    group = load_group({"order": 2, "mul": Z2, "identity": 0})
    action = load_action({"group": {"order": 2, "mul": Z2, "identity": 0}, "points": 2, "act": Z2})
    for table in (group.mul, action.act):
        assert np.asarray(table).dtype.kind == "i"
        assert np.asarray(table).tolist() == [[0, 1], [1, 0]]
    assert dump_group(group) == {"order": 2, "mul": [[0, 1], [1, 0]], "identity": 0}
    assert json.dumps(dump_action(action)) == json.dumps(
        {"group": dump_group(group), "points": 2, "act": [[0, 1], [1, 0]]}
    )
    for data in (
        {"order": 2, "mul": Z2, "identity": 0},
        {"group": {"order": 2, "mul": Z2, "identity": 0}, "points": 2, "act": Z2},
    ):
        code, out, _ = _validate(tmp_path, capsys, data)
        assert code == EXIT_PASS
        verdicts = next(iter(json.loads(out)["files"].values()))["verdicts"]
        assert all(v["ok"] for v in verdicts)


# ------------------------------------------------------------ identity


def test_two_loads_compare_and_hash_equal():
    for loader, name in ((load_group, "torus_group.json"), (load_action, "torus_action.json")):
        first, second = loader(str(FIXTURES / name)), loader(str(FIXTURES / name))
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
    first, second = (load_space(str(FIXTURES / "torus_space.json")) for _ in range(2))
    assert first.system == second.system
    assert hash(first.system) == hash(second.system)


def test_a_changed_entry_compares_unequal():
    data = _fixture("cyclic4_action.json")
    group = load_group(data["group"])
    swapped = copy.deepcopy(data)
    # another group structure on the same labels: 1 and 3 trade places
    swapped["group"]["mul"] = [[[0, 3, 2, 1][x] for x in row] for row in data["group"]["mul"]]
    assert load_group(swapped["group"]) != group
    moved = copy.deepcopy(data)
    moved["act"][1][0], moved["act"][1][1] = moved["act"][1][1], moved["act"][1][0]
    action = load_action(data)
    assert load_action(moved) != action
    assert load_action(moved).group == action.group
    assert group != data["group"]  # no equality with the raw file


def test_loaded_tables_are_read_only():
    action = load_action(str(FIXTURES / "square_action.json"))
    with pytest.raises(ValueError):
        action.group.mul[0, 0] = 1
    with pytest.raises(ValueError):
        action.act[0, 0] = 1
    rows = action.act.tolist()
    rows[0][0] = 1
    assert action.act[0, 0] == 0  # the loader keeps its own copy


def test_a_writable_array_is_copied():
    mul = np.array(_fixture("cyclic4_group.json")["mul"])
    group = load_group({"order": 4, "mul": mul, "identity": 0})
    mul[0, 0] = 3
    assert group.mul[0, 0] == 0
    assert mul.flags.writeable


# ---------------------------------------------------------------- dumps

DUMPERS = {
    "group": (load_group, dump_group),
    "action": (load_action, dump_action),
    "space": (load_space, dump_space),
    "automaton": (load_automaton, dump_automaton),
    "global-map": (load_global_map, dump_global_map),
}
# sha256 of write_json(dump_*(load_*(fixture))) for every loadable fixture
DUMP_DIGESTS = {
    "bad_action.json": "68c20b5a09590ffc2e6979e89499b23a47f5c551c9724fc0c36ad72b2c3d3184",
    "bad_group.json": "a88202896ba335ea534898e8fc8329a01ef52928133c07ea51008243c04f3fc3",
    "cube_action.json": "383b7d5e3f64472b0f74d3b137e8f9bdb25f410f37f3d7a1291b53f2b31701b1",
    "cube_group.json": "93644d56a5f6fd97e0ceb10c18497df47af4f244299c2f00581a17c4b72b4f76",
    "cube_identity.json": "c68e1923154fb51b7c4d2208b8b5081de403d8f5b235cf73de69de56518c682e",
    "cube_or.json": "ebda6a52b1bc2057d0a88a49122021035d5119a7fcf9cb061d61a7c611a72188",
    "cube_space.json": "72e8564946313aa47a130cdd6c2ab4f5f66f56b925987d75d6e3cd700ab9ee46",
    "cyclic4_action.json": "e02cf17181f53e6b9db6ba8bd63af99889ef16d89fc0d8b8c0de5e3a6b019cd1",
    "cyclic4_broken_globalmap.json": "d0debb1d326d1f6368ec0162785274e625d3335da77445ffa3a98fe25972ad8a",
    "cyclic4_group.json": "110a666d894a000544a3e603879c28ad43e0b0eea4fb750b67a65f823a4120fc",
    "cyclic4_identity.json": "a4527cbb6cc0b6245d89e82634ed3e5047d3f25c0d593cf45c7867127f6ced1f",
    "cyclic4_or.json": "a20b49a09778f853fc3c04877052f31c27e209f990bf7e4a6ee22eb0e02fe434",
    "cyclic4_shift.json": "86a88c86cec78aaa306c138f20e34b6a67d200ff133d256107a27e18e49f0321",
    "cyclic4_shift_globalmap.json": "e9bb944ecf8b1df4d59d2c262260c559b74f1f27a0afb252a76109a655c01479",
    "cyclic4_space.json": "ed86fde213c5f731b33a950dbab50053a755c99284ed79f76c976d27257f80a6",
    "square_action.json": "d677e34eaf8bc4e2bb1482ead8c889ea1c06ea6c3eac4832a6426ed7c6f48d65",
    "square_group.json": "c90595ae4655a97e437219c3fb6e92c155aef33f4b93e643073ae7272ef59b17",
    "square_identity.json": "d84f3ba1ad151c791db4e521a17ae9cbaccc97c9967208e503e44d8aadc52b43",
    "square_or.json": "093a7052faa798cf1b70352f10eeeade288ad689ffe59d94fcbc71fb444e8f29",
    "square_projection.json": "080c44f57aaecc72d4fa5a063d945a8cf095629d7ee4b5a529d9dbeb82a75701",
    "square_space.json": "3b99ea5ceba353046925c8bed430989a2d540c6c412cf9d78a19ed86849d6d9b",
    "torus_action.json": "dbe8b475e346a70d31f9e25f8c443fc0ea4a7960e3ca89b76c45e70a7d0137da",
    "torus_group.json": "68ab87a87f7eaea41c01270cb1c59ab025eb9fd50a58f40b95a17d1205c7445b",
    "torus_identity.json": "8e8d406143534b9817881850ecbaf4ede61030dceef7322182baa4f8ef460753",
    "torus_or.json": "3b9287aa586346773aa381d275e93c5a45820a6015b46b7d5df7fb8cdbc973df",
    "torus_space.json": "f7400cbe90e973bdaa013ba634edc94ecf0aee79dbc73062a25d04135114d197",
}


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dumps_of_the_fixtures_are_unchanged(name, tmp_path):
    path = str(FIXTURES / name)
    loader, dumper = DUMPERS[detect_kind(_fixture(name))]
    out = tmp_path / name
    write_json(out, dumper(loader(path)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DIGESTS[name]
