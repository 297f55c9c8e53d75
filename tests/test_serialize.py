"""JSON round trips for every file kind, path references, and rule widening."""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca.automata import step
from homoca.catalog import group_from_permutations
from homoca.cli import validate_source
from homoca.encoding import decode, encode
from homoca.errors import InputError
from homoca import serialize
from homoca.laws import GlobalMap, global_table
from homoca.serialize import (
    _load_json,
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


def test_group_round_trip(tmp_path, spaces):
    group = spaces["square"].group
    path = tmp_path / "group.json"
    write_json(path, dump_group(group))
    assert load_group(str(path)) == group
    assert detect_kind(dump_group(group)) == "group"


def test_action_round_trip(tmp_path, spaces):
    action = spaces["cube"].action
    path = tmp_path / "action.json"
    write_json(path, dump_action(action))
    assert load_action(str(path)) == action
    assert detect_kind(dump_action(action)) == "action"


def test_space_round_trip(tmp_path, spaces):
    space = spaces["square"]
    path = tmp_path / "space.json"
    write_json(path, dump_space(space))
    loaded = load_space(str(path))
    assert loaded.system == space.system
    assert detect_kind(dump_space(space)) == "space"


def test_space_without_coords_gets_defaults(tmp_path, spaces):
    data = dump_space(spaces["square"])
    del data["coords"]
    loaded = load_space(data)
    assert loaded.coords == spaces["square"].coords  # defaults are the minima


def test_automaton_round_trip(tmp_path, automata):
    ca = automata["square_or"]
    path = tmp_path / "automaton.json"
    write_json(path, dump_automaton(ca))
    loaded = load_automaton(str(path))
    assert loaded.neighborhood == ca.neighborhood
    assert loaded.rule == ca.rule
    assert loaded.space.system == ca.space.system
    assert detect_kind(dump_automaton(ca)) == "automaton"


def test_global_map_round_trip(tmp_path, automata):
    gm = GlobalMap.from_automaton(automata["cyclic4_shift"])
    path = tmp_path / "map.json"
    write_json(path, dump_global_map(gm))
    loaded = load_global_map(str(path))
    assert np.array_equal(loaded.table, gm.table)
    assert detect_kind(dump_global_map(gm)) == "global-map"


def test_files_can_reference_other_files(tmp_path, spaces):
    space = spaces["cyclic4"]
    write_json(tmp_path / "group.json", dump_group(space.group))
    action_data = dump_action(space.action)
    action_data["group"] = "group.json"
    write_json(tmp_path / "action.json", action_data)
    space_data = {"action": "action.json", "origin": 0}
    write_json(tmp_path / "space.json", space_data)
    loaded = load_space(str(tmp_path / "space.json"))
    assert loaded.system == space.system


def test_neighborhood_representatives_may_be_any_coset_member(automata):
    ca = automata["square_or"]
    data = dump_automaton(ca)
    # replace each canonical representative with its other coset member
    members = [ca.space.cosets[j].members for j in ca.neighborhood]
    data["neighborhood"] = [m[-1] for m in members]
    loaded = load_automaton(data)
    assert loaded.neighborhood == ca.neighborhood


def test_duplicate_coset_representatives_are_rejected(automata):
    data = dump_automaton(automata["square_or"])
    reps = data["neighborhood"]
    stab = automata["square_or"].space.stabilizer.members
    data["neighborhood"] = reps + [stab[-1]]  # names coset 0 again
    with pytest.raises(InputError):
        load_automaton(data)


def test_missing_fields_are_reported_by_name():
    with pytest.raises(InputError) as err:
        load_group({"order": 2, "identity": 0})
    assert "mul" in str(err.value)
    with pytest.raises(InputError) as err:
        load_automaton({})
    assert "space" in str(err.value)
    with pytest.raises(InputError) as err:
        load_automaton({"space": {}})
    assert "action" in str(err.value)


def test_missing_file_and_bad_json_are_input_errors(tmp_path):
    with pytest.raises(InputError):
        load_group(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError) as err:
        load_group(str(bad))
    assert "line" in str(err.value)


# ------------------------------------------------- compact integer tables


def json_load(path):
    """The loader as plain json: the values and errors the fast path keeps."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: byte {e.object[e.start]:#04x}, {e.reason}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _plain(value):
    if isinstance(value, np.ndarray):
        assert value.dtype == np.int64
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _outcome(load, path):
    """What a loader makes of a file, as text that tells 1 from true and 1.0."""
    try:
        return json.dumps(_plain(load(path)))
    except InputError as e:
        return f"InputError: {e}"


# entries that a compact table must not decode itself, or must decode exactly
ODD_ENTRIES = [
    "0", "007", "00", "-1", "-0", "+1", "1.5", "1.0", "1e3", "1E2", "true", "null", '"1"', "",
    " 1", "1 ", "[1]", "[]", str(2**31 - 1), str(2**31), str(2**63 - 1), str(2**63),
    str(2**64 + 7), "9" * 30,
]
DOCUMENTS = [
    '{"m":%s}',
    '{"a":1,"m":%s,"b":[1,2],"c":{"d":null}}',
    '{"m":%s,"m":%s}',
    '{"g":{"mul":%s,"order":2},"act":%s}',
    '{"m": %s}',
    '{"m":[%s]}',
    '{"s":"%s"}',
    '{"s":"\\":%s"}',
    '{"s":"\\u0000","m":%s}',
    '{"s":"\\u00000","m":%s}',
    "[%s]",
    "%s",
    '[{"m":%s}]',
    '{"m":%s}\n{}',
]


@st.composite
def compact_documents(draw):
    """Compact tables with at most one flaw each (an odd entry, a leading
    zero, a row of another width or a spaced separator) in several
    documents, some of them truncated."""

    def table():
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        rows = [[str(draw(st.integers(0, 5000))) for _ in range(width)] for _ in range(height)]
        i, j = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        sep = ","
        flaw = draw(st.sampled_from(["none", "entry", "zero", "width", "separator"]))
        if flaw == "entry":
            rows[i][j] = draw(st.sampled_from(ODD_ENTRIES))
        elif flaw == "zero":
            rows[i][j] = "0" + rows[i][j]
        elif flaw == "width":
            rows[i] = [str(draw(st.integers(0, 9))) for _ in range(draw(st.integers(0, 5)))]
        elif flaw == "separator":
            sep = draw(st.sampled_from([", ", ",\n", " ,"]))
        return "[" + sep.join("[" + ",".join(row) + "]" for row in rows) + "]"

    # half are the plain document, where the table's flaw alone picks the path
    template = DOCUMENTS[0] if draw(st.booleans()) else draw(st.sampled_from(DOCUMENTS))
    text = template % tuple(table() for _ in range(template.count("%s")))
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "table.json"


def decoding_tables_from(entries):
    """The loader with its decode floor moved to `entries`: at 1 it decodes
    every table that passes its checks, small ones included."""
    return mock.patch.object(serialize, "TABLE_DECODE_ENTRIES", entries)


def _decoded(data):
    """Does a loaded file hold a table decoded to an array, at any depth?"""
    if isinstance(data, dict):
        return any(_decoded(v) for v in data.values())
    return isinstance(data, np.ndarray)


@given(text=compact_documents())
@settings(deadline=None)
def test_the_loader_gives_json_values_and_errors(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    with decoding_tables_from(1):
        assert _outcome(_load_json, scratch_file) == _outcome(json_load, scratch_file)


@pytest.mark.parametrize(
    "text",
    ['{"m":[[0,1],[1,0]]}', '{"a":{"m":[[2147483647]]},"b":[[5,10,100]]}', '{"m":[[0]],"n":[0,1],"s":"]]"}'],
)
def test_compact_tables_decode_to_int64_arrays(tmp_path, text):
    # these tables are far below the decode floor, so json parses them;
    # with the floor at 1 the loader decodes them itself
    path = tmp_path / "table.json"
    path.write_text(text)
    assert _plain(_load_json(path)) == json.loads(text) and not _decoded(_load_json(path))
    with decoding_tables_from(1):
        data = _load_json(path)
    assert _plain(data) == json.loads(text)
    assert _decoded(data)


@pytest.mark.parametrize(
    "text",
    ['{"m":[[01]]}', '{"m":[[1],[1,2]]}', '{"m":[[2147483648]]}', '{"m":[[9223372036854775808]]}',
     '{"m":[[18446744073709551623]]}', '{"m": [[1]]}', '{"m":[[1]],"m":[[2]]}',
     '{"m":[[0]],"s":"[[x"}', '{"m":[[1,]]}', '{"m":[[,1]]}', '{"m":[[1,,2]]}', '{"m":[[1],[]]}', '{"m":[[]]}'],
)
def test_tables_outside_the_compact_form_decode_through_json(tmp_path, text):
    # refused tables reach json whatever the floor; with the floor at 1 the
    # spaced table decodes, and so does the table next to a "[[" that only
    # a string holds
    path = tmp_path / "table.json"
    path.write_text(text)
    for entries in (serialize.TABLE_DECODE_ENTRIES, 1):
        with decoding_tables_from(entries):
            assert _outcome(_load_json, path) == _outcome(json_load, path)
            try:
                data = _load_json(path)
            except InputError:
                continue
        assert _decoded(data) == (entries == 1 and text in ('{"m": [[1]]}', '{"m":[[0]],"s":"[[x"}'))


S5_MUL = group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]).group.mul.tolist()

# raw file bytes, and whether the loader decodes a table in them itself
# when it decodes every table it can; at its decode floor it decodes only
# the s5 table, the one of 1024 entries or more
RAW_FILES = {
    "crlf, a JSON error after the table": (b'{"mul":[[0,1],[1,0]],\r\n"order":2,\r\n"x":}', False),
    "crlf": (b'{\r\n"mul":[[0,1],[1,0]],\r\n"order":2\r\n}\r\n', True),
    "a lone cr, a JSON error after the table": (b'{"mul":[[0,1],[1,0]],\r"x":\r[1,}', False),
    "a lone cr": (b'{"mul":[[0,1],[1,0]],\r"s":"a",\r"n":1}', True),
    "a utf-8 bom": (b'\xef\xbb\xbf{"mul":[[0,1],[1,0]]}', False),
    "non-utf-8 in a table": (b'{"mul":[[0,1],[1,\xff0]]}', False),
    "non-utf-8 after a table": (b'{"mul":[[0,1],[1,0]],"s":"\xff"}', False),
    "non-utf-8 before a table": (b'{"s":"\xe2","mul":[[0,1],[1,0]]}', False),
    "non-utf-8 at the end": (b'{"mul":[[0,1],[1,0]]}\xe2\x82', False),
    "utf-8 around a table": ('{"s":"\u00e9\u2192","mul":[[0,1],[1,0]],"t":"\U0001f600"}'.encode(), True),
    "brackets in a string after a table": (b'{"mul":[[0,1],[1,0]],"s":"]],[x],[1]]"}', True),
    # the "[[" in the string is not a member value, so it stays text
    "a table spelled in a string after a table": (b'{"mul":[[0,1],[1,0]],"s":"x[[1]]"}', True),
    "two tables": (b'{"act":[[1,0],[0,1]],"group":{"mul":[[0,1],[1,0]],"order":2}}', True),
    "a table as the last member": (b'{"order":2,"mul":[[0,1],[1,0]]}', True),
    "an s5 table": (json.dumps({"identity": 0, "mul": S5_MUL, "order": 120}, separators=(",", ":")).encode(), True),
}


@pytest.mark.parametrize("name", RAW_FILES)
def test_the_loader_reads_bytes_as_the_text_mode_read_gives_them(tmp_path, name):
    raw, decoded = RAW_FILES[name]
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    for entries in (serialize.TABLE_DECODE_ENTRIES, 1):
        with decoding_tables_from(entries):
            assert _outcome(_load_json, path) == _outcome(json_load, path)
            try:
                data = _load_json(path)
            except InputError:
                assert not decoded
                continue
        assert _decoded(data) == (decoded and (entries == 1 or name == "an s5 table"))


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_group, '{"identity":0,"mul":[[0]],"order":[[1]]}', "'order' must be an integer, got [[1]]"),
        (load_action, '{"act":[[0]],"group":[[0]],"points":1}', "or a file path, got [[0]]"),
        (
            load_automaton,
            '{"delta":[[0,1]],"neighborhood":[0],"space":"SPACE","states":2}',
            "'delta' must be a list of integers",
        ),
    ],
)
def test_a_table_in_the_wrong_field_is_refused_as_json_spells_it(tmp_path, load, text, message):
    path = tmp_path / "wrong.json"
    path.write_text(text.replace("SPACE", str(FIXTURES / "cyclic4_space.json")))
    with pytest.raises(InputError) as from_file:
        load(str(path))
    assert str(from_file.value).endswith(message)


@pytest.mark.parametrize(
    "mul", [[[0, 5], [1, 0]], [[0, 1], [1]], [[0, 1]], [[0, 1, 0], [1, 0, 1]], [[0, 1], [1, 2**31]]]
)
def test_compact_and_indented_bad_tables_are_refused_alike(tmp_path, mul):
    data = {"identity": 0, "mul": mul, "order": 2}
    messages = []
    for name, separators in (("compact", (",", ":")), ("indented", None)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data, separators=separators, indent=None if separators else 2))
        with pytest.raises(InputError) as err:
            load_group(str(path))
        messages.append(str(err.value).replace(str(path), "FILE"))
    assert messages[0] == messages[1]


def test_compact_and_indented_files_load_and_validate_alike(tmp_path):
    action = group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert action.group.order == 120
    cases = [(action.group, dump_group, load_group, "mul"), (action, dump_action, load_action, "act")]
    for obj, dump, load, table in cases:
        compact, indented = tmp_path / f"compact_{table}.json", tmp_path / f"indented_{table}.json"
        with open(compact, "w") as fh:
            json.dump(dump(obj), fh, separators=(",", ":"), sort_keys=True)
        write_json(indented, dump(obj))
        # S5's 120x120 mul table is past the decode floor in either
        # spelling, its 120x5 act table below it
        for path in (compact, indented):
            assert isinstance(_load_json(path)[table], np.ndarray if table == "mul" else list)
        assert load(str(compact)) == load(str(indented)) == obj
        assert validate_source(str(compact)) == validate_source(str(indented))


# ------------------------------------------------ tables with whitespace

SPACES = ["", "", " ", "\n      ", "\t", "\r\n", "\r", " \n\t "]


@st.composite
def spaced_documents(draw):
    """Tables with JSON whitespace between their tokens, at most one flaw
    each (whitespace inside a number, an odd entry or a row of another
    width), in the documents the compact ones fill, some truncated."""

    def space():
        return draw(st.sampled_from(SPACES))

    def spaced(items):
        return "[" + space() + (space() + "," + space()).join(items) + space() + "]"

    def table():
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        rows = [[str(draw(st.integers(0, 5000))) for _ in range(width)] for _ in range(height)]
        i, j = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        flaw = draw(st.sampled_from(["none", "none", "split", "entry", "width"]))
        if flaw == "split":
            entry = rows[i][j] + "7"
            cut = draw(st.integers(1, len(entry) - 1))
            rows[i][j] = entry[:cut] + draw(st.sampled_from(SPACES[2:])) + entry[cut:]
        elif flaw == "entry":
            rows[i][j] = draw(st.sampled_from(ODD_ENTRIES))
        elif flaw == "width":
            rows[i] = [str(draw(st.integers(0, 9))) for _ in range(draw(st.integers(0, 5)))]
        return spaced([spaced(row) for row in rows])

    template = DOCUMENTS[0] if draw(st.booleans()) else draw(st.sampled_from(DOCUMENTS))
    text = template % tuple(table() for _ in range(template.count("%s")))
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@given(text=spaced_documents())
@settings(deadline=None)
def test_spaced_tables_load_as_json_loads_them(scratch_file, text):
    scratch_file.write_bytes(text.encode("utf-8"))
    for entries in (serialize.TABLE_DECODE_ENTRIES, 1):
        with decoding_tables_from(entries):
            assert _outcome(_load_json, scratch_file) == _outcome(json_load, scratch_file)


def _square(side, width=None):
    width = side if width is None else width
    return [[(i * width + j) % 1000 for j in range(width)] for i in range(side)]


def _big_indented(indent=2):
    """A file with tables on both sides of the decode floor: 32x32 and
    1x1024 entries, at the floor, and 31x33, one entry below it."""
    data = {"at": _square(32), "row": _square(1, 1024), "below": _square(31, 33), "n": 1}
    return json.dumps(data, indent=indent, sort_keys=True)


# raw file bytes, and the members the loader decodes itself at its floor
INDENTED_FILES = {
    "write_json's layout": (_big_indented().encode(), {"at", "row"}),
    "crlf": (_big_indented().replace("\n", "\r\n").encode(), {"at", "row"}),
    "a lone cr": (_big_indented().replace("\n", "\r").encode(), {"at", "row"}),
    "tabs": (_big_indented(indent="\t").encode(), {"at", "row"}),
    "whitespace around the row boundaries": (
        json.dumps({"at": _square(32)}, separators=(",", ": ")).replace("],[", "]\n ,\t[").encode(),
        {"at"},
    ),
    "json.dump's default spacing": (json.dumps({"at": _square(32), "n": [1]}).encode(), {"at"}),
    "whitespace around the outer brackets only": (
        ('{"at": [ %s ]}' % json.dumps(_square(32), separators=(",", ":"))[1:-1]).encode(),
        {"at"},
    ),
    "a newline before the closing bracket only": (
        ('{"at":[%s\n]}' % json.dumps(_square(32), separators=(",", ":"))[1:-1]).encode(),
        {"at"},
    ),
    "a number split by a space": (_big_indented().replace("\n      17,", "\n      1 7,", 1).encode(), set()),
    "a number split by a newline": (_big_indented().replace("\n      17,", "\n      1\n7,", 1).encode(), set()),
    "a small table inside a string": (json.dumps({"s": '": [[1, 2], [3, 4]]', "at": _square(32)}).encode(), {"at"}),
    # decoded, its marker breaks the string, so json reads the whole file
    "a table past the floor inside a string": (
        json.dumps({"s": '": ' + json.dumps(_square(32), separators=(",", ":")), "at": _square(32)}).encode(),
        set(),
    ),
}


@pytest.mark.parametrize("name", INDENTED_FILES)
def test_indented_tables_past_the_floor_decode_and_load_as_json_loads_them(tmp_path, name):
    raw, decoded = INDENTED_FILES[name]
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    assert _outcome(_load_json, path) == _outcome(json_load, path)
    try:
        data = _load_json(path)
    except InputError:
        assert not decoded
        return
    assert {key for key, value in data.items() if isinstance(value, np.ndarray)} == decoded


@pytest.mark.parametrize("rows, width", [(32, 32), (1, 1024), (1024, 1), (31, 33)])
@pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")], ids=["compact", "spaced"])
def test_a_file_whose_only_table_is_at_the_floor_decodes(tmp_path, rows, width, separators):
    # a table of N entries spells N - 1 commas, and this file spells no
    # others, so it has exactly as many as the loader's gate asks for
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"m": _square(rows, width)}, separators=separators))
    assert path.read_bytes().count(b",") == rows * width - 1
    data = _load_json(path)
    assert isinstance(data["m"], np.ndarray) == (rows * width >= serialize.TABLE_DECODE_ENTRIES)
    assert _plain(data) == json.loads(path.read_text())


def test_a_table_after_a_long_comma_free_text_decodes(tmp_path):
    # the commas are counted block by block: all of this table's lie past
    # the first block
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"s": "x" * 3 * serialize.COMMA_BLOCK, "m": _square(32)}, separators=(",", ":")))
    data = _load_json(path)
    assert isinstance(data["m"], np.ndarray)
    assert _plain(data) == json.loads(path.read_text())


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
def test_commas_counted_in_blocks_reach_what_one_count_reaches(block):
    rng = random.Random(block)
    with mock.patch.object(serialize, "COMMA_BLOCK", block):
        for size in (0, 1, 5, 19, 64):
            raw = bytes(rng.choice(b",x]") for _ in range(size))
            for count in range(-1, raw.count(b",") + 3):
                assert serialize._commas_reach(raw, count) == (raw.count(b",") >= count), (raw, count)


def _tables(data):
    """Every member value that is a list of lists, at any depth."""
    for value in data.values():
        if isinstance(value, dict):
            yield from _tables(value)
        elif isinstance(value, (list, np.ndarray)) and len(value) and isinstance(value[0], (list, np.ndarray)):
            yield value


def test_bundled_fixtures_and_written_files_decode_every_table_past_the_floor(tmp_path, automata):
    written = tmp_path / "torus_or.json"
    write_json(written, dump_automaton(automata["torus_or"]))
    paths = sorted(FIXTURES.glob("*.json")) + [written]
    decoded = 0
    for path in paths:
        assert _outcome(_load_json, path) == _outcome(json_load, path)
        for table in _tables(_load_json(path)):
            large = len(table) * len(table[0]) >= serialize.TABLE_DECODE_ENTRIES
            assert isinstance(table, np.ndarray) == large, path
            decoded += large
    assert decoded >= 10


# ------------------------------------------------------------ auto-closing


def test_unclosed_neighborhood_is_rejected_without_auto_close(automata):
    ca = automata["square_or"]
    data = dump_automaton(ca)
    data["neighborhood"] = [0, 2]  # drops the flip-image of coset 2
    data["delta"] = [0, 1, 1, 1]
    with pytest.raises(InputError):
        load_automaton(data)


def test_auto_close_widens_the_rule_by_projection(automata):
    ca = automata["square_or"]
    data = dump_automaton(ca)
    data["neighborhood"] = [0, 2]
    data["delta"] = [0, 1, 1, 1]  # OR of the two given names
    widened = load_automaton(data, auto_close=True)
    assert widened.arity > 2
    given = (ca.space.coset_index(0), ca.space.coset_index(2))
    positions = [widened.neighborhood.index(j) for j in given]
    for code in range(2**widened.arity):
        local = decode(code, 2, widened.arity)
        kept = tuple(local[p] for p in positions)
        assert widened.rule[code] == (1 if any(kept) else 0)


def test_auto_close_keeps_closed_neighborhoods_unchanged(automata):
    ca = automata["cyclic4_shift"]
    data = dump_automaton(ca)
    loaded = load_automaton(data, auto_close=True)
    assert loaded.neighborhood == ca.neighborhood
    assert loaded.rule == ca.rule


# ---------------------------------------------------------------- fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_bundled_fixture_files_load_and_match(automata):
    loaded = load_automaton(str(FIXTURES / "square_or.json"))
    assert loaded.rule == automata["square_or"].rule
    assert loaded.neighborhood == automata["square_or"].neighborhood
    gm = load_global_map(str(FIXTURES / "cyclic4_shift_globalmap.json"))
    assert np.array_equal(gm.table, global_table(automata["cyclic4_shift"]))


def test_broken_fixture_differs_from_the_true_map(automata):
    gm = load_global_map(str(FIXTURES / "cyclic4_broken_globalmap.json"))
    true = global_table(automata["cyclic4_shift"])
    assert not np.array_equal(gm.table, true)
    assert int(np.count_nonzero(gm.table != true)) == 1


def test_build_fixtures_reproduces_the_committed_fixtures(tmp_path):
    root = Path(__file__).resolve().parent.parent
    script_path = root / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", script_path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = str(tmp_path)
    script.main()
    built = sorted(p.name for p in tmp_path.iterdir())
    assert built == sorted(p.name for p in (root / "fixtures").iterdir())
    for name in built:
        assert (tmp_path / name).read_bytes() == (root / "fixtures" / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv", [["law_survey.py"], ["random_rule_census.py", "--rules", "2"]], ids=lambda a: a[0]
)
def test_experiment_scripts_run_without_pythonpath(argv):
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]]
    done = subprocess.run(script, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
