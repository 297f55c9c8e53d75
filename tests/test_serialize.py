"""JSON round trips for every file kind, path references, and rule widening."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca.automata import step
from homoca.catalog import group_from_permutations
from homoca.cli import validate_source
from homoca.encoding import decode, encode
from homoca.errors import InputError
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


@given(text=compact_documents())
@settings(deadline=None)
def test_the_loader_gives_json_values_and_errors(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    assert _outcome(_load_json, scratch_file) == _outcome(json_load, scratch_file)


@pytest.mark.parametrize(
    "text",
    ['{"m":[[0,1],[1,0]]}', '{"a":{"m":[[2147483647]]},"b":[[5,10,100]]}', '{"m":[[0]],"n":[0,1],"s":"]]"}'],
)
def test_compact_tables_decode_to_int64_arrays(tmp_path, text):
    path = tmp_path / "table.json"
    path.write_text(text)
    data = _load_json(path)
    assert _plain(data) == json.loads(text)
    tables = [v for obj in (data, *[v for v in data.values() if isinstance(v, dict)]) for v in obj.values()]
    assert any(isinstance(v, np.ndarray) for v in tables)


@pytest.mark.parametrize(
    "text",
    ['{"m":[[01]]}', '{"m":[[1],[1,2]]}', '{"m":[[2147483648]]}', '{"m":[[9223372036854775808]]}',
     '{"m":[[18446744073709551623]]}', '{"m": [[1]]}', '{"m":[[1]],"m":[[2]]}',
     '{"m":[[0]],"s":"[[x"}', '{"m":[[1,]]}', '{"m":[[,1]]}', '{"m":[[1,,2]]}', '{"m":[[1],[]]}', '{"m":[[]]}'],
)
def test_tables_outside_the_compact_form_decode_through_json(tmp_path, text):
    path = tmp_path / "table.json"
    path.write_text(text)
    assert _outcome(_load_json, path) == _outcome(json_load, path)
    try:
        data = _load_json(path)
    except InputError:
        return
    assert not any(isinstance(v, np.ndarray) for v in data.values())


S5_MUL = group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]).group.mul.tolist()

# raw file bytes, and whether the loader decodes a table in them itself
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
    # the "[[" in the string is not a member value, so json reads the file
    "a table spelled in a string after a table": (b'{"mul":[[0,1],[1,0]],"s":"x[[1]]"}', False),
    "two tables": (b'{"act":[[1,0],[0,1]],"group":{"mul":[[0,1],[1,0]],"order":2}}', True),
    "a table as the last member": (b'{"order":2,"mul":[[0,1],[1,0]]}', True),
    "an s5 table": (json.dumps({"identity": 0, "mul": S5_MUL, "order": 120}, separators=(",", ":")).encode(), True),
}


@pytest.mark.parametrize("name", RAW_FILES)
def test_the_loader_reads_bytes_as_the_text_mode_read_gives_them(tmp_path, name):
    raw, decoded = RAW_FILES[name]
    path = tmp_path / "table.json"
    path.write_bytes(raw)
    assert _outcome(_load_json, path) == _outcome(json_load, path)
    try:
        data = _load_json(path)
    except InputError:
        assert not decoded
        return
    tables = [v for obj in (data, *[v for v in data.values() if isinstance(v, dict)]) for v in obj.values()]
    assert any(isinstance(v, np.ndarray) for v in tables) == decoded


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
        assert isinstance(_load_json(compact)[table], np.ndarray)
        assert isinstance(_load_json(indented)[table], list)
        assert load(str(compact)) == load(str(indented)) == obj
        assert validate_source(str(compact)) == validate_source(str(indented))


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
