"""The one JSON writer: `serialize.dumps` spells every report and artifact.

Its output must be `json.dumps(data, indent=2, sort_keys=True)`, byte for
byte, and it must raise json's exception type wherever json raises.  The
oracle is json itself: drawn JSON values, with the strings, numbers,
subclasses and keys json treats specially, and the files the CLI writes,
each compared with json's spelling of the object written.
"""

import enum
import json
import random
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import homoca.cli as cli
from homoca.catalog import bundled_automata
from homoca.laws import compose, extract, invert
from homoca.serialize import dump_automaton, dumps, load_automaton, load_global_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def indented(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def outcome(encode, data):
    """The text `encode` gives for data, or the type of what it raised."""
    try:
        return encode(data)
    except Exception as e:  # noqa: BLE001 - the exception type is the outcome
        return type(e)


# ------------------------------------------------------------ drawn values


class Int(int):
    def __repr__(self):
        return "not json"

    __str__ = __repr__


class Text(str):
    def __str__(self):
        return "not json"


class Table(dict):
    pass


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


strings = st.one_of(
    st.text(),
    # quotes, backslashes, control characters, non-ASCII text and lone surrogates
    st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\x80\xe9 \u4e2d\ud800\udfff\U0001f600 a')),
    st.text(st.characters(categories=["Cs", "Cc", "Lo"])),
    st.builds(Text, st.text()),
)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.builds(Int, st.integers()),
    st.sampled_from(list(Colour)),
)
floats = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e-300, 5e-324]),
    st.builds(np.float64, st.floats()),
)
scalars = st.one_of(strings, ints, floats, st.booleans(), st.none())
# each dict draws its keys of one kind, so that json can sort them
key_kinds = st.sampled_from([strings, ints, st.one_of(ints, floats), st.booleans(), st.none()])
# bools are ints to isinstance, but json writes them as true and false
int_lists = st.lists(st.one_of(ints, st.booleans()), max_size=8)
# lists of int lists, nested to a random depth, as the tables of a report
int_tables = st.recursive(
    st.lists(st.integers(), max_size=6), lambda inner: st.lists(inner, max_size=4), max_leaves=12
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
        st.dictionaries(st.text(max_size=4), children, max_size=5).map(Table),
        st.dictionaries(st.text(max_size=4), children, max_size=5).map(OrderedDict),
    )


values = st.recursive(st.one_of(scalars, int_lists, int_tables), containers, max_leaves=30)


def nested(depth: int):
    """Int lists beside a list nested depth deep."""
    data = [[0, -1], []]
    for i in range(depth):
        data = [[i], data, [i, i + 1]]
    return data


@given(values)
@example([])
@example({})
@example([[]])
@example([[], [1, 2], []])
@example([[[[1, -2]], [[3]]]])
@example({"a": [[0, 1], [2, 3]], "b": [True, 1, 1.0, None]})
@example({1: "int", 2.5: "float"})
@example({True: 1, False: 0})
@example({None: None})
@example([10**300, -(10**300)])
@example([1, True, 0, False])
@example([[1, 2], [False]])
@example(nested(60))
@example({"deep": nested(60)})
def test_dumps_is_json_indented_and_sorted(data):
    assert outcome(dumps, data) == outcome(indented, data)


@pytest.mark.parametrize(
    "data",
    [
        np.int64(3),
        [1, np.int64(2)],
        [[1], [np.int32(2)]],
        {"table": np.arange(3)},
        {1, 2},
        [frozenset()],
        b"bytes",
        {"a": bytearray(b"x")},
        {1: "one", "a": "letter"},
        {(1, 2): "tuple key"},
        {"a": {None: 0, "b": 1}},
        [10**5000],
        {"inf": complex(1, 2)},
    ],
)
def test_dumps_raises_what_json_raises(data):
    expected = outcome(indented, data)
    assert isinstance(expected, type) and issubclass(expected, Exception)
    assert outcome(dumps, data) is expected


def test_a_circular_container_raises_json_value_error():
    loop = [1, 2]
    loop.append(loop)
    nest = {"a": {}}
    nest["a"]["b"] = nest
    for data in (loop, nest, [[loop]]):
        assert outcome(dumps, data) is ValueError is outcome(indented, data)
    # the same list twice, side by side, is no cycle
    shared = [[1, 2], "x"]
    assert dumps([shared, shared]) == indented([shared, shared])


# ------------------------------------------------------ files the CLI writes


def fx(name: str) -> str:
    return str(FIXTURES / name)


def written(capsys, argv, out):
    """Run the CLI with `--out out` and return its exit code and the bytes
    of out."""
    try:
        code = cli.main(argv + ["--out", str(out)])
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    return code, out.read_bytes()


def spied_reports(monkeypatch):
    """The report dicts the CLI encodes from here on, in order."""
    reports = []
    as_dict = cli.RunReport.as_dict

    def spy(report):
        data = as_dict(report)
        reports.append(data)
        return data

    monkeypatch.setattr(cli.RunReport, "as_dict", spy)
    return reports


def expected_bytes(data) -> bytes:
    return (indented(data) + "\n").encode()


AUTOMATA = sorted(bundled_automata())
INVERTIBLE = ["cube_identity", "cyclic4_identity", "cyclic4_shift", "square_identity", "torus_identity"]


@pytest.mark.parametrize("name", AUTOMATA)
def test_compose_artifact_is_json_indented(capsys, tmp_path, name):
    code, raw = written(capsys, ["compose", fx(f"{name}.json"), fx(f"{name}.json")], tmp_path / "out.json")
    assert code == cli.EXIT_PASS
    ca = load_automaton(fx(f"{name}.json"))
    assert raw == expected_bytes(dump_automaton(compose(ca, ca)))


@pytest.mark.parametrize("name", INVERTIBLE)
def test_invert_artifact_is_json_indented(capsys, tmp_path, name):
    code, raw = written(capsys, ["invert", fx(f"{name}.json")], tmp_path / "out.json")
    assert code == cli.EXIT_PASS
    assert raw == expected_bytes(dump_automaton(invert(load_automaton(fx(f"{name}.json")))))


def test_extract_artifact_is_json_indented(capsys, tmp_path):
    path = fx("cyclic4_shift_globalmap.json")
    code, raw = written(capsys, ["extract", path], tmp_path / "out.json")
    assert code == cli.EXIT_PASS
    assert raw == expected_bytes(dump_automaton(extract(load_global_map(path))))


@pytest.mark.parametrize("name", AUTOMATA + ["square_projection"])
def test_laws_report_copy_is_json_indented(capsys, monkeypatch, tmp_path, name):
    reports = spied_reports(monkeypatch)
    code, raw = written(capsys, ["laws", fx(f"{name}.json"), "--seed", "7"], tmp_path / "out.json")
    assert code in (cli.EXIT_PASS, cli.EXIT_VIOLATION, cli.EXIT_BOUND)
    [report] = reports
    assert raw == expected_bytes(report)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_validate_report_copy_is_json_indented(capsys, monkeypatch, tmp_path, name):
    reports = spied_reports(monkeypatch)
    _, raw = written(capsys, ["validate", fx(name)], tmp_path / "out.json")
    [report] = reports
    assert raw == expected_bytes(report)


def test_run_report_of_a_torus_trace_is_json_indented(capsys, monkeypatch, tmp_path):
    reports = spied_reports(monkeypatch)
    rng = random.Random(5)
    cells = load_automaton(fx("torus_or.json")).space.cells
    config = ",".join(str(rng.randrange(2)) for _ in range(cells))
    argv = ["run", fx("torus_or.json"), "--config", config, "--steps", "100"]
    code, raw = written(capsys, argv, tmp_path / "out.json")
    assert code == cli.EXIT_PASS
    [report] = reports
    assert len(report["trace"]) == 101
    assert raw == expected_bytes(report)
