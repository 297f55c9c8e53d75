"""`validate` and the loaders share one validation path.

Every fixture and a set of files that each break one defining condition
go through both `homoca validate` and the matching `load_*`: validate
passes only what the loader accepts, and a law the loader refuses is the
failing verdict validate reports, with the same witness.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homoca.cli import EXIT_BOUND, EXIT_INPUT, EXIT_PASS, EXIT_VIOLATION, main
from homoca.errors import BoundError, InputError, LawError
from homoca.serialize import (
    detect_kind,
    load_action,
    load_automaton,
    load_global_map,
    load_group,
    load_space,
    write_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STRUCTURAL_LAWS = {
    "action-transitive",
    "coordinate-origin-identity",
    "coordinate-transport",
    "neighborhood-closed",
}
LOADERS = {
    "group": load_group,
    "action": load_action,
    "space": load_space,
    "automaton": load_automaton,
    "global-map": load_global_map,
}


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _edited(name, **fields):
    return dict(_fixture(name), **fields)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _malformed() -> dict:
    """name -> file contents; each breaks one condition of a bundled file."""
    square_space = _fixture("square_space.json")
    # the cyclic group of order 4 acting on two disjoint 4-cycles
    rows = _fixture("cyclic4_action.json")
    two_orbits = dict(rows, points=8, act=[row + [4 + x for x in row] for row in rows["act"]])
    not_transitive = {"action": two_orbits, "origin": 0}
    no_origin = _without(square_space, "origin")
    return {
        # the stabilizer element 1 fixes the origin but is not the identity
        "origin_not_identity": dict(square_space, coords=[1, 2, 4, 6]),
        "bad_transport": dict(square_space, coords=[0, 4, 2, 6]),
        "not_transitive_with_coords": dict(not_transitive, coords=[0, 1, 2, 3, 0, 0, 0, 0]),
        "not_transitive_default_coords": not_transitive,
        "space_without_origin": no_origin,
        "origin_out_of_range": dict(square_space, origin=9),
        "short_coords": dict(square_space, coords=[0, 2, 4]),
        "unclosed_neighborhood": _edited("square_or.json", neighborhood=[4, 6], delta=[0, 1, 1, 1]),
        "short_delta": _edited("square_or.json", delta=[0] * 15),
        "oversize_rule": _edited(
            "cyclic4_shift.json", states=1025, neighborhood=[0, 1], delta=[0]
        ),
        "coset_named_twice": _edited("square_identity.json", neighborhood=[0, 1], delta=[0, 1]),
        "representative_out_of_range": _edited("square_or.json", neighborhood=[0, 2, 4, 99]),
        "automaton_on_a_bad_transport": _edited(
            "square_or.json", space=dict(square_space, coords=[0, 4, 2, 6])
        ),
        "automaton_on_no_origin": _edited("square_or.json", space=no_origin),
        "automaton_without_space": _without(_fixture("cyclic4_shift.json"), "space"),
        "global_map_on_a_bad_transport": _edited(
            "cyclic4_shift_globalmap.json",
            space=dict(_fixture("cyclic4_space.json"), coords=[0, 2, 1, 3]),
        ),
        "global_map_on_two_orbits": _edited("cyclic4_shift_globalmap.json", space=not_transitive),
        "short_global_map": _edited("cyclic4_shift_globalmap.json", table=[0] * 15),
    }


MALFORMED = _malformed()
CASES = sorted(p.name for p in FIXTURES.glob("*.json")) + sorted(MALFORMED)


def _path_of(name, tmp_path):
    if name in MALFORMED:
        path = tmp_path / f"{name}.json"
        write_json(path, MALFORMED[name])
        return str(path)
    return str(FIXTURES / name)


def _validate(capsys, path):
    code = main(["validate", path])
    out = capsys.readouterr().out
    return code, (json.loads(out)["files"][path]["verdicts"] if out else None)


@pytest.mark.parametrize("name", CASES)
def test_validate_agrees_with_the_loader(name, tmp_path, capsys):
    path = _path_of(name, tmp_path)
    with open(path) as fh:
        loader = LOADERS[detect_kind(json.load(fh))]
    refused = None
    try:
        loader(path)
    except (InputError, BoundError) as e:
        refused = e
    code, verdicts = _validate(capsys, path)
    if refused is None:
        # loaders are axiom-free, so only the group and action axioms may fail
        assert code in (EXIT_PASS, EXIT_VIOLATION)
        assert not {v["law"] for v in verdicts if not v["ok"]} & STRUCTURAL_LAWS
        return
    assert code != EXIT_PASS
    if isinstance(refused, LawError):
        assert code == EXIT_VIOLATION
        assert verdicts[-1] == refused.verdict.as_dict()
        assert all(v["ok"] for v in verdicts[:-1])
    elif isinstance(refused, BoundError):
        assert (code, verdicts) == (EXIT_BOUND, None)
    else:
        assert (code, verdicts) == (EXIT_INPUT, None)


def test_the_malformed_files_cover_every_structural_law(tmp_path):
    laws = set()
    for name in MALFORMED:
        try:
            LOADERS[detect_kind(MALFORMED[name])](_path_of(name, tmp_path))
        except LawError as e:
            laws.add(e.verdict.law)
        except (InputError, BoundError):
            pass
    assert laws == STRUCTURAL_LAWS


def test_validate_reports_the_laws_checked_before_a_refusal(tmp_path, capsys):
    code, verdicts = _validate(capsys, _path_of("automaton_on_a_bad_transport", tmp_path))
    assert code == EXIT_VIOLATION
    assert [(v["law"], v["ok"]) for v in verdicts] == [
        ("group-axioms", True),
        ("action-axioms", True),
        ("action-transitive", True),
        ("coordinate-transport", False),
    ]
    assert verdicts[-1]["witness"] == {"cell": 1, "coord": 4, "lands_on": 2}
    code, verdicts = _validate(capsys, str(FIXTURES / "square_or.json"))
    assert code == EXIT_PASS
    assert [v["law"] for v in verdicts] == [
        "group-axioms",
        "action-axioms",
        "action-transitive",
        "coordinate-transport",
        "neighborhood-closed",
    ]


# ------------------------------------------------------ wrong-typed fields


AUTOMATON_FIELDS = [
    ("states", "x"),
    ("space", [1]),
    ("delta", [0, 1.5]),
    ("delta", 7),
    ("neighborhood", ["1"]),
]
GLOBAL_MAP_FIELDS = [("states", "x"), ("space", [1]), ("table", [0, 8.5] + list(range(2, 16)))]
GROUP_FIELDS = [("mul", [[0, 1, 2, 3.5]] * 4), ("order", 4.0)]
WRONG_TYPED = (
    [
        (cmd, "cyclic4_shift.json", f, v)
        for cmd in ("validate", "run", "laws", "invert")
        for f, v in AUTOMATON_FIELDS
    ]
    + [
        (cmd, "cyclic4_shift_globalmap.json", f, v)
        for cmd in ("validate", "extract")
        for f, v in GLOBAL_MAP_FIELDS
    ]
    + [("validate", "cyclic4_group.json", f, v) for f, v in GROUP_FIELDS]
)
ARGV = {
    "validate": [],
    "run": ["--config", "1,0,0,0"],
    "laws": ["--suite", "chl"],
    "extract": [],
    "invert": [],
}


@pytest.mark.parametrize("command, fixture, field, value", WRONG_TYPED)
def test_wrong_typed_fields_are_input_errors(command, fixture, field, value, tmp_path, capsys):
    path = tmp_path / "wrong.json"
    write_json(path, _edited(fixture, **{field: value}))
    code = main([command, str(path)] + ARGV[command])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert captured.err.startswith("input error:")
    assert field in captured.err.splitlines()[0]


NUMPY_MA_PROBE = """
import contextlib, io, sys
from homoca.cli import main
if "numpy.ma" in sys.modules:
    print("eager")
    raise SystemExit
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["validate", path]) for path in sys.argv[1:]]
print(*codes)
print("numpy.ma" in sys.modules)
"""


def test_validate_leaves_numpy_ma_unimported():
    # plain np.unique imports numpy.ma on first use under NumPy 2, a cost
    # every validate process would pay; NumPy 1 imports it with numpy
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    paths = sorted(str(p) for p in FIXTURES.glob("*.json"))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, *paths], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "eager":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    codes, imported = done.stdout.splitlines()
    assert sorted(set(codes.split())) == [str(EXIT_PASS), str(EXIT_VIOLATION)]
    assert len(codes.split()) == len(paths)
    assert imported == "False"
