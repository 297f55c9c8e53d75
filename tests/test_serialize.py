"""JSON round trips for every file kind, path references, and rule widening."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homoca.automata import step
from homoca.encoding import decode, encode
from homoca.errors import InputError
from homoca.laws import GlobalMap, global_table
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
