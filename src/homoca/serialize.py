"""JSON files for groups, actions, cell spaces, automata and global maps.

Nested objects may be inlined or referenced by a path relative to the
containing file.  Writers always inline, so emitted files are
self-contained; readers accept both.  All indices are 0-based and tables
are row-major; inverses are computed on load rather than stored.
"""

from __future__ import annotations

import json
import operator
import os
from typing import Optional, Union

from .automata import SemiCellularAutomaton, closed_neighborhood
from .cellspace import CellSpace, CoordinateSystem, build_coordinate_system
from .encoding import decode, encode
from .errors import InputError
from .groups import FiniteGroup, LeftAction
from .laws import GlobalMap, config_count

Source = Union[str, os.PathLike, dict]


def _load_json(path: Union[str, os.PathLike]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _resolve(source: Source, base_dir: Optional[str]) -> tuple[dict, Optional[str]]:
    """Return the dict for a path-or-inline source plus its base directory."""
    if isinstance(source, dict):
        return source, base_dir
    path = os.path.join(base_dir, source) if base_dir and not os.path.isabs(source) else str(source)
    return _load_json(path), os.path.dirname(os.path.abspath(path))


def _require(data: dict, key: str, what: str):
    if key not in data:
        raise InputError(f"{what} is missing the '{key}' field")
    return data[key]


def _nested(data: dict, key: str, what: str, base_dir: Optional[str]) -> tuple[dict, Optional[str]]:
    """The object in field `key`, inline or as a path relative to the file."""
    source = _require(data, key, what)
    if not isinstance(source, (dict, str)):
        raise InputError(f"{what} field '{key}' must be an object or a file path, got {source!r}")
    return _resolve(source, base_dir)


def _int(data: dict, key: str, what: str) -> int:
    value = _require(data, key, what)
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} field '{key}' must be an integer, got {value!r}") from None


def _ints(data: dict, key: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(operator.index, _require(data, key, what)))
    except TypeError:
        raise InputError(f"{what} field '{key}' must be a list of integers") from None


def load_group(source: Source, base_dir: Optional[str] = None) -> FiniteGroup:
    data, _ = _resolve(source, base_dir)
    order = _int(data, "order", "group file")
    mul = _require(data, "mul", "group file")
    return FiniteGroup(order, mul, _int(data, "identity", "group file"))


def dump_group(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "mul": group.mul.tolist(),
        "identity": group.identity,
    }


def load_action(source: Source, base_dir: Optional[str] = None) -> LeftAction:
    data, base = _resolve(source, base_dir)
    group = load_group(*_nested(data, "group", "action file", base))
    points = _int(data, "points", "action file")
    return LeftAction(group, points, _require(data, "act", "action file"))


def dump_action(action: LeftAction) -> dict:
    return {
        "group": dump_group(action.group),
        "points": action.points,
        "act": action.act.tolist(),
    }


def space_on(action: LeftAction, data: dict) -> CellSpace:
    """The cell space a cell-space dict puts on an already loaded action."""
    origin = _int(data, "origin", "cell-space file")
    if data.get("coords") is not None:
        system = CoordinateSystem(action, origin, _ints(data, "coords", "cell-space file"))
    else:
        system = build_coordinate_system(action, origin)
    return CellSpace(system)


def load_space(source: Source, base_dir: Optional[str] = None) -> CellSpace:
    data, base = _resolve(source, base_dir)
    return space_on(load_action(*_nested(data, "action", "cell-space file", base)), data)


def dump_space(space: CellSpace) -> dict:
    return {
        "action": dump_action(space.action),
        "origin": space.origin,
        "coords": list(space.coords),
    }


def automaton_on(space: CellSpace, data: dict, auto_close: bool = False) -> SemiCellularAutomaton:
    """The automaton an automaton dict defines on an already loaded space.

    Neighborhood entries are group-element representatives; each is
    mapped to its coset.  With auto_close the neighborhood is saturated
    under the origin stabilizer and the rule ignores the added names;
    otherwise an unsaturated neighborhood is rejected.
    """
    states = _int(data, "states", "automaton file")
    reps = _ints(data, "neighborhood", "automaton file")
    rule = _ints(data, "delta", "automaton file")

    indices = []
    for g in reps:
        if not 0 <= g < space.group.order:
            raise InputError(f"neighborhood representative {g} out of range")
        indices.append(space.coset_index(g))
    if len(set(indices)) != len(indices):
        raise InputError("neighborhood representatives name the same coset twice")
    given = tuple(sorted(indices))
    if not auto_close:
        return SemiCellularAutomaton(space, states, given, rule)

    closed = closed_neighborhood(space, given)
    if closed == given:
        return SemiCellularAutomaton(space, states, given, rule)
    if len(rule) != states ** len(given):
        raise InputError(
            f"rule table has {len(rule)} entries, expected {states ** len(given)} before closure"
        )
    # the added names are ignored: the widened rule projects onto the given ones
    positions = [closed.index(j) for j in given]
    widened = []
    for code in range(states ** len(closed)):
        local = decode(code, states, len(closed))
        widened.append(rule[encode(tuple(local[p] for p in positions), states)])
    return SemiCellularAutomaton(space, states, closed, tuple(widened))


def load_automaton(
    source: Source, base_dir: Optional[str] = None, auto_close: bool = False
) -> SemiCellularAutomaton:
    data, base = _resolve(source, base_dir)
    space = load_space(*_nested(data, "space", "automaton file", base))
    return automaton_on(space, data, auto_close)


def dump_automaton(ca: SemiCellularAutomaton) -> dict:
    return {
        "space": dump_space(ca.space),
        "states": ca.states,
        "neighborhood": [ca.space.coset_reps[j] for j in ca.neighborhood],
        "delta": list(ca.rule),
    }


def global_map_on(space: CellSpace, data: dict) -> GlobalMap:
    """The global map a global-map dict defines on an already loaded space."""
    states = _int(data, "states", "global-map file")
    table = _ints(data, "table", "global-map file")
    expected = config_count(space, states)
    if len(table) != expected:
        raise InputError(f"global-map table has {len(table)} entries, expected {expected}")
    return GlobalMap(space, states, table)


def load_global_map(source: Source, base_dir: Optional[str] = None) -> GlobalMap:
    data, base = _resolve(source, base_dir)
    return global_map_on(load_space(*_nested(data, "space", "global-map file", base)), data)


def dump_global_map(gm: GlobalMap) -> dict:
    return {
        "space": dump_space(gm.space),
        "states": gm.states,
        "table": [int(x) for x in gm.table],
    }


def detect_kind(data: dict) -> str:
    if "mul" in data:
        return "group"
    if "act" in data:
        return "action"
    if "delta" in data:
        return "automaton"
    if "table" in data:
        return "global-map"
    if "action" in data:
        return "space"
    raise InputError("cannot tell what kind of file this is")


def write_json(path: Union[str, os.PathLike], data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
