"""JSON files for groups, actions, cell spaces, automata and global maps.

Nested objects may be inlined or referenced by a path relative to the
containing file.  Writers always inline, so emitted files are
self-contained; readers accept both.  All indices are 0-based and tables
are row-major; inverses are computed on load rather than stored.

Files are UTF-8, read as `open(path, encoding="utf-8")` reads them, with
universal newlines.  A compact integer table, an object member's value
written without whitespace as `json.dump(..., separators=(",", ":"))`
writes it, decodes straight to an int64 array, with no Python int per
entry; everything else, indented tables included, goes through `json`.
Either way a file loads to the same values, and a malformed one raises
the same error.  A file is read once, as bytes: one numpy scan of its
"]" bytes finds each table's end and its row boundaries, the rows go to
`np.fromstring` joined, and only the text around the tables is decoded.
A compact table's text must be digits and single commas between its row
brackets; its rows must hold one width and its entries no leading
zeros, which one check decides: each row is as long as its decoded
values' decimal lengths plus the commas between them.  `write_json`
output stays indented.
"""

from __future__ import annotations

import json
import operator
import os
from typing import Optional, Union

import numpy as np

from .automata import MAX_RULE_TABLE, SemiCellularAutomaton, closed_neighborhood
from .cellspace import CellSpace, CoordinateSystem, build_coordinate_system
from .encoding import pattern_codes
from .errors import InputError
from .groups import FiniteGroup, LeftAction
from .laws import GlobalMap, config_count

Source = Union[str, os.PathLike, dict]


# decodes to the marker that holds a table's place while json parses the rest
_MARKER_ESCAPE = b"\\u0000"


def _text(raw: bytes) -> str:
    """The text open(path, encoding="utf-8") reads from a file holding
    `raw`: newlines are universal, so "\\r\\n" and a lone "\\r" read as
    "\\n".  Raises UnicodeDecodeError for the first byte that is not UTF-8."""
    text = raw.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _matrix(body, closes: np.ndarray) -> Optional[np.ndarray]:
    """The table whose rows, without the outer brackets, the bytes `body`
    join with "],[", when each entry is a JSON integer in 0..2^31-1 and the
    rows have one width; otherwise None.  `closes` holds the offsets of
    the "]" bytes in body, in increasing order."""
    chars = np.frombuffer(body, dtype=np.uint8)
    # each "]" must begin a row boundary "],["; a "[" anywhere else is
    # left in the joined rows and refused there
    if closes.size and (
        closes[-1] + 2 >= chars.size
        or not ((chars[closes + 1] == ord(",")) & (chars[closes + 2] == ord("["))).all()
    ):
        return None
    starts = np.concatenate(([0], closes + 3))
    stops = np.concatenate((closes, [chars.size]))
    view = memoryview(body)
    flat = b",".join([view[a:b] for a, b in zip(starts.tolist(), stops.tolist())])
    if not flat:
        return None
    chars = np.frombuffer(flat, dtype=np.uint8)
    comma = chars == ord(",")
    # digits and commas only: nothing above "9", and below "0" only commas
    if chars.max() > ord("9") or np.count_nonzero(chars < ord("0")) != np.count_nonzero(comma):
        return None
    # an empty entry leaves a comma at either end or two in a row
    if comma[0] or comma[-1] or (comma[1:] & comma[:-1]).any():
        return None
    # only digits and single commas are left, so every piece parses;
    # int64 overflow saturates, so the bound also refuses what did not fit
    values = np.fromstring(flat, dtype=np.int64, sep=",")
    top = values.max()
    if top >= 1 << 31 or values.size % starts.size:
        return None
    table = values.reshape(starts.size, -1)
    # every row is as long as its values' decimal lengths plus the commas
    # between them exactly when each holds `width` entries without leading
    # zeros: the lengths add up only without leading zeros, and then the
    # first row holding another count of entries is shorter or longer
    lengths = np.full(starts.size, 2 * table.shape[1] - 1)
    power = 10
    while power <= top:
        lengths += np.count_nonzero(table >= power, axis=1)
        power *= 10
    if not np.array_equal(lengths, stops - starts):
        return None
    return table


def _loads(raw: bytes):
    """json.loads of the text a file holding `raw` reads as, but each
    compact integer table decodes straight to an int64 array.

    One scan of the "]" bytes finds every table's end, the first "]]"
    after its "[[", and every row boundary inside it.  Each table is
    swapped for a marker string, and only the text around the tables is
    decoded; json parses that small remainder, and the arrays go back in
    place of their markers.  Should any table fail the checks, the
    remainder fail to decode or parse, or a marker not come back exactly
    once as a member value, json decodes the whole text, so values and
    errors are those of json.loads alone.
    """
    start = raw.find(b"[[")
    if start == -1:
        return json.loads(_text(raw))
    closes = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("]"))
    # the first "]" of each "]]"
    ends = closes[:-1][np.diff(closes) == 1]
    view = memoryview(raw)
    pieces, tables, end = [], [], 0
    while start != -1:
        i = int(np.searchsorted(ends, start))
        table = None
        if i < ends.size and raw[start - 2 : start] == b'":':
            close = int(ends[i])
            inside = closes[np.searchsorted(closes, start) : np.searchsorted(closes, close)]
            table = _matrix(view[start + 2 : close], inside - (start + 2))
        if table is None:
            return json.loads(_text(raw))
        pieces += [raw[end:start], b'"%s%d"' % (_MARKER_ESCAPE, len(tables))]
        tables.append(table)
        end = close + 2
        start = raw.find(b"[[", end)
    pieces.append(raw[end:])
    # a table holds only digits, commas and brackets, so the escape can
    # only be in the text around the tables
    if any(_MARKER_ESCAPE in piece for piece in pieces[::2]):
        return json.loads(_text(raw))

    restored = []

    def restore(obj: dict) -> dict:
        for key, value in obj.items():
            if isinstance(value, str) and value[:1] == "\0":
                obj[key] = tables[int(value[1:])]
                restored.append(key)
        return obj

    try:
        data = json.loads(_text(b"".join(pieces)), object_hook=restore)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return json.loads(_text(raw))
    return data if len(restored) == len(tables) else json.loads(_text(raw))


def _load_json(path: Union[str, os.PathLike]) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    try:
        data = _loads(raw)
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: byte {e.object[e.start]:#04x}, {e.reason}") from None
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


def _shown(value):
    """A field value as the file spells it: a decoded table shows as lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _require(data: dict, key: str, what: str):
    if key not in data:
        raise InputError(f"{what} is missing the '{key}' field")
    return data[key]


def _nested(data: dict, key: str, what: str, base_dir: Optional[str]) -> tuple[dict, Optional[str]]:
    """The object in field `key`, inline or as a path relative to the file."""
    source = _require(data, key, what)
    if not isinstance(source, (dict, str)):
        raise InputError(f"{what} field '{key}' must be an object or a file path, got {_shown(source)!r}")
    return _resolve(source, base_dir)


def _int(data: dict, key: str, what: str) -> int:
    value = _require(data, key, what)
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} field '{key}' must be an integer, got {_shown(value)!r}") from None


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
    if states < 1 or states ** len(closed) > MAX_RULE_TABLE:
        # the constructor refuses these before the gather below would allocate
        return SemiCellularAutomaton(space, states, closed, rule)
    # the added names are ignored: the widened rule projects onto the given ones
    positions = [closed.index(j) for j in given]
    # as Python ints, so the constructor reports an out-of-range entry of any size
    widened = np.array(rule, dtype=object)[pattern_codes(states, len(closed), positions)]
    return SemiCellularAutomaton(space, states, closed, widened)


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
