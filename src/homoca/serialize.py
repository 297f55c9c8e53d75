"""JSON files for groups, actions, cell spaces, automata and global maps.

Nested objects may be inlined or referenced by a path relative to the
containing file.  Writers always inline, so emitted files are
self-contained; readers accept both.  All indices are 0-based and tables
are row-major; inverses are computed on load rather than stored.

Files are UTF-8, read as `open(path, encoding="utf-8")` reads them, with
universal newlines.  An integer table, an object member's value opening
two lists, decodes straight to an int64 array, with no Python int per
entry, when it holds TABLE_DECODE_ENTRIES entries or more (see
`homoca.bounds`); json parses smaller tables faster.  The table may be
compact, as `json.dump(..., separators=(",", ":"))` writes it, or carry
JSON whitespace between any of its tokens, as `write_json` indents it,
but never inside a number.  Either way a file loads to the same values,
and a malformed one raises the same error.  A file is read once, as
bytes: one numpy scan of its "]" bytes finds each table's end and its
row boundaries, the rows go to `np.fromstring` joined, and only the text
around the tables is decoded.  A table's text, its whitespace removed,
must be digits and single commas between its row brackets; its rows must
hold one width and its entries no leading zeros, which one check
decides: each row is as long as its decoded values' decimal lengths plus
the commas between them.  `write_json` output stays indented.
"""

from __future__ import annotations

import json
import operator
import os
import re
from typing import Optional, Union

import numpy as np

from .automata import MAX_RULE_TABLE, SemiCellularAutomaton, closed_neighborhood
from .bounds import TABLE_DECODE_ENTRIES
from .cellspace import CellSpace, CoordinateSystem, build_coordinate_system
from .encoding import pattern_codes
from .errors import InputError
from .groups import FiniteGroup, LeftAction
from .laws import GlobalMap, config_count

Source = Union[str, os.PathLike, dict]


# decodes to the marker that holds a table's place while json parses the rest
_MARKER_ESCAPE = b"\\u0000"
# JSON's whitespace, allowed between the tokens of a table but not inside a number
_WHITESPACE = b" \t\n\r"
_IS_WHITESPACE = np.zeros(256, dtype=bool)
_IS_WHITESPACE[list(_WHITESPACE)] = True
_SKIP_WHITESPACE = re.compile(rb"[ \t\n\r]*")
# a member value opening two lists; group 1 is the outer "["
_TABLE_START = re.compile(rb'":[ \t\n\r]*(\[)[ \t\n\r]*\[')
# rows shorter than this many bytes, on average, are joined by one
# bytes.replace, longer ones from one memoryview slice each: the measured
# crossover, replace winning below about 80 bytes a row, slices above
# about 120 (S6's 720x6 table 0.17 against 0.26 ms, its 720x720 table
# 20.1 against 16.5 ms)
_SLICED_ROW_BYTES = 100


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
    if chars.size < _SLICED_ROW_BYTES * starts.size:
        # short rows: one pass over the bytes costs less than a slice per row
        flat = bytes(body).replace(b"],[", b",")
    else:
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
    # first row holding another count of entries is shorter or longer.
    # An entry below 2^31 has at most 9 digits past its first, counted in
    # place in the bytes of the first comparison
    extra = (table >= 10).view(np.uint8)
    power = 100
    while power <= top:
        extra += table >= power
        power *= 10
    if (extra.sum(axis=1) != stops - starts - (2 * table.shape[1] - 1)).any():
        return None
    return table


def _spaced_matrix(body: bytes) -> Optional[np.ndarray]:
    """_matrix of a table body with JSON whitespace between its tokens, as
    `write_json` indents it, or around its outer brackets only.  Whitespace
    inside a number is refused, as json refuses it: removing the whitespace
    must not join two numbers, so the body's runs of digits are as many as
    the table's entries."""
    packed = body.translate(None, _WHITESPACE)
    table = _matrix(packed, np.flatnonzero(np.frombuffer(packed, dtype=np.uint8) == ord("]")))
    if table is None:
        return None
    digit = np.frombuffer(body, dtype=np.uint8) - ord("0") < 10
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[0])
    return table if runs == table.size else None


def _table_ends(raw: bytes, chars: np.ndarray, closes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "]" bytes that another "]" follows after at most whitespace, and
    the offset just past that second "]", for each of them: a table's body
    ends at the first of these after its start."""
    after = closes + 1
    if after.size and after[-1] == chars.size:
        # a "]" that ends the file ends no table
        after = after[:-1]
    for k in np.flatnonzero(_IS_WHITESPACE[chars[after]]).tolist():
        after[k] = _SKIP_WHITESPACE.match(raw, after[k]).end()
    within = after < chars.size
    end = within.copy()
    end[within] = chars[after[within]] == ord("]")
    return closes[: after.size][end], after[end] + 1


def _loads(raw: bytes):
    """json.loads of the text a file holding `raw` reads as, but each
    integer table of TABLE_DECODE_ENTRIES or more entries decodes
    straight to an int64 array.

    A table is a member value opening two lists, compact or with JSON
    whitespace between any of its tokens.  One scan of the "]" bytes
    finds every table's end, the first "]" that another "]" follows after
    at most whitespace, and every row boundary inside it; its size is its
    rows times the entries of its first row, and a table too small even
    with a row for every "]" after it is left to json before its end is
    found.  Each table that decodes is swapped for a marker string, and
    only the text around those tables is decoded; json parses it,
    smaller tables and tables that fail the checks included, and the
    arrays go back in place of their markers.
    Should that text fail to decode or parse, or a marker not come back
    exactly once as a member value, json decodes the whole text, so
    values and errors are those of json.loads alone.
    """
    # a table of TABLE_DECODE_ENTRIES entries spells at least a digit and a comma for each
    match = _TABLE_START.search(raw) if len(raw) >= 2 * TABLE_DECODE_ENTRIES else None
    if match is None:
        return json.loads(_text(raw))
    chars = np.frombuffer(raw, dtype=np.uint8)
    closes = np.flatnonzero(chars == ord("]"))
    ends = stops = None
    view = memoryview(raw)
    pieces, tables, end = [], [], 0
    while match is not None:
        start, inner = match.start(1), match.end()
        first = int(np.searchsorted(closes, inner))
        if first == closes.size:
            break
        width = raw.count(b",", inner, int(closes[first])) + 1
        resume = inner
        # a table has no more rows than "]" bytes after its start, so one
        # that cannot reach the floor is left to json before its end is found
        if (closes.size - first) * width >= TABLE_DECODE_ENTRIES:
            if ends is None:
                ends, stops = _table_ends(raw, chars, closes)
            i = int(np.searchsorted(ends, inner))
            if i == ends.size:
                break
            close, resume = int(ends[i]), int(stops[i])
            last = int(np.searchsorted(closes, close))
            if (last - first + 1) * width >= TABLE_DECODE_ENTRIES:
                table = None
                if inner - start == 2 and resume - close == 2:
                    table = _matrix(view[inner:close], closes[first:last] - inner)
                if table is None:
                    table = _spaced_matrix(raw[inner:close])
                if table is not None:
                    pieces += [raw[end:start], b'"%s%d"' % (_MARKER_ESCAPE, len(tables))]
                    tables.append(table)
                    end = resume
        match = _TABLE_START.search(raw, resume)
    if not tables:
        return json.loads(_text(raw))
    pieces.append(raw[end:])
    # a decoded table holds only digits, commas, brackets and whitespace,
    # so the escape can only be in the text around the tables
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
