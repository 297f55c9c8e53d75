"""The compact-table decoder against the checks it replaced.

`serialize._matrix` reads a table's body as bytes, and checks row
widths and leading zeros by comparing each row's length with the decimal
lengths of its decoded values.  The oracle is the decoder as it was,
kept verbatim: a set of per-row comma counts and a count of the values'
decimal digits, over text.  Over text built from digits, commas,
brackets, signs, spaces and a non-ASCII digit, the decoder given the
UTF-8 bytes and the oracle given the text must accept the same bodies
and decode them to the same arrays, whether it joins the rows with one
`bytes.replace` (short rows) or from one slice per row (long rows).
"""

import json
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoca import serialize
from homoca.serialize import _loads, _matrix


def _decimal_digits(values: np.ndarray) -> int:
    """The digits the non-negative values take in decimal, without leading zeros."""
    total, power, top = values.size, 10, values.max()
    while power <= top:
        total += int(np.count_nonzero(values >= power))
        power *= 10
    return total


def comma_count_matrix(body: str) -> Optional[np.ndarray]:
    """_matrix as it checked widths by comma counts and zeros by digit counts."""
    rows = body.split("],[")
    flat = ",".join(rows)
    if len({row.count(",") for row in rows}) != 1 or not flat or not flat.isascii():
        return None
    chars = np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
    comma = chars == ord(",")
    if not (comma | (chars - ord("0") < 10)).all():
        return None
    # an empty entry leaves a comma at either end or two in a row
    if comma[0] or comma[-1] or (comma[1:] & comma[:-1]).any():
        return None
    # only digits and single commas are left, so every piece parses
    values = np.fromstring(flat, dtype=np.int64, sep=",")
    # int64 overflow saturates, so this also refuses what did not fit;
    # more digits than the values' decimal lengths means a leading zero
    digits = chars.size - int(np.count_nonzero(comma))
    if values.max() >= 1 << 31 or _decimal_digits(values) != digits:
        return None
    return values.reshape(len(rows), -1)


EDGES = [0, 9, 10, 99, 100, 2**31 - 1, 2**31, 2**32, 2**63 - 1, 2**63, 10**19, 10**25]


@st.composite
def entries(draw):
    """An entry as a compact table spells it, or one of the ways it can go wrong."""
    kind = draw(st.sampled_from(["value", "value", "value", "zeros", "empty", "junk"]))
    value = draw(st.one_of(st.integers(0, 2**31 + 5), st.sampled_from(EDGES)))
    if kind == "value":
        return str(value)
    if kind == "zeros":
        return "0" * draw(st.integers(1, 3)) + str(value)
    if kind == "empty":
        return ""
    return draw(st.text(st.sampled_from("0123456789-+ ,[]٣"), min_size=1, max_size=4))


@st.composite
def bodies(draw):
    """Rows of entries joined as "],[" and "," join them; most rows share a
    width, some are ragged, and some bodies are plain text from the alphabet."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text(st.sampled_from("0123456789-+ ,[]٣"), max_size=24))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = []
    for _ in range(height):
        n = width if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        rows.append(",".join(draw(entries()) if draw(st.integers(0, 5)) == 0 else str(draw(st.integers(0, 999))) for _ in range(n)))
    return "],[".join(rows)


def matrix(body: str) -> Optional[np.ndarray]:
    """_matrix given the body's UTF-8 bytes and the offsets of its "]" bytes."""
    raw = body.encode()
    return _matrix(raw, np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("]")))


def _same(got, want):
    if want is None:
        return got is None
    return got is not None and got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@settings(deadline=None)
@given(bodies())
@example("1,2],[3")  # ragged rows, one comma over
@example("1,2,3],[45")  # ragged rows, the same count of values as two of width 2
@example("1,2],[3,4],[5,6,7],[8")
@example("01,2],[3,4")  # a leading zero
@example("0,12],[3,4")
@example("10,2],[3,04")  # a leading zero in the last row
@example("2147483647,0")  # 2^31 - 1, the largest entry taken
@example("2147483648,0")  # 2^31
@example("99999999999999999999999")  # saturates int64
@example("1,,2")
@example("1,2],[],[3,4")
@example("-1,2")
@example("+1,2")
@example("1 ,2")
@example("٣,2")
@example("")
def test_the_decoder_accepts_what_the_comma_counts_accepted(body):
    assert _same(matrix(body), comma_count_matrix(body))


@settings(deadline=None)
@given(bodies())
@example("1,2],[3")
@example("01,2],[3,4")
def test_rows_joined_from_slices_decode_as_the_comma_counts_decoded(body):
    # these bodies are short, so their rows are joined with one replace
    # unless every row counts as long
    with mock.patch.object(serialize, "_SLICED_ROW_BYTES", 0):
        assert _same(matrix(body), comma_count_matrix(body))


def _wide_bodies():
    """Rows of up to 3000 entries, far wider than the drawn bodies, each
    whole and with a leading zero or one entry too many in the last row."""
    for width in (30, 300, 3000):
        rows = [[str((7 * i + j) % 100000) for j in range(width)] for i in range(3)]
        yield "],[".join(",".join(row) for row in rows)
        for flawed in ("0" + rows[2][-1], rows[2][-1] + ",5"):
            edited = [row[:] for row in rows]
            edited[2][-1] = flawed
            yield "],[".join(",".join(row) for row in edited)


@pytest.mark.parametrize("body", list(_wide_bodies()), ids=lambda body: f"{len(body)}b")
def test_wide_rows_decode_as_the_comma_counts_decoded(body):
    assert _same(matrix(body), comma_count_matrix(body))


def test_the_marker_escape_outside_a_table_falls_back_to_json():
    # the escape decodes to the marker that holds a table's place; the
    # loader decodes this table itself only with its floor at 1
    text = '{"mul":[[0,1],[1,0]],"note":"\\u00000"}'
    with mock.patch.object(serialize, "TABLE_DECODE_ENTRIES", 1):
        data = _loads(text.encode())
    assert data == {"mul": data["mul"], "note": "\x000"}
    assert data == json.loads(text)
    assert isinstance(data["mul"], list)


def test_a_marker_spelled_inside_a_table_is_refused_as_json_refuses_it():
    text = '{"mul":[[0,"\\u00000"],[1,0]]}'
    with mock.patch.object(serialize, "TABLE_DECODE_ENTRIES", 1):
        assert _loads(text.encode()) == json.loads(text)
