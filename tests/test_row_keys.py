"""One key per row of digits: `encoding.row_names`.

The helper names each row of an [N, width] array of digits below a radix
by the first row equal to it, and looks up the rows of another array the
same way.  Its key is the row's code, exact in a uint64 while
radix**width fits 64 bits, and the row's bytes past that.  The oracles
are `np.unique` over the rows, for the names, and a dict from each row's
bytes to the first index holding them, for the lookup.  The cases cover
radixes that are not the width, rows whose codes reach exactly 2**64 - 1
(16**16 and 2**64 codes), and rows just past that, where a code would
wrap in a uint64.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoca.encoding import decode, row_names


def unique_names(rows):
    """The first row equal to each row, by np.unique over the rows."""
    _, first, label = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first[label.ravel()]


def looked_up(rows, batch):
    """The first row of rows equal to each row of batch, or len(rows)."""
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    return [first.get(row.tobytes(), len(rows)) for row in batch]


@st.composite
def digit_rows(draw):
    """Rows of digits below a radix drawn apart from the width, about half
    of them repeats, and a batch to look up: some rows, some new ones."""
    radix = draw(st.integers(1, 300))
    width = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct digits make equal rows likely at any width
    spread = int(rng.integers(1, min(radix, 3) + 1))
    rows = rng.integers(radix - spread, radix, size=(draw(st.integers(1, 40)), width))
    repeats = rng.integers(0, len(rows), size=len(rows) // 2)
    rows[rng.permutation(len(rows))[: len(repeats)]] = rows[repeats]
    batch = np.concatenate([rows[rng.integers(0, len(rows), size=5)], rng.integers(0, radix, size=(5, width))])
    return rows, batch, radix


def _wrapping(radix, width):
    """A row whose code is 2**64, which wraps to 0 in a uint64, the code
    of the zero row, and the zero row."""
    return np.array([decode(2**64, radix, width), [0] * width], dtype=np.int64)


@settings(deadline=None)
@given(digit_rows())
@example((np.full((3, 16), 15), np.zeros((1, 16), dtype=np.int64), 16))  # 16**16 codes, the top one 2**64 - 1
@example((np.eye(64, dtype=np.int64)[[63, 0, 63]], np.ones((1, 64), dtype=np.int64), 2))  # 2**64 codes
@example((np.ones((2, 64), dtype=np.int64), np.eye(64, dtype=np.int64)[[63]], 2))
@example((_wrapping(2, 65), np.zeros((1, 65), dtype=np.int64), 2))  # just past: 2**65 codes
@example((_wrapping(16, 17), _wrapping(16, 17)[::-1], 16))  # just past: 16**17 codes
@example((_wrapping(3, 41), np.zeros((1, 41), dtype=np.int64), 3))  # 3**41 codes
@example((_wrapping(300, 8), _wrapping(300, 8)[::-1], 300))  # 300**8 codes
@example((np.zeros((2, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64), 5))
def test_names_and_lookups_are_the_row_oracles(case):
    rows, batch, radix = case
    names, find = row_names(rows, radix)
    assert names.tolist() == unique_names(rows).tolist()
    assert find(batch).tolist() == looked_up(rows, batch)

