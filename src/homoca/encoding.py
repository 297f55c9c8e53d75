"""Mixed-radix packing of digit tuples into table indices.

A tuple (d_0, ..., d_{w-1}) with digits below `radix` is packed as
sum(d_i * radix**i).  Local rules and whole configurations are both
indexed this way, with positions in a fixed sorted order.

This module alone decides how digits are stored, in the smallest
unsigned type that holds radix - 1 (`digit_dtype`), and how a row of
them is keyed (`row_names`).

Re-indexing a local rule (rotating it by a stabilizer element, widening
it to a closed neighborhood, conjugating it into other coordinates,
composing two rules, projecting onto some positions) re-packs every
pattern through a map of positions.  `pattern_codes` is that one
re-pack; the rule tables read their new entries through it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .bounds import GATHER_BLOCK


def encode(digits: Sequence[int], radix: int) -> int:
    code = 0
    for i, d in enumerate(digits):
        code += d * radix**i
    return code


def decode(code: int, radix: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        code, d = divmod(code, radix)
        out.append(d)
    return tuple(out)


def weights(radix: int, width: int) -> np.ndarray:
    return radix ** np.arange(width, dtype=np.int64)


def digit_dtype(radix: int) -> np.dtype:
    """The smallest unsigned type that holds every digit below radix.
    With radix a configuration count it is the code type of the global
    tables in `homoca.laws`."""
    return np.min_scalar_type(radix - 1)


@lru_cache(maxsize=64)
def digit_matrix(radix: int, width: int) -> np.ndarray:
    """All radix**width digit tuples as rows, row index == encoded value.

    Cached and frozen: callers index or matmul it, never write to it.
    Stored column-major, so the digits of one position over all codes
    are contiguous for the callers that gather columns.  The table,
    shift and dependency kernels in laws take only half-width matrices,
    of at most radix**ceil(cells / 2) rows, times a weight matrix.
    """
    codes = np.arange(radix**width, dtype=np.int64)
    out = np.empty((len(codes), width), dtype=digit_dtype(radix), order="F")
    for i in range(width):
        out[:, i] = (codes // radix**i) % radix
    out.setflags(write=False)
    return out


def pattern_codes(radix: int, width: int, positions) -> np.ndarray:
    """Each of the radix**width patterns re-packed through `positions`.

    For positions p of length k, entry c is the code of the k-tuple
    (d_{p[0]}, ..., d_{p[k-1]}) of pattern c's digits; for a 2-d array of
    positions, entry [c, r] re-packs pattern c through row r.  So
    table[pattern_codes(...)] is a table over the width-digit patterns
    that reads each one's entry at the re-packed code.  The product is
    taken in int64 explicitly, so narrow digits never wrap, and on blocks
    of at most GATHER_BLOCK gathered digits, so the int64 copy the
    product makes of them is one block's, not the whole gather's: the
    peak stays near the result's size.
    """
    positions = np.asarray(positions, dtype=np.intp)
    digits = digit_matrix(radix, width)
    w = weights(radix, positions.shape[-1])
    out = np.empty((len(digits),) + positions.shape[:-1], dtype=np.int64)
    rows = max(1, GATHER_BLOCK // max(positions.size, 1))
    for start in range(0, len(digits), rows):
        block = slice(start, start + rows)
        np.matmul(digits[block, positions], w, dtype=np.int64, out=out[block])
    return out


def row_names(rows: np.ndarray, radix: int):
    """Each row of `rows`, an [N, width] array of digits below `radix`,
    named by the index of the first row equal to it, as an array, and a
    lookup that names each row of another array like rows the same way,
    or N when it equals no row.

    Each row gets one key: its code, exact in a uint64 while
    radix**width fits 64 bits, and past that its bytes as one opaque
    value.  Sorting the keys stably orders equal rows together, in index
    order, so one searchsorted names a whole batch."""
    total, width = rows.shape
    if radix**width <= 1 << 64:
        place = radix ** np.arange(width, dtype=np.uint64)

        def keys(batch: np.ndarray) -> np.ndarray:
            return np.matmul(batch, place, dtype=np.uint64, casting="unsafe")

    else:
        kind = np.dtype((np.void, rows.dtype.itemsize * width))

        def keys(batch: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(batch).view(kind).ravel()

    key = keys(rows)
    order = key.argsort(kind="stable")
    ordered = key[order]

    def find(batch: np.ndarray) -> np.ndarray:
        key = keys(batch)
        at = np.minimum(ordered.searchsorted(key), total - 1)
        index = order[at]
        index[ordered[at] != key] = total
        return index

    return order[ordered.searchsorted(key)], find
