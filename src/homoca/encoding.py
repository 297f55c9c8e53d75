"""Mixed-radix packing of digit tuples into table indices.

A tuple (d_0, ..., d_{w-1}) with digits below `radix` is packed as
sum(d_i * radix**i).  Local rules and whole configurations are both
indexed this way, with positions in a fixed sorted order.

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
    out = np.empty((len(codes), width), dtype=np.uint8, order="F")
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
    taken in int64 explicitly, so uint8 digits never wrap, and on blocks
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
