"""Mixed-radix packing of digit tuples into table indices.

A tuple (d_0, ..., d_{w-1}) with digits below `radix` is packed as
sum(d_i * radix**i).  Local rules and whole configurations are both
indexed this way, with positions in a fixed sorted order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


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
