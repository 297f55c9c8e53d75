"""Greedy generators of a set of maps, closed in batches.

`generator_indices` names each row by one sortable key, looks up the
right products of every row with a chosen row in one batch, and walks
the closure on those names.  The oracle is the closure it replaced, kept
verbatim: a dict from each map's bytes, grown one product at a time.  The
chosen indices must be the oracle's on group actions (every bundled
space, symmetric groups, in member order and shuffled), on sets that are
not closed, on maps that are not permutations, and on rows both narrow
enough for an exact packed key and too wide for one.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoca.automata import generator_indices
from homoca.catalog import bundled_spaces, cyclic_space, group_from_permutations
from homoca.laws import shift_cells


def looped_generator_indices(rows):
    """generator_indices as it closed the rows in dict loops."""
    by_key = {row.tobytes(): row for row in rows}
    identity = np.arange(rows.shape[1], dtype=rows.dtype)
    closure = {identity.tobytes(): identity}
    chosen = []
    for k, row in enumerate(rows):
        if row.tobytes() in closure:
            continue
        chosen.append(k)
        # applying e and then s is applying e[s]; right products with the
        # chosen rows reach every word in them from the identity
        frontier = list(closure.values())
        while frontier:
            grown = []
            for e in frontier:
                for g in chosen:
                    key = e[rows[g]].tobytes()
                    if key in by_key and key not in closure:
                        closure[key] = by_key[key]
                        grown.append(by_key[key])
            frontier = grown
    return chosen


def _shuffled(rows, seed):
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    return rows[order]


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_shift_rows_of_the_bundled_spaces(name):
    space = bundled_spaces()[name]
    rows = shift_cells(space, space.group.elements())
    for seed in range(5):
        shuffled = rows if seed == 0 else _shuffled(rows, seed)
        assert generator_indices(shuffled) == looped_generator_indices(shuffled)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_symmetric_groups_and_their_subsets(n):
    act = group_from_permutations([tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]).act
    rows = act.astype(np.int64)
    rng = random.Random(n)
    for seed in range(4):
        subset = rows[sorted(rng.sample(range(len(rows)), len(rows) // (seed + 1)))]
        subset = _shuffled(subset, seed)
        chosen = generator_indices(subset)
        assert chosen == looped_generator_indices(subset)
        assert len(chosen) <= len(subset)


def test_rows_too_wide_for_a_packed_key():
    # 2**64 < 17**17: the rows are looked up by their bytes
    space = cyclic_space(20)
    rows = shift_cells(space, space.group.elements())
    assert generator_indices(rows) == looped_generator_indices(rows) == [1]
    for seed in range(1, 4):
        shuffled = _shuffled(rows, seed)
        assert generator_indices(shuffled) == looped_generator_indices(shuffled)


@pytest.mark.parametrize("width", [17, 18, 20, 32])
def test_rows_whose_radix_codes_wrap_to_one_uint64_are_told_apart(width):
    # the base-width digits of 2**64 spell a map of width points whose
    # radix code wraps to 0 in a uint64, the code of the constant map 0;
    # a packed key at these widths would name it as that map
    digits = [(2**64 // width**i) % width for i in range(width)]
    assert sum(d * width**i for i, d in enumerate(digits)) == 2**64
    rows = np.array([[0] * width, digits], dtype=np.int64)
    assert generator_indices(rows) == looped_generator_indices(rows) == [0, 1]


@st.composite
def maps(draw):
    """Rows of maps on `width` points: powers of two random maps, so that
    products often are rows, plus random maps and repeats, shuffled."""
    width = draw(st.integers(1, 20))
    count = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = [rng.integers(0, width, size=width), rng.permutation(width)]
    rows = [np.arange(width)]
    for _ in range(count):
        pick = int(rng.integers(0, 4))
        if pick < 2:
            rows.append(rows[-1][bases[pick]])
        elif pick == 2:
            rows.append(rng.integers(0, width, size=width))
        else:
            rows.append(rows[int(rng.integers(0, len(rows)))])
    rows = np.array(rows[draw(st.integers(0, 1)) :], dtype=np.int64).reshape(-1, width)
    return rows[rng.permutation(len(rows))]


@settings(deadline=None)
@given(maps())
@example(np.full((2, 16), 15, dtype=np.int64))  # the largest packed key, 2**64 - 1
@example(np.array([[1, 0], [0, 1], [1, 0]], dtype=np.int64))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((2, 0), dtype=np.int64))
def test_the_batched_closure_chooses_what_the_dict_loop_chose(rows):
    assert generator_indices(rows) == looped_generator_indices(rows)
