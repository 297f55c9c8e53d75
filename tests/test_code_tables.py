"""Global tables in the code type, against the same tables in int64.

Global tables, shift permutations and inverse tables hold codes in the
code type, `digit_dtype(states**cells)`: uint8 up to 256 configurations
and uint16 up to the table bound.  Every kernel that reads a table must
give the verdict and witness it gives on the same table widened to int64.
Arithmetic that goes past a code must widen first: a pair index of the
relation matrices, or an entry moved down by the perturbed determination.
In the code type such a product wraps (`uint8 * 64`), and a Python int
out of the type's range (`uint8 * 256`, `uint8 + -1`) raises under
NumPy 2, where NumPy 1's value-based casting upcasts.  The determination
law reads no table any more; its table form, the oracle of the suite in
`table_oracles`, is held to the same rule here.

The edges: the cube at 2 states (64 codes, where `code * 64` wraps in
uint8), 256 codes (the last uint8 tables, where 256 itself is out of
range) on `cyclic_space(8)`, the 4-state square and the 4-state 4-cycle,
and 512 codes (uint16) on `cyclic_space(9)`.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca.automata import SemiCellularAutomaton, closed_neighborhood
from homoca.catalog import cube_space, cyclic_space, random_rule_automaton, square_space
from homoca.cli import _suite_determination
from homoca.encoding import decode, digit_dtype
from homoca.errors import EquivarianceError, InputError
from homoca.laws import (
    GlobalMap,
    NotInvertible,
    check_determination,
    check_equivariance,
    config_count,
    dependency_matrix,
    extract,
    global_table,
    invert,
    shift_code_permutation,
    table_inverse,
)
from homoca.uniformity import check_uniform_continuity, check_uniform_isomorphism
from table_oracles import table_determination, table_determination_suite

SPACES = {
    "cube": cube_space(),
    "square": square_space(),
    "cyclic4": cyclic_space(4),
    "cyclic8": cyclic_space(8),
    "cyclic9": cyclic_space(9),
}
# (space, states): 64, 729, 256, 256, 256 and 512 configurations
CASES = [("cube", 2), ("cube", 3), ("square", 4), ("cyclic4", 4), ("cyclic8", 2), ("cyclic9", 2)]


def widened(gm: GlobalMap) -> GlobalMap:
    """gm with its table widened to int64, past GlobalMap's cast."""
    wide = GlobalMap(gm.space, gm.states, gm.table)
    wide.table = gm.table.astype(np.int64)
    return wide


def widened_automaton(ca: SemiCellularAutomaton) -> SemiCellularAutomaton:
    """A fresh copy of ca whose memoized map is the widened one."""
    copy = SemiCellularAutomaton(ca.space, ca.states, ca.neighborhood, ca.rule)
    copy._global_map = widened(GlobalMap.from_automaton(ca))
    return copy


def counting_inverse(table):
    """table_inverse by counting preimages: the inverse, or the smallest
    shared image and its two smallest preimages."""
    counts = np.bincount(table, minlength=len(table))
    if counts.max() > 1:
        image = int(np.flatnonzero(counts > 1)[0])
        first, second = np.flatnonzero(table == image)[:2].tolist()
        return image, first, second
    inverse = np.empty(len(table), dtype=np.int64)
    inverse[table] = np.arange(len(table))
    return inverse


def outcome(f, *args):
    """What f gives: a verdict or automaton as plain values, or the error."""
    try:
        result = f(*args)
    except (EquivarianceError, InputError) as e:
        return type(e).__name__, str(e), getattr(e, "witness", None)
    if isinstance(result, SemiCellularAutomaton):
        return result.neighborhood, result.rule
    if isinstance(result, NotInvertible):
        return result.witness, result.sampled
    return result.as_dict()


@st.composite
def automata(draw):
    """A case and a rule on it: random on random cosets, raw or
    symmetrized, or a permutation of the states read at one coset."""
    name, states = draw(st.sampled_from(CASES))
    space = SPACES[name]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, min(3, space.num_cosets)))
    neighborhood = sorted(rng.sample(range(space.num_cosets), k))
    if draw(st.booleans()):
        ca = random_rule_automaton(space, neighborhood, states, rng, draw(st.booleans()))
    else:
        # a permutation of the state at coset j, ignoring the rest of j's
        # stabilizer closure
        j = rng.randrange(space.num_cosets)
        closed = closed_neighborhood(space, (j,))
        place = states ** closed.index(j)
        perm = rng.sample(range(states), states)
        rule = [perm[c // place % states] for c in range(states ** len(closed))]
        ca = SemiCellularAutomaton(space, states, closed, rule)
    return name, ca


# ---------------------------------------------------------------- types


@pytest.mark.parametrize("name, states", CASES)
def test_tables_permutations_and_inverses_are_in_the_code_type(name, states):
    space = SPACES[name]
    code = digit_dtype(states**space.cells)
    assert code == (np.uint8 if states**space.cells <= 256 else np.uint16)
    ca = SemiCellularAutomaton(space, states, (0,), tuple(range(states)))
    table = global_table(ca)
    assert table.dtype == code and not table.flags.writeable
    assert GlobalMap.from_automaton(ca).table is table
    assert table_inverse(table).dtype == code
    for g in space.group.elements():
        assert shift_code_permutation(space, g, states).dtype == code
    # a table in another type is range-checked as it is and then cast
    assert GlobalMap(space, states, table.astype(np.int64)).table.dtype == code
    assert GlobalMap(space, states, table.tolist()).table.dtype == code


def test_a_global_map_past_the_bound_takes_the_next_code_type():
    gm = GlobalMap(cyclic_space(17), 2, range(2**17))
    assert gm.table.dtype == np.uint32


@pytest.mark.parametrize("bad", [-1, 256, 2**64, -(2**70)])
def test_entries_outside_the_code_type_are_refused_before_the_cast(bad):
    table = list(range(256))
    table[17] = bad
    with pytest.raises(InputError, match="out of range"):
        GlobalMap(SPACES["cyclic8"], 2, table)


# ------------------------------------------------------ inverse tables


@settings(deadline=None)
@given(
    st.sampled_from([16, 64, 256, 512]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["permutation", "one collision", "random", "sum kept"]),
)
def test_the_scatter_inverse_matches_counting_preimages(total, seed, kind):
    rng = np.random.default_rng(seed)
    table = rng.permutation(total)
    if kind == "one collision":
        table[rng.integers(total)] = table[rng.integers(total)]
    elif kind == "random":
        table = rng.integers(0, total, total)
    elif kind == "sum kept":
        # one image down by one and another up by one: the images still
        # sum as a bijection's do, so the scatter runs, yet two codes share
        # an image unless the two moves cancel or swap two images
        down, up = np.argsort(table)[rng.choice(total - 1, 2, replace=False) + [1, 0]]
        table[down] -= 1
        table[up] += 1
    expected = counting_inverse(table)
    for typed in (table.astype(digit_dtype(total)), table.astype(np.int64)):
        got = table_inverse(typed)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.dtype == digit_dtype(total)
            assert np.array_equal(got, expected)


# ------------------------------------------------- narrow against wide


@settings(deadline=None)
@given(automata())
def test_every_table_kernel_gives_the_same_result_on_the_int64_table(case):
    name, ca = case
    gm = GlobalMap.from_automaton(ca)
    wide = widened(gm)
    assert outcome(check_equivariance, gm) == outcome(check_equivariance, wide)
    assert np.array_equal(dependency_matrix(gm), dependency_matrix(wide))
    assert outcome(extract, gm) == outcome(extract, wide)
    inverse = table_inverse(gm.table)
    wide_inverse = table_inverse(wide.table)
    if isinstance(inverse, tuple):
        assert inverse == wide_inverse
    else:
        assert np.array_equal(inverse, wide_inverse)
    assert outcome(invert, ca) == outcome(invert, widened_automaton(ca))
    assert outcome(table_determination, ca, gm) == outcome(table_determination, widened_automaton(ca), wide)
    assert outcome(check_determination, ca) == outcome(table_determination, ca, gm)
    assert check_uniform_continuity(gm) == check_uniform_continuity(wide)
    assert outcome(check_uniform_isomorphism, gm) == outcome(check_uniform_isomorphism, wide)


@settings(deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2**32 - 1), st.booleans())
def test_arbitrary_tables_give_the_same_witnesses_in_both_types(case, seed, bijective):
    # tables that are no step: equivariance and extraction fail with witnesses
    name, states = case
    space = SPACES[name]
    total = config_count(space, states)
    rng = np.random.default_rng(seed)
    table = rng.permutation(total) if bijective else rng.integers(0, total, total)
    gm = GlobalMap(space, states, table)
    wide = widened(gm)
    assert outcome(check_equivariance, gm) == outcome(check_equivariance, wide)
    assert np.array_equal(dependency_matrix(gm), dependency_matrix(wide))
    assert outcome(extract, gm) == outcome(extract, wide)
    assert check_uniform_continuity(gm) == check_uniform_continuity(wide)
    assert outcome(check_uniform_isomorphism, gm) == outcome(check_uniform_isomorphism, wide)


# ------------------------------------------------------- determination


@settings(deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_the_origin_witness_is_the_first_code_whose_origin_digits_differ(case, seed, changes):
    # images moved at random cells, so the first entries where the tables
    # differ often keep their origin digit; digits are compared here over
    # the whole tables
    name, states = case
    space = SPACES[name]
    ca = SemiCellularAutomaton(space, states, (0,), tuple(range(states)))
    step_table = global_table(ca).astype(np.int64)
    table = step_table.copy()
    rng = random.Random(seed)
    for code in rng.sample(range(len(table)), changes):
        cell = rng.randrange(space.cells)
        digit = table[code] // states**cell % states
        table[code] += ((digit + rng.randrange(1, states)) % states - digit) * states**cell
    w = states**space.origin
    map_digits, step_digits = table // w % states, step_table // w % states
    bad = np.flatnonzero(map_digits != step_digits)
    verdict = table_determination(ca, GlobalMap(space, states, table))
    assert verdict.witness["tables_equal"] is False
    assert verdict.witness["origin_matching"] == (not bad.size)
    if bad.size:
        assert verdict.witness["origin_witness"] == {
            "config": list(decode(int(bad[0]), states, space.cells)),
            "map_origin_value": int(map_digits[bad[0]]),
            "rule_origin_value": int(step_digits[bad[0]]),
        }
    else:
        assert "origin_witness" not in verdict.witness


# ------------------------------------------------ perturbed determination


@pytest.mark.parametrize("name, states", CASES + [("cube", 4), ("cyclic4", 3)])
def test_the_perturbed_determination_lowers_a_top_origin_digit(name, states):
    # every rule entry is q - 1, so the all-zero configuration's image has
    # origin digit q - 1, and the perturbation moves entry 0 down
    space = SPACES[name]
    ca = SemiCellularAutomaton(space, states, (0,), (states - 1,) * states)
    w = states**space.origin
    report = _suite_determination(ca, None, 0)
    assert [v["ok"] for v in report["verdicts"]] == [True, True]
    table = global_table(ca).astype(np.int64)
    assert table[0] // w % states == states - 1
    table[0] -= (states - 1) * w
    narrow = GlobalMap(space, states, table)
    assert narrow.table[0] == table[0]
    perturbed = table_determination(ca, narrow)
    assert perturbed == table_determination(widened_automaton(ca), widened(narrow))
    assert report["verdicts"][1]["witness"] == perturbed.witness
    assert report == table_determination_suite(ca, None, 0)
    assert perturbed.witness["origin_witness"] == {
        "config": [0] * space.cells,
        "map_origin_value": 0,
        "rule_origin_value": states - 1,
    }
