"""The window join that refutes invertibility past the table bound.

`window_collision` looks for two configurations that differ at the origin
alone and have the same image, joining the windows that read the origin.
The oracle is a scan of the global table, inside the bound: for each
state b at the origin, every configuration with a smaller state a there
is compared with its partner, and the pair with the smallest first
configuration, then the smaller b, is the one the join must return, or
None when no pair collides.  Past the bound every witness is re-stepped
with `step` and `step_via_origin`.  When the join finds no pair, or gives
up at its bound, `invert` falls through to the seeded `sampled_collision`.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homoca.laws as laws
from homoca.automata import SemiCellularAutomaton, closed_neighborhood, step, step_via_origin
from homoca.catalog import (
    bundled_spaces,
    cyclic_shift_automaton,
    cyclic_space,
    identity_automaton,
    random_rule_automaton,
    torus_neighborhood,
)
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import decode, digit_dtype
from homoca.errors import BoundError
from homoca.groups import LeftAction
from homoca.laws import (
    CONFIG_TABLE_BOUND,
    MAX_RULE_TABLE,
    NotInvertible,
    config_count,
    global_table,
    invert,
    sampled_collision,
    window_collision,
)

SPACES = bundled_spaces()
TORUS = SPACES["torus"]


def scanned_collision(ca):
    """The smallest colliding pair differing at the origin alone, by a
    scan of the global table."""
    table = global_table(ca)
    q, cells, origin = ca.states, ca.space.cells, ca.space.origin
    codes = np.arange(len(table))
    at_origin = codes // q**origin % q
    best = None
    for b in range(1, q):
        below = at_origin < b
        partner = np.where(below, codes + (b - at_origin) * q**origin, 0)
        hits = np.flatnonzero(below & (table == table[partner]))
        if hits.size and (best is None or hits[0] < best[0]):
            best = (int(hits[0]), b)
    if best is None:
        return None
    first = list(decode(best[0], q, cells))
    second = list(first)
    second[origin] = best[1]
    return first, second


def outcome(ca, seed=0):
    try:
        return invert(ca, seed=seed)
    except BoundError:
        return "BoundError"


def sampled_outcome(ca, seed=0):
    try:
        return sampled_collision(ca, seed=seed)
    except BoundError:
        return "BoundError"


def recheck(ca, pair):
    """The pair differs at the origin alone, a < b there, and both orders
    of the step give the two configurations one image."""
    first, second = pair
    origin = ca.space.origin
    assert [c for c in range(ca.space.cells) if first[c] != second[c]] == [origin]
    assert first[origin] < second[origin]
    assert step(ca, first) == step(ca, second)
    assert step_via_origin(ca, first) == step_via_origin(ca, second) == step(ca, first)


# (space, states) pairs inside the table bound
IN_BOUND = [
    (name, q) for name in sorted(SPACES) for q in (2, 3) if config_count(SPACES[name], q) <= CONFIG_TABLE_BOUND
]


@settings(deadline=None)
@given(
    case=st.sampled_from(IN_BOUND),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    names=st.integers(1, 3),
)
@example(case=("torus", 2), seed=0, symmetrize=True, names=2)
@example(case=("cube", 3), seed=5, symmetrize=False, names=3)
def test_the_join_finds_the_scanned_pair(case, seed, symmetrize, names):
    name, q = case
    space = SPACES[name]
    rng = random.Random(seed)
    neighborhood = closed_neighborhood(space, rng.sample(range(space.num_cosets), min(names, space.num_cosets)))
    ca = random_rule_automaton(space, neighborhood, q, rng, symmetrize)
    pair = window_collision(ca)
    assert pair == scanned_collision(ca)
    if pair is not None:
        recheck(ca, pair)


def test_the_scan_sees_pairs_and_their_absence():
    # the comparison above is only as good as its mix of verdicts
    found = {}
    for name, q in IN_BOUND:
        space = SPACES[name]
        for seed in range(12):
            rng = random.Random(seed)
            neighborhood = closed_neighborhood(space, rng.sample(range(space.num_cosets), min(2, space.num_cosets)))
            ca = random_rule_automaton(space, neighborhood, q, rng, seed % 2 == 0)
            pair = window_collision(ca)
            assert pair == scanned_collision(ca), (name, q, seed)
            found.setdefault(pair is None, set()).add(name)
    assert found[False] == set(SPACES) and len(found[True]) > 1


def _doctored(space, row):
    """The space with two entries of one row of its action table swapped,
    away from the origin and its preimage: no longer an action."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][a], act[row][b] = act[row][b], act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


@pytest.mark.parametrize("name", ["square", "cube", "torus"])
def test_tables_that_are_not_actions_give_the_scanned_pair(name):
    space = SPACES[name]
    for row in [g for g in space.group.elements() if g not in space.coords][:4]:
        doctored = _doctored(space, row)
        for seed in range(3):
            rng = random.Random(seed)
            neighborhood = closed_neighborhood(doctored, rng.sample(range(doctored.num_cosets), 2))
            ca = random_rule_automaton(doctored, neighborhood, 2, rng, False)
            assert window_collision(ca) == scanned_collision(ca), (row, seed)


@pytest.mark.parametrize("seed", range(8))
def test_symmetrized_torus_rules_past_the_bound_refute_exactly(seed):
    ca = random_rule_automaton(TORUS, torus_neighborhood(TORUS), 3, random.Random(seed), True)
    assert config_count(TORUS, 3) > CONFIG_TABLE_BOUND
    pair = window_collision(ca)
    recheck(ca, pair)
    result = invert(ca, seed=seed)
    assert isinstance(result, NotInvertible) and not result.sampled
    assert result.witness == {"colliding": list(pair), "image": list(step(ca, pair[0]))}
    # the seed seeds only the fallback, so the exact witness ignores it
    assert invert(ca, seed=seed + 1) == result


@pytest.mark.parametrize("seed", range(4))
def test_raw_torus_rules_past_the_bound_give_rechecked_pairs(seed):
    # raw rules are not rotation-invariant, so invert refuses them, but
    # the join reads only windows and still finds a colliding pair
    ca = random_rule_automaton(TORUS, torus_neighborhood(TORUS), 3, random.Random(100 + seed), False)
    recheck(ca, window_collision(ca))


@pytest.mark.parametrize(
    "ca",
    [
        identity_automaton(TORUS, 3),
        identity_automaton(SPACES["cube"], 3),
        cyclic_shift_automaton(),
        SemiCellularAutomaton(cyclic_space(64), 2, (0, 1), (0, 0, 1, 1)),
    ],
    ids=["torus3-identity", "cube3-identity", "cyclic4-shift", "cyclic64-shift"],
)
def test_injective_rules_have_no_pair(ca):
    assert window_collision(ca) is None
    if config_count(ca.space, ca.states) > CONFIG_TABLE_BOUND:
        # past the bound invert then samples, and finds nothing either
        with pytest.raises(BoundError):
            invert(ca)
    else:
        assert scanned_collision(ca) is None


def test_a_pair_past_int64_codes_is_found():
    # AND of a cell and the next one on 2**64 configurations: codes would
    # not fit int64, but the join compares digits, not codes
    ca = SemiCellularAutomaton(cyclic_space(64), 2, (0, 1), (0, 0, 0, 1))
    assert config_count(ca.space, 2) > np.iinfo(np.int64).max
    pair = window_collision(ca)
    recheck(ca, pair)
    assert pair == ([0] * 64, [1] + [0] * 63)


def test_past_the_pair_bound_the_join_gives_up_before_listing_pairs():
    # 1449 * 1448 / 2 pairs (a, b) are just past the bound; listing them
    # before the first window's check peaked at 131 MB
    ca = identity_automaton(cyclic_space(1), 1449)
    assert 1449 * 1448 // 2 > MAX_RULE_TABLE >= 1448 * 1447 // 2
    ca.kernel  # the rule's arrays, built before tracing
    tracemalloc.start()
    try:
        assert window_collision(ca) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one state fewer, the pairs fit, and None says there is no pair
    assert window_collision(identity_automaton(cyclic_space(1), 1448)) is None


@pytest.mark.parametrize("rule, pair", [(range(1448), None), ((0,) * 1448, ([0], [1]))])
def test_the_join_at_1448_states_peaks_near_its_pairs(rule, pair):
    # the pairs take 4 MB; joining all of them at once held int64 codes and
    # rule reads for every pair, and peaked at 46 MB
    ca = SemiCellularAutomaton(cyclic_space(1), 1448, (0,), tuple(rule))
    ca.kernel  # the rule's arrays, built before tracing
    tracemalloc.start()
    try:
        assert window_collision(ca) == pair
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


@pytest.mark.parametrize("span", [1, 2, 3, 7, 255, 256, 257, 300])
def test_pairs_are_triu_indices_in_the_digit_type(span):
    dtype = digit_dtype(span)
    pairs = laws._pairs(span, dtype)
    assert pairs.dtype == dtype
    assert np.array_equal(pairs, np.triu_indices(span, 1))


def test_pairs_peak_at_their_own_size():
    # 1448 * 1447 / 2 uint16 pairs take 4 MB; np.triu_indices peaked at
    # 21 MB building them, with its boolean mask and int64 indices
    dtype = digit_dtype(1448)
    tracemalloc.start()
    try:
        pairs = laws._pairs(1448, dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs.shape == (2, 1448 * 1447 // 2) and pairs.dtype == np.uint16
    assert peak < pairs.nbytes + (1 << 16)


@pytest.mark.parametrize("states", [1, 2, 300, 2**40])
def test_images_that_never_read_the_origin_give_the_first_pair(states):
    # arity 0: every image is the rule's one entry, so any two
    # configurations collide, however many states there are
    ca = SemiCellularAutomaton(SPACES["cyclic4"], states, (), (0,))
    pair = window_collision(ca)
    if states == 1:
        assert pair is None
    else:
        assert pair == ([0, 0, 0, 0], [1, 0, 0, 0])
        recheck(ca, pair)
    if config_count(ca.space, states) <= CONFIG_TABLE_BOUND:
        assert scanned_collision(ca) == pair


def _max_rule():
    """The 3-state max over the torus neighbourhood, which samples collide on."""
    neighborhood = torus_neighborhood(TORUS)
    rule = [max(decode(code, 3, len(neighborhood))) for code in range(3 ** len(neighborhood))]
    return SemiCellularAutomaton(TORUS, 3, neighborhood, rule)


def test_past_its_bound_the_join_gives_up_and_invert_samples():
    ca = _max_rule()
    assert window_collision(ca) is not None
    # the first window joins 3 pairs with 3**4 patterns of its new cells
    with mock.patch.object(laws, "MAX_RULE_TABLE", 3 * 3**4 - 1):
        assert window_collision(ca) is None
        for seed in range(3):
            result = outcome(ca, seed)
            assert isinstance(result, NotInvertible) and result.sampled
            assert result == sampled_collision(ca, seed)


def _sum_mod(states):
    """The sum of the neighbourhood's states mod `states`: a change at the
    origin changes every sum that reads it, so no one-cell pair collides."""
    neighborhood = torus_neighborhood(TORUS)
    rule = [sum(decode(code, states, len(neighborhood))) % states for code in range(states ** len(neighborhood))]
    return SemiCellularAutomaton(TORUS, states, neighborhood, rule)


def test_a_rule_without_one_cell_pairs_reaches_the_sampler():
    ca = _sum_mod(3)
    assert window_collision(ca) is None
    kinds = set()
    for seed in range(4):
        with mock.patch.object(laws, "sampled_collision", wraps=laws.sampled_collision) as sampler:
            got = outcome(ca, seed)
        sampler.assert_called_once_with(ca, seed)
        assert got == sampled_outcome(ca, seed)
        kinds.add(type(got))
        if isinstance(got, NotInvertible):
            assert got.sampled
            a, b = got.witness["colliding"]
            assert a != b and step(ca, a) == step(ca, b)
    # collisions differing in more than one cell are common enough to sample
    assert NotInvertible in kinds


def test_the_sum_rule_has_no_pair_inside_the_bound_either():
    # on the 2-state torus, inside the bound, the scan agrees
    ca = _sum_mod(2)
    assert config_count(TORUS, 2) <= CONFIG_TABLE_BOUND
    assert window_collision(ca) is None and scanned_collision(ca) is None
