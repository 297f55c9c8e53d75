"""`pattern_codes`, the one re-pack of a local rule, against per-code loops.

Every re-indexing of a rule table (rotating, symmetrizing, widening to a
closed neighborhood, projecting, reading a rule off a global map, finding
the positions a rule depends on) gathers its entries through
`encoding.pattern_codes`.  The oracles here are the per-code
`decode`/`encode` loops those functions used before, kept verbatim.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca.automata import (
    MAX_RULE_TABLE,
    SemiCellularAutomaton,
    closed_neighborhood,
    essential_neighborhood,
    essential_positions,
    rotation_position_map,
    stabilizer_part,
    subgroup_or_whole,
)
from homoca.catalog import (
    bundled_automata,
    bundled_spaces,
    group_from_permutations,
    projection_automaton,
    random_rule_automaton,
)
from homoca.cellspace import CellSpace
from homoca.encoding import decode, digit_matrix, encode, pattern_codes, weights
from homoca.errors import InputError
from homoca.laws import GlobalMap, extract, global_table
from homoca.serialize import automaton_on
from plain_forms import configuration_observing

SPACES = bundled_spaces()
S5 = CellSpace.default(group_from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
SPACES_AND_S5 = {**SPACES, "s5": S5}


def looped_codes(radix, width, positions):
    """pattern_codes by decoding and re-encoding one code at a time."""
    positions = np.asarray(positions).tolist()
    out = []
    for code in range(radix**width):
        local = decode(code, radix, width)
        if positions and isinstance(positions[0], list):
            out.append([encode(tuple(local[p] for p in row), radix) for row in positions])
        else:
            out.append(encode(tuple(local[p] for p in positions), radix))
    return np.array(out, dtype=np.int64)


# ------------------------------------------------------------------ helper


@st.composite
def re_packs(draw):
    radix = draw(st.integers(1, 6))
    width = draw(st.integers(0, 4 if radix > 3 else 6))
    k = draw(st.integers(0, width + 2)) if width else 0
    rows = draw(st.one_of(st.none(), st.integers(1, 3)))
    shape = (k,) if rows is None else (rows, k)
    size = int(np.prod(shape))
    flat = draw(st.lists(st.integers(0, max(width - 1, 0)), min_size=size, max_size=size))
    return radix, width, np.array(flat, dtype=np.int64).reshape(shape)


@settings(deadline=None)
@given(re_packs())
def test_pattern_codes_equal_the_decode_encode_loop(case):
    radix, width, positions = case
    got = pattern_codes(radix, width, positions)
    assert got.dtype == np.int64
    assert np.array_equal(got, looped_codes(radix, width, positions))


@pytest.mark.parametrize(
    "radix, width, positions",
    [
        (3, 0, []),  # width 0: the one empty pattern packs to 0
        (2, 0, np.zeros((2, 0), dtype=np.int64)),
        (1, 4, [3, 0, 2]),  # radix 1: every pattern is all zeros
        (5, 4, [3, 2, 1, 0]),  # codes up to 624: a uint8 product would wrap
        (6, 4, [[3, 3, 3, 3], [0, 1, 2, 3]]),
        (6, 3, [2, 1, 0, 2]),  # more positions than digits: codes up to 6**4 - 1
        (300, 2, [1, 0]),  # digits past 255: the swap, which uint8 digits would wrap
    ],
)
def test_pattern_codes_at_the_edges(radix, width, positions):
    got = pattern_codes(radix, width, positions)
    assert got.dtype == np.int64
    assert np.array_equal(got, looped_codes(radix, width, positions))


@pytest.mark.parametrize("rows", [None, 2])
def test_pattern_codes_at_the_rule_table_bound_peak_near_their_result(rows):
    # the int64 result and one block of the gather; the whole gather
    # cast to int64 at once peaked at 188 MB for the 8 MiB result
    # rows * 2**width codes, MAX_RULE_TABLE of them: an 8 MiB result
    width = (MAX_RULE_TABLE // (rows or 1)).bit_length() - 1
    reverse = list(range(width))[::-1]
    positions = reverse if rows is None else [reverse, list(range(width))]
    digit_matrix(2, width)  # cached, and not the gather's to pay for
    tracemalloc.start()
    try:
        codes = pattern_codes(2, width, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * codes.nbytes
    c = np.arange(2**width)
    flipped = sum(((c >> i) & 1) << (width - 1 - i) for i in range(width))
    assert np.array_equal(codes, flipped if rows is None else np.stack([flipped, c], axis=1))


def test_uint8_digits_times_int64_weights_stay_int64():
    # the probes of extract pack digits at a window's weights the same way
    packed = np.matmul(digit_matrix(6, 4), weights(6, 4), dtype=np.int64)
    assert packed.dtype == np.int64
    assert np.array_equal(packed, np.arange(6**4))


# -------------------------------------------------------------- symmetrize


def looped_random_rule(space, neighborhood, states, rng, symmetrize, subgroup=None):
    """random_rule_automaton as it read each code's rotation orbit in turn."""
    neighborhood = closed_neighborhood(space, neighborhood)
    width = len(neighborhood)
    raw = [rng.randrange(states) for _ in range(states**width)]
    ca = SemiCellularAutomaton(space, states, neighborhood, tuple(raw))
    if not symmetrize:
        return ca
    sub = subgroup_or_whole(space, subgroup)
    maps = [rotation_position_map(ca, h) for h in stabilizer_part(space, sub)]
    rule = []
    for code in range(states**width):
        local = decode(code, states, width)
        canon = min(encode(tuple(local[p[i]] for i in range(width)), states) for p in maps)
        rule.append(raw[canon])
    return SemiCellularAutomaton(space, states, neighborhood, tuple(rule))


@pytest.mark.parametrize("name", sorted(SPACES_AND_S5))
@pytest.mark.parametrize("seed", range(4))
def test_symmetrized_random_rules_equal_the_orbit_loop(name, seed):
    space = SPACES_AND_S5[name]
    rng = random.Random(seed)
    picked = rng.sample(range(space.num_cosets), min(2, space.num_cosets))
    states = 2 + seed % 2
    if states ** len(closed_neighborhood(space, picked)) > 1 << 12:
        states = 2
    for symmetrize in (False, True):
        got = random_rule_automaton(space, picked, states, random.Random(seed), symmetrize)
        expected = looped_random_rule(space, picked, states, random.Random(seed), symmetrize)
        assert (got.neighborhood, got.rule) == (expected.neighborhood, expected.rule)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_projections_equal_the_decode_loop(name):
    space = SPACES[name]
    states = 2 if space.num_cosets > 6 else 3
    width = space.num_cosets
    locals_ = [decode(code, states, width) for code in range(states**width)]
    for position in range(width):
        ca = projection_automaton(space, states, position)
        assert ca.rule == tuple(local[position] for local in locals_)


# ----------------------------------------------------------- auto-close


def looped_widening(space, states, given_names, closed, rule):
    positions = [closed.index(j) for j in given_names]
    widened = []
    for code in range(states ** len(closed)):
        local = decode(code, states, len(closed))
        widened.append(rule[encode(tuple(local[p] for p in positions), states)])
    return tuple(widened)


def _torus_names(seed):
    """One or two torus cosets, seeded; most of them are not closed."""
    rng = random.Random(seed)
    return rng, tuple(sorted(rng.sample(range(SPACES["torus"].num_cosets), 1 + seed % 2)))


@pytest.mark.parametrize("seed", range(8))
def test_auto_close_widening_equals_the_decode_loop(seed):
    space = SPACES["torus"]
    rng, given_names = _torus_names(seed)
    closed = closed_neighborhood(space, given_names)
    states = 3 if 3 ** len(closed) <= 1 << 12 else 2
    rule = [rng.randrange(states) for _ in range(states ** len(given_names))]
    data = {"states": states, "neighborhood": [space.coset_reps[j] for j in given_names], "delta": rule}
    ca = automaton_on(space, data, auto_close=True)
    assert ca.neighborhood == closed
    assert ca.rule == looped_widening(space, states, given_names, closed, rule)


@pytest.mark.parametrize("states, entry", [(2, 2), (2, -1), (2, 2**70), (-2, 0)])
def test_auto_close_refuses_what_the_constructor_refuses(states, entry):
    space = SPACES["torus"]
    _, given_names = _torus_names(1)
    data = {"states": states, "neighborhood": [space.coset_reps[j] for j in given_names], "delta": [0, 0, 0, entry]}
    with pytest.raises(InputError, match="out of range|at least one state"):
        automaton_on(space, data, auto_close=True)


def test_the_auto_close_cases_widen_some_rule():
    space = SPACES["torus"]
    widened = [closed_neighborhood(space, names) != names for _, names in map(_torus_names, range(8))]
    assert sum(widened) >= 4


# ---------------------------------------------------------------- extract


def probed_rule(gm, neighborhood):
    """extract's rule as read by one configuration_observing probe per code."""
    space, q = gm.space, gm.states
    probe = SemiCellularAutomaton(space, q, neighborhood, [0] * q ** len(neighborhood))
    rule = []
    for code in range(q ** len(neighborhood)):
        local = decode(code, q, len(neighborhood))
        config = configuration_observing(probe, local, space.origin, default=0)
        rule.append(int(gm.table[encode(config, q)] // q**space.origin % q))
    return tuple(rule)


def _equivariant_maps():
    """The bundled automata's steps and symmetrized random rules' steps."""
    automata = bundled_automata()
    for name in ("cyclic4", "square", "cube"):
        space = SPACES[name]
        for seed in range(3):
            rng = random.Random(seed)
            picked = rng.sample(range(space.num_cosets), min(2, space.num_cosets))
            automata[f"{name}-{seed}"] = random_rule_automaton(space, picked, 2 + seed % 2, rng, True)
    return [pytest.param(GlobalMap.from_automaton(ca), id=name) for name, ca in automata.items()]


@pytest.mark.parametrize("gm", _equivariant_maps())
def test_extracted_rules_equal_the_probe_loop(gm):
    ca = extract(gm)
    assert ca.rule == probed_rule(gm, ca.neighborhood)
    assert np.array_equal(global_table(ca), gm.table)


# ---------------------------------------------------------- essentiality


def looped_essential_positions(ca):
    q = ca.states
    codes = digit_matrix(q, ca.arity)
    w = weights(q, ca.arity)
    rule = ca.rule_array
    essential = []
    for i in range(ca.arity):
        base = codes.copy()
        base[:, i] = 0
        outputs = rule[base @ w]
        hit = False
        for v in range(1, q):
            base[:, i] = v
            if not np.array_equal(rule[base @ w], outputs):
                hit = True
                break
        if hit:
            essential.append(i)
    return tuple(essential)


def looped_masks_factor(ca, positions):
    """Does the rule equal itself with every other position set to 0?"""
    for code in range(ca.states**ca.arity):
        local = decode(code, ca.states, ca.arity)
        masked = tuple(d if i in positions else 0 for i, d in enumerate(local))
        if ca.rule[encode(masked, ca.states)] != ca.rule[code]:
            return False
    return True


@st.composite
def padded_rules(draw):
    """A rule over a closed neighborhood that reads a random subset of its
    positions, or every position: arity 0 and one state included."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    picked = draw(st.lists(st.integers(0, space.num_cosets - 1), max_size=3))
    neighborhood = closed_neighborhood(space, picked)
    states = draw(st.integers(1, 3))
    while states ** len(neighborhood) > 1 << 12:
        states -= 1
    arity = len(neighborhood)
    read = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
    kept = [i for i in range(arity) if read[i]]
    rng = random.Random(draw(st.integers(0, 2**16)))
    factor = [rng.randrange(states) for _ in range(states ** len(kept))]
    rule = []
    for code in range(states**arity):
        local = decode(code, states, arity)
        rule.append(factor[encode(tuple(local[i] for i in kept), states)])
    return SemiCellularAutomaton(space, states, neighborhood, rule)


@settings(deadline=None)
@given(padded_rules())
def test_essential_positions_equal_the_value_loop(ca):
    positions = essential_positions(ca)
    assert positions == looped_essential_positions(ca)
    assert looped_masks_factor(ca, positions)
    assert essential_neighborhood(ca) == tuple(ca.neighborhood[i] for i in positions)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_essential_positions_of_arity_zero_and_one_state(states):
    space = SPACES["square"]
    constant = SemiCellularAutomaton(space, states, (), (states - 1,))
    assert essential_positions(constant) == essential_neighborhood(constant) == ()
    full = tuple(range(space.num_cosets))
    flat = SemiCellularAutomaton(space, states, full, (0,) * states ** len(full))
    assert essential_positions(flat) == looped_essential_positions(flat) == ()
    assert essential_neighborhood(flat) == ()
