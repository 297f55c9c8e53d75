"""Local rules, rotation invariance, and the two forms of the global step."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from homoca.automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    configuration_observing,
    essential_neighborhood,
    essential_positions,
    is_cellular,
    observe,
    rotate_local,
    rotation_position_map,
    shift,
    step,
    step_via_origin,
)
from homoca.catalog import (
    bundled_automata,
    bundled_spaces,
    identity_automaton,
    or_automaton,
    projection_automaton,
)
from homoca.encoding import decode
from homoca.errors import InputError

AUTOMATA_NAMES = (
    "cyclic4_identity",
    "cyclic4_shift",
    "cyclic4_or",
    "square_identity",
    "square_or",
    "cube_identity",
    "cube_or",
    "torus_identity",
    "torus_or",
)


def all_configs(ca):
    return (decode(code, ca.states, ca.space.cells) for code in range(ca.states**ca.space.cells))


# ------------------------------------------------------------ neighborhoods


def test_closing_a_neighborhood_is_idempotent_and_saturating(spaces):
    space = spaces["square"]
    closed = closed_neighborhood(space, (1,))
    assert closed == (1, 3)  # the flip swaps the two side-step cosets
    assert closed_neighborhood(space, closed) == closed
    for h in space.stabilizer.members:
        for j in closed:
            assert space.translate_coset(h, j) in closed


def test_unclosed_or_unsorted_neighborhoods_are_rejected(spaces):
    space = spaces["square"]
    with pytest.raises(InputError):
        SemiCellularAutomaton(space, 2, (1,), (0, 1))  # not stabilizer-closed
    with pytest.raises(InputError):
        SemiCellularAutomaton(space, 2, (3, 1), (0, 1, 1, 1))  # unsorted
    with pytest.raises(InputError):
        SemiCellularAutomaton(space, 2, (1, 1, 3), rule=(0,) * 8)  # duplicate


def test_rule_table_shape_is_validated(spaces):
    space = spaces["cyclic4"]
    with pytest.raises(InputError):
        SemiCellularAutomaton(space, 2, (0, 1), (0, 1))  # 4 entries needed
    with pytest.raises(InputError):
        SemiCellularAutomaton(space, 2, (0,), (0, 2))  # output out of range


@pytest.mark.parametrize(
    "rule, offender", [((0, 1, 5, -1), 5), ((-1, 0, 1, 7), -1), ((1, 0, 0, 2), 2), ((0, 1, 1, 10**30), 10**30)]
)
def test_the_first_rule_output_out_of_range_is_named(spaces, rule, offender):
    with pytest.raises(InputError, match=f"^rule output {offender} out of range$"):
        SemiCellularAutomaton(spaces["cyclic4"], 2, (0, 1), rule)


# ----------------------------------------------------------------- rotation


@pytest.mark.parametrize("name", ["square_or", "cube_or", "torus_or"])
def test_rotation_maps_are_permutations_composing_correctly(name, automata):
    ca = automata[name]
    space = ca.space
    mul = space.group.mul
    identity_map = rotation_position_map(ca, space.group.identity)
    assert identity_map == tuple(range(ca.arity))
    for h1 in space.stabilizer.members:
        assert sorted(rotation_position_map(ca, h1)) == list(range(ca.arity))
        for h2 in space.stabilizer.members:
            local = tuple((i * 7 + 3) % ca.states for i in range(ca.arity))
            assert rotate_local(ca, mul[h1][h2], local) == rotate_local(
                ca, h1, rotate_local(ca, h2, local)
            )


@pytest.mark.parametrize("name", AUTOMATA_NAMES)
def test_bundled_rules_are_rotation_invariant(name, automata):
    assert is_cellular(automata[name]).ok


def test_projection_rule_is_not_rotation_invariant(spaces):
    # copying a non-central neighbor breaks under the flip that moves it
    ca = projection_automaton(spaces["square"], position=1)
    verdict = is_cellular(ca)
    assert not verdict.ok
    h = verdict.witness["stabilizer_element"]
    local = tuple(verdict.witness["local"])
    assert ca.apply_rule(rotate_local(ca, h, local)) != ca.apply_rule(local)


def test_projection_onto_the_center_is_rotation_invariant(spaces):
    # the stabilizer fixes the trivial coset, so this projection is safe
    ca = projection_automaton(spaces["square"], position=0)
    assert is_cellular(ca).ok
    assert essential_positions(ca) == (0,)
    assert essential_neighborhood(ca) == (0,)


# ---------------------------------------------------------------- stepping


@pytest.mark.parametrize("name", ["cyclic4_shift", "cyclic4_or", "square_or", "cube_or"])
def test_step_matches_a_naive_reimplementation(name, automata):
    ca = automata[name]
    space = ca.space
    act, mul = space.action.act, space.group.mul
    rng = random.Random(1)
    configs = [tuple(rng.randrange(ca.states) for _ in range(space.cells)) for _ in range(25)]
    for config in configs:
        expected = []
        for m in range(space.cells):
            local = tuple(
                config[act[mul[space.coords[m]][space.coset_reps[j]]][space.origin]]
                for j in ca.neighborhood
            )
            expected.append(ca.apply_rule(local))
        assert step(ca, config) == tuple(expected)


@pytest.mark.parametrize("name", ["cyclic4_identity", "cyclic4_shift", "cyclic4_or", "square_identity", "square_or", "cube_or"])
def test_step_equals_its_origin_form_exhaustively(name, automata):
    ca = automata[name]
    for config in all_configs(ca):
        assert step(ca, config) == step_via_origin(ca, config)


def test_step_equals_its_origin_form_sampled_on_the_torus(automata):
    ca = automata["torus_or"]
    rng = random.Random(0)
    for _ in range(200):
        config = tuple(rng.randrange(2) for _ in range(16))
        assert step(ca, config) == step_via_origin(ca, config)


def test_identity_automaton_steps_to_itself(automata):
    for name in ("cyclic4_identity", "square_identity", "cube_identity"):
        ca = automata[name]
        for config in all_configs(ca):
            assert step(ca, config) == config


def test_or_automaton_full_neighborhood_is_global_or(automata):
    # with every coset in the neighborhood, each cell sees all cells
    ca = automata["square_or"]
    for config in all_configs(ca):
        want = 1 if any(config) else 0
        assert step(ca, config) == (want,) * 4


def test_configurations_are_validated(automata):
    ca = automata["cyclic4_shift"]
    with pytest.raises(InputError):
        step(ca, (0, 1, 0))
    with pytest.raises(InputError):
        step(ca, (0, 1, 0, 2))


# ----------------------------------------------------------------- shifting


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_shift_is_a_group_action_on_configurations(name, spaces):
    space = spaces[name]
    rng = random.Random(7)
    config = tuple(rng.randrange(3) for _ in range(space.cells))
    assert shift(space, space.group.identity, config) == config
    for g in space.group.elements():
        for h in space.group.elements():
            assert shift(space, g, shift(space, h, config)) == shift(
                space, space.group.mul[g][h], config
            )


def test_shift_reads_through_the_inverse(spaces):
    space = spaces["cyclic4"]
    config = (3, 1, 4, 1)
    for g in space.group.elements():
        moved = shift(space, g, config)
        for m in range(space.cells):
            assert moved[space.action.act[g][m]] == config[m]


# ------------------------------------------------------------- observation


@pytest.mark.parametrize("name", ["cyclic4_or", "square_or", "cube_or", "torus_or"])
def test_neighbor_cells_are_distinct(name, automata):
    # freeness of the semi-action: distinct names resolve to distinct cells
    ca = automata[name]
    for m in range(ca.space.cells):
        row = [int(c) for c in ca.neighbor_cells[m]]
        assert len(set(row)) == len(row)


@pytest.mark.parametrize("name", ["square_or", "cube_or"])
def test_observing_a_planted_pattern_recovers_it(name, automata):
    ca = automata[name]
    for m in range(ca.space.cells):
        for code in range(ca.states**ca.arity):
            local = decode(code, ca.states, ca.arity)
            config = configuration_observing(ca, local, m)
            assert observe(ca, config, m) == local


@given(
    m=st.integers(min_value=0, max_value=15),
    code=st.integers(min_value=0, max_value=31),
    default=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=80, deadline=None)
def test_observing_a_planted_pattern_recovers_it_on_the_torus(m, code, default):
    ca = bundled_automata()["torus_or"]
    local = decode(code, ca.states, ca.arity)
    config = configuration_observing(ca, local, m, default)
    assert observe(ca, config, m) == local


# ------------------------------------------------------------ essentiality


def test_padded_rule_factors_through_its_essential_positions(spaces):
    # OR over the two side-step names, padded with two ignored positions
    space = spaces["square"]
    full = tuple(range(space.num_cosets))
    rule = []
    for code in range(2 ** len(full)):
        local = decode(code, 2, len(full))
        rule.append(1 if (local[1] or local[3]) else 0)
    ca = SemiCellularAutomaton(space, 2, full, tuple(rule))
    assert essential_positions(ca) == (1, 3)
    assert essential_neighborhood(ca) == (1, 3)
    assert is_cellular(ca).ok


def test_or_rule_needs_every_position(automata):
    ca = automata["square_or"]
    assert essential_positions(ca) == tuple(range(ca.arity))
