"""Global maps and the theorems about them, against naive oracles.

The oracle implementations below use nothing but the raw multiplication
and action tables with plain python loops, so they cannot share a bug
with the vectorized code they check.
"""

import random

import numpy as np
import pytest

from homoca.automata import SemiCellularAutomaton, closed_neighborhood, shift, step, step_batch
from homoca.catalog import (
    coordinate_system_variants,
    cyclic_space,
    identity_automaton,
    or_automaton,
    projection_automaton,
    random_rule_automaton,
)
from homoca.cellspace import CellSpace
from homoca.encoding import decode, digit_dtype, digit_matrix, encode, weights
from homoca.errors import BoundError, EquivarianceError, InputError
from homoca.groups import transporter
from homoca.laws import (
    CONFIG_TABLE_BOUND,
    GlobalMap,
    NotInvertible,
    change_coordinates,
    check_determination,
    check_equivariance,
    check_invariance_equivalence,
    check_step_equivariance,
    compose,
    config_count,
    dependency_matrix,
    extract,
    global_table,
    invert,
    sampled_collision,
    shift_code_permutation,
)
from table_oracles import table_determination

# ----------------------------------------------------------------- oracle


def naive_step(ca, config):
    act, mul = ca.space.action.act, ca.space.group.mul
    out = []
    for m in range(ca.space.cells):
        local = tuple(
            config[act[mul[ca.space.coords[m]][ca.space.coset_reps[j]]][ca.space.origin]]
            for j in ca.neighborhood
        )
        out.append(ca.rule[encode(local, ca.states)])
    return tuple(out)


def naive_table(ca):
    total = config_count(ca.space, ca.states)
    return [encode(naive_step(ca, decode(c, ca.states, ca.space.cells)), ca.states) for c in range(total)]


def batch_table(ca):
    """The step of every configuration through the batched kernel, packed."""
    digits = digit_matrix(ca.states, ca.space.cells)
    return step_batch(ca, digits) @ weights(ca.states, ca.space.cells)


def old_shift_code_permutation(space, g, states):
    """Translation by g as one (configurations, cells) gather and matmul."""
    act, inv = space.action.act, space.group.inv
    digits = digit_matrix(states, space.cells)
    return digits[:, list(act[inv[g]])].astype(np.int64) @ weights(states, space.cells)


@pytest.mark.parametrize("name", ["cyclic4_shift", "cyclic4_or", "square_or", "cube_identity", "cube_or"])
def test_global_table_matches_the_naive_oracle(name, automata):
    ca = automata[name]
    assert global_table(ca).tolist() == naive_table(ca)
    assert np.array_equal(global_table(ca), batch_table(ca))


def _random_rules(space, states, rng):
    """Random raw rules on closures of a few coset indices, the constant
    rule of the empty neighbourhood first."""
    yield SemiCellularAutomaton(space, states, (), (rng.randrange(states),))
    for count in (1, 2, 3):
        picked = rng.sample(range(space.num_cosets), min(count, space.num_cosets))
        neighborhood = closed_neighborhood(space, picked)
        if states ** len(neighborhood) <= 4096:
            yield random_rule_automaton(space, neighborhood, states, rng, False)


# every bundled space with every state count from 1 to 4 inside the table
# bound: the 16-cell torus takes at most 2 states.  The cube also takes 5
# and 6 states, whose digits times the top weights wrap in uint8, as an
# implicit product would under NumPy 1
IN_BOUND = [(name, q) for name in ("cyclic4", "square", "cube") for q in (1, 2, 3, 4)]
IN_BOUND += [("cube", 5), ("cube", 6), ("torus", 1), ("torus", 2)]


@pytest.mark.parametrize("name, states", IN_BOUND)
def test_the_table_kernel_equals_both_oracles_on_random_rules(name, states, spaces):
    space = spaces[name]
    assert config_count(space, states) <= CONFIG_TABLE_BOUND
    rng = random.Random(1000 * states + space.cells)
    for k, ca in enumerate(_random_rules(space, states, rng)):
        table = global_table(ca)
        assert table.dtype == digit_dtype(states**space.cells)
        assert np.array_equal(table, batch_table(ca))
        # one naive table on the 2**16 torus costs seconds; past 4096
        # configurations the smallest non-constant rule stands for the rest
        if config_count(space, states) <= 4096 or k == 1:
            assert table.tolist() == naive_table(ca)


def test_shift_table_frozen(automata):
    # the 4-cycle shift reads each state from the next cell, so bit m of
    # the output is bit m+1 of the input
    table = global_table(automata["cyclic4_shift"]).tolist()
    assert table[0] == 0
    assert table[0b0001] == 0b1000
    assert table[0b0010] == 0b0001
    assert table[0b1111] == 0b1111
    assert sorted(table) == list(range(16))  # a permutation


def test_shift_code_permutation_matches_configuration_shift(spaces):
    space = spaces["square"]
    for g in space.group.elements():
        perm = shift_code_permutation(space, g, 2)
        for code in range(16):
            config = decode(code, 2, 4)
            assert int(perm[code]) == encode(shift(space, g, config), 2)
        assert sorted(perm.tolist()) == list(range(16))


@pytest.mark.parametrize("name, states", IN_BOUND)
def test_shift_code_permutation_equals_the_gather_form(name, states, spaces):
    space = spaces[name]
    for g in space.group.elements():
        perm = shift_code_permutation(space, g, states)
        assert perm.dtype == digit_dtype(states**space.cells)
        assert np.array_equal(perm, old_shift_code_permutation(space, g, states))


# ------------------------------------------------------------ split radix
#
# Tables and shift permutations split each code as lo + q**(cells // 2) * hi.
# Odd cyclic spaces give halves of different widths, and the 1-cell one has
# no low half at all.


def _window_halves(ca):
    """For each window, whether it reads low cells and whether high ones."""
    half = ca.space.cells // 2
    return {(any(c < half for c in w), any(c >= half for c in w)) for w in ca.neighbor_cells.tolist()}


def _cyclic_rules(space, states):
    """Random rules on the empty neighbourhood, on runs of 1 to 3 cosets
    and on 3 random cosets."""
    rng = random.Random(31 * space.cells + states)
    k = space.num_cosets
    neighborhoods = {tuple(range(min(r, k))) for r in (0, 1, 2, 3)}
    neighborhoods.add(tuple(sorted(rng.sample(range(k), min(3, k)))))
    for nb in sorted(neighborhoods):
        yield SemiCellularAutomaton(space, states, nb, [rng.randrange(states) for _ in range(states ** len(nb))])


@pytest.mark.parametrize("cells", [1, 3, 5, 7])
@pytest.mark.parametrize("states", [2, 3])
def test_the_split_kernel_equals_both_oracles_on_odd_cyclic_spaces(cells, states):
    space = cyclic_space(cells)
    halves = set()
    for ca in _cyclic_rules(space, states):
        halves |= _window_halves(ca)
        table = global_table(ca)
        assert table.dtype == digit_dtype(states**cells)
        assert np.array_equal(table, batch_table(ca))
        assert table.tolist() == naive_table(ca)
    # windows reading nothing, only low cells, only high cells and both;
    # the 1-cell space has no low cell
    if cells == 1:
        assert halves == {(False, False), (False, True)}
    else:
        assert halves == {(False, False), (True, False), (False, True), (True, True)}
    for g in space.group.elements():
        perm = shift_code_permutation(space, g, states)
        assert perm.dtype == digit_dtype(states**cells)
        assert np.array_equal(perm, old_shift_code_permutation(space, g, states))


# ------------------------------------------------------- memoized tables


@pytest.mark.parametrize("name", ["cyclic4_shift", "square_identity", "cube_or", "torus_or"])
def test_a_memoized_table_equals_a_fresh_automaton_table(name, automata):
    ca = automata[name]
    first = global_table(ca)
    assert global_table(ca) is first
    fresh = SemiCellularAutomaton(ca.space, ca.states, ca.neighborhood, ca.rule)
    assert global_table(fresh) is not first
    assert np.array_equal(global_table(fresh), first)


def test_a_global_map_shares_the_memoized_table(automata):
    ca = automata["square_or"]
    assert GlobalMap.from_automaton(ca).table is global_table(ca)


def test_a_memoized_table_is_read_only(automata):
    ca = automata["cube_identity"]
    table = global_table(ca)
    with pytest.raises(ValueError):
        table[0] = 1
    if table.base is not None:
        with pytest.raises(ValueError):
            np.asarray(table.base).reshape(-1)[0] = 1
    with pytest.raises(ValueError):
        GlobalMap.from_automaton(ca).table[1] += 1
    assert np.array_equal(global_table(ca), np.arange(len(table)))


def test_every_call_past_the_bound_raises(spaces):
    ca = SemiCellularAutomaton(spaces["torus"], 3, (), (1,))
    for _ in range(3):
        with pytest.raises(BoundError):
            global_table(ca)
        with pytest.raises(BoundError):
            GlobalMap.from_automaton(ca)


# -------------------------------------------------------------- GlobalMap


def test_global_map_apply_agrees_with_step(automata):
    ca = automata["square_or"]
    gm = GlobalMap.from_automaton(ca)
    for code in range(16):
        config = decode(code, 2, 4)
        assert gm.apply(config) == step(ca, config)


def test_global_map_validates_tables(spaces):
    space = spaces["cyclic4"]
    with pytest.raises(InputError):
        GlobalMap(space, 2, list(range(8)))  # wrong length
    with pytest.raises(InputError):
        GlobalMap(space, 2, [99] * 16)  # entries out of range


# ------------------------------------------------------------ equivariance


@pytest.mark.parametrize("name", ["cyclic4_shift", "cyclic4_or", "square_or", "cube_or", "torus_or"])
def test_bundled_steps_are_equivariant(name, automata):
    verdict = check_equivariance(GlobalMap.from_automaton(automata[name]))
    assert verdict.ok
    assert check_step_equivariance(automata[name]) == verdict


def test_a_doctored_table_fails_equivariance_with_a_usable_witness(automata):
    ca = automata["cyclic4_shift"]
    table = global_table(ca).copy()
    table[1], table[2] = table[2], table[1]
    gm = GlobalMap(ca.space, 2, table)
    verdict = check_equivariance(gm)
    assert not verdict.ok
    w = verdict.witness
    moved = shift(ca.space, w["element"], tuple(w["config"]))
    assert gm.apply(moved) == tuple(w["shift_then_map"])
    assert shift(ca.space, w["element"], gm.apply(tuple(w["config"]))) == tuple(w["map_then_shift"])
    assert tuple(w["shift_then_map"]) != tuple(w["map_then_shift"])


# ------------------------------- invariance of rules vs equivariance of maps


@pytest.mark.parametrize("name", ["cyclic4_shift", "square_or", "cube_or"])
def test_equivalence_agrees_when_both_sides_hold(name, automata):
    verdict = check_invariance_equivalence(automata[name])
    assert verdict.ok
    assert verdict.witness["rule_invariant"]
    assert verdict.witness["step_equivariant"]


def test_equivalence_agrees_when_both_sides_fail(spaces):
    ca = projection_automaton(spaces["square"], position=1)
    verdict = check_invariance_equivalence(ca)
    assert verdict.ok  # the two sides still match
    assert not verdict.witness["rule_invariant"]
    assert not verdict.witness["step_equivariant"]


def test_equivalence_over_random_rules(spaces):
    rng = random.Random(11)
    space = spaces["square"]
    full = tuple(range(space.num_cosets))
    for symmetrize in (True, False):
        for _ in range(8):
            ca = random_rule_automaton(space, full, 2, rng, symmetrize)
            verdict = check_invariance_equivalence(ca)
            assert verdict.ok
            if symmetrize:
                assert verdict.witness["rule_invariant"]


# ------------------------------------------------------------ determination


def test_determination_passes_for_the_automaton_own_step(automata):
    ca = automata["square_or"]
    verdict = check_determination(ca)
    assert verdict.ok
    assert verdict.witness["rule_invariant_and_equal"]
    assert verdict.witness["equivariant_and_origin_matching"]


def test_determination_sides_fail_together_for_a_foreign_map(spaces, automata):
    # the identity table is equivariant but disagrees with OR at the
    # origin; check_determination takes the step alone, so a foreign map
    # goes through its table form, the suite's oracle
    ca = automata["square_or"]
    gm = GlobalMap(ca.space, 2, np.arange(16))
    verdict = table_determination(ca, gm)
    assert verdict.ok
    assert not verdict.witness["rule_invariant_and_equal"]
    assert not verdict.witness["equivariant_and_origin_matching"]
    assert verdict.witness["equivariant"]
    assert not verdict.witness["origin_matching"]
    assert verdict.witness["origin_witness"]


# ------------------------------------------------------ coordinate changes


def test_changing_coordinates_preserves_the_global_table(spaces, automata):
    ca = automata["square_or"]
    reference = global_table(ca)
    count = 0
    for system in coordinate_system_variants(ca.space.action, 8, seed=3):
        if system == ca.space.system:
            continue
        h = min(transporter(ca.space.action, ca.space.origin, system.origin))
        moved = change_coordinates(ca, system, h)
        assert np.array_equal(global_table(moved), reference)
        count += 1
    assert count >= 5


def test_changing_coordinates_requires_a_transporting_element(automata):
    ca = automata["square_or"]
    target = CellSpace.default(ca.space.action, 1).system
    stray = [g for g in ca.space.group.elements() if ca.space.action.act[g][0] != 1][0]
    with pytest.raises(InputError):
        change_coordinates(ca, target, stray)


def test_changing_coordinates_rejects_non_invariant_rules(spaces):
    ca = projection_automaton(spaces["square"], position=1)
    target = CellSpace.default(ca.space.action, 1).system
    h = min(transporter(ca.space.action, 0, 1))
    with pytest.raises(InputError):
        change_coordinates(ca, target, h)


# -------------------------------------------------------------- composition


def test_composing_two_shifts_doubles_the_offset(automata):
    ca = automata["cyclic4_shift"]
    double = compose(ca, ca)
    assert double.neighborhood == (2,)
    assert double.rule == (0, 1)
    t = global_table(ca)
    assert np.array_equal(global_table(double), t[t])


def test_composition_table_is_outer_after_inner(spaces, automata):
    outer = automata["square_or"]
    inner = identity_automaton(spaces["square"])
    combined = compose(outer, inner)
    assert np.array_equal(global_table(combined), global_table(outer)[global_table(inner)])
    swapped = compose(inner, outer)
    assert np.array_equal(global_table(swapped), global_table(inner)[global_table(outer)])


def test_composing_identities_past_256_states_keeps_every_state():
    # compose re-packs the inner rule's patterns, digits up to 299
    ca = identity_automaton(cyclic_space(3), 300)
    both = compose(ca, ca)
    assert both.rule == tuple(range(300))
    assert step(both, (280, 1, 2)) == (280, 1, 2)


def test_composition_of_random_invariant_rules(spaces):
    rng = random.Random(23)
    space = spaces["cyclic4"]
    full = tuple(range(space.num_cosets))
    for _ in range(6):
        a = random_rule_automaton(space, full, 2, rng, symmetrize=True)
        b = random_rule_automaton(space, full, 2, rng, symmetrize=True)
        ab = compose(a, b)
        assert np.array_equal(global_table(ab), global_table(a)[global_table(b)])


def test_composition_rejects_non_invariant_factors(spaces):
    good = or_automaton(spaces["square"])
    bad = projection_automaton(spaces["square"], position=1)
    with pytest.raises(InputError):
        compose(good, bad)


# ----------------------------------------------------------- dependencies


def _dependency_row(gm, target):
    return tuple(np.flatnonzero(dependency_matrix(gm)[target]).tolist())


def test_dependency_rows_of_the_shift_and_identity(spaces, automata):
    gm = GlobalMap.from_automaton(automata["cyclic4_shift"])
    for m in range(4):
        assert _dependency_row(gm, m) == ((m + 1) % 4,)
    gm = GlobalMap.from_automaton(identity_automaton(spaces["cyclic4"]))
    for m in range(4):
        assert _dependency_row(gm, m) == (m,)


def test_dependency_rows_of_the_or_rule(automata):
    gm = GlobalMap.from_automaton(automata["square_or"])
    for m in range(4):
        assert _dependency_row(gm, m) == (0, 1, 2, 3)


# ---------------------------------------------------------------- extract


@pytest.mark.parametrize(
    "name",
    [
        "cyclic4_identity",
        "cyclic4_shift",
        "cyclic4_or",
        "square_identity",
        "square_or",
        "cube_identity",
        "cube_or",
    ],
)
def test_extraction_round_trip(name, automata):
    ca = automata[name]
    recovered = extract(GlobalMap.from_automaton(ca))
    assert np.array_equal(global_table(recovered), global_table(ca))
    assert recovered.states == ca.states


def test_extracted_shift_has_the_one_name_neighborhood(automata):
    ca = automata["cyclic4_shift"]
    recovered = extract(GlobalMap.from_automaton(ca))
    assert recovered.neighborhood == (1,)
    assert recovered.rule == (0, 1)


def test_extract_rejects_non_equivariant_tables(automata):
    ca = automata["cyclic4_shift"]
    table = global_table(ca).copy()
    table[1] ^= 1
    with pytest.raises(EquivarianceError) as err:
        extract(GlobalMap(ca.space, 2, table))
    assert "config" in err.value.witness


# ------------------------------------------------------------------ invert


def test_inverting_the_shift_gives_the_opposite_shift(automata):
    ca = automata["cyclic4_shift"]
    inverse = invert(ca)
    assert not isinstance(inverse, NotInvertible)
    assert inverse.neighborhood == (3,)
    assert inverse.rule == (0, 1)
    for code in range(16):
        config = decode(code, 2, 4)
        assert step(inverse, step(ca, config)) == config
        assert step(ca, step(inverse, config)) == config


def test_identity_is_its_own_inverse(spaces):
    ca = identity_automaton(spaces["square"])
    inverse = invert(ca)
    assert not isinstance(inverse, NotInvertible)
    assert inverse.neighborhood == (0,)
    assert inverse.rule == (0, 1)


def test_or_is_not_invertible_and_the_collision_checks_out(automata):
    result = invert(automata["square_or"])
    assert isinstance(result, NotInvertible)
    a, b = (tuple(c) for c in result.witness["colliding"])
    assert a != b
    assert step(automata["square_or"], a) == step(automata["square_or"], b)
    assert step(automata["square_or"], a) == tuple(result.witness["image"])


def test_sampled_refutation_beyond_the_table_bound(spaces):
    # ternary max rule on the torus: 3^16 configurations exceed the table
    # bound, but collisions are easy to sample
    space = spaces["torus"]
    from homoca.catalog import torus_neighborhood

    neighborhood = torus_neighborhood(space)
    width = len(neighborhood)
    rule = tuple(max(decode(code, 3, width)) for code in range(3**width))
    ca_max = SemiCellularAutomaton(space, 3, neighborhood, rule)
    result = sampled_collision(ca_max)
    assert isinstance(result, NotInvertible)
    assert result.sampled
    a, b = (tuple(c) for c in result.witness["colliding"])
    assert a != b and step(ca_max, a) == step(ca_max, b)


def test_certification_beyond_the_table_bound_is_refused(spaces):
    ca = identity_automaton(spaces["torus"], states=3)
    with pytest.raises(BoundError):
        invert(ca)


def test_invert_rejects_non_invariant_rules(spaces):
    ca = projection_automaton(spaces["square"], position=1)
    with pytest.raises(InputError):
        invert(ca)
