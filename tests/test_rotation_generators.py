"""Rotation invariance on generators, and the whole-group scope.

`is_cellular` reads the rule at generators of the rotations' position
maps only.  The oracle is the loop it replaced, which gathered the rule
once per stabilizer member, kept here verbatim: every verdict and witness
must be the loop's, and where a rotation leaves the neighborhood (a table
that is not a group action allows it), so must the error.
"""

import itertools
import random

import numpy as np
import pytest

import homoca.automata as automata
import homoca.laws as laws
from homoca.automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    generator_indices,
    is_cellular,
    rotation_position_map,
    rotation_position_maps,
    stabilizer_part,
    subgroup_or_whole,
)
from homoca.catalog import bundled_automata, bundled_spaces, group_from_permutations, random_rule_automaton
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import decode, pattern_codes
from homoca.errors import InputError
from homoca.groups import FiniteGroup, LeftAction, Subgroup
from homoca.verdict import Verdict

SPACES = bundled_spaces()


def looped_position_map(ca, h):
    """rotation_position_map as it translated one name at a time."""
    space = ca.space
    hinv = space.group.inv[h]
    positions = []
    lookup = {j: i for i, j in enumerate(ca.neighborhood)}
    for j in ca.neighborhood:
        moved = space.translate_coset(hinv, j)
        if moved not in lookup:
            raise InputError(f"rotation by {h} leaves the neighborhood (coset {moved})")
        positions.append(lookup[moved])
    return tuple(positions)


def looped_is_cellular(ca, subgroup=None):
    """is_cellular as it gathered the rule once per stabilizer member."""
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q = ca.states
    rule = ca.rule_array
    inside = set(sub.members)
    for h in (h for h in space.stabilizer.members if h in inside):
        rotated = rule[pattern_codes(q, ca.arity, looped_position_map(ca, h))]
        bad = np.flatnonzero(rotated != rule)
        if bad.size:
            code = int(bad[0])
            return Verdict.failing(
                "rule-rotation-invariance",
                {
                    "stabilizer_element": int(h),
                    "local": list(decode(code, q, ca.arity)),
                    "rotated_output": int(rotated[code]),
                    "output": int(rule[code]),
                },
            )
    return Verdict.passing("rule-rotation-invariance")


def outcome(check, ca, subgroup=None):
    """The verdict, or the message of the InputError raised instead."""
    try:
        return check(ca, subgroup)
    except InputError as e:
        return f"InputError: {e}"


def symmetric_action(n):
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return group_from_permutations([cycle, swap])


def even_scope(action):
    """The alternating group inside S_n, and the space re-coordinatized in
    it: a proper --subgroup scope that still reaches every cell."""
    act = action.act

    def even(g):
        perm, seen, parity = act[g].tolist(), set(), 0
        for start in range(len(perm)):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x, length = perm[x], length + 1
            parity += max(length - 1, 0)
        return parity % 2 == 0

    members = [g for g in range(action.group.order) if even(g)]
    coords = [min(h for h in members if act[h][0] == m) for m in range(action.points)]
    coords[0] = action.group.identity
    return CellSpace(CoordinateSystem(action, 0, coords)), Subgroup(action.group, members)


S5_ACTION, S6_ACTION = symmetric_action(5), symmetric_action(6)
SPACES_AND_SN = {**SPACES, "s5": CellSpace.default(S5_ACTION), "s6": CellSpace.default(S6_ACTION)}
SCOPES = {"a5": even_scope(S5_ACTION), "a6": even_scope(S6_ACTION)}


def first_generator_invariant(ca, subgroup=None):
    """ca's rule made invariant under the first generator's rotation
    alone: its first failing member, if any, is a later one."""
    space, q = ca.space, ca.states
    inside = set(subgroup_or_whole(space, subgroup).members)
    members = [h for h in space.stabilizer.members if h in inside]
    maps = np.array([rotation_position_map(ca, h) for h in members], dtype=np.intp)
    gens = generator_indices(maps)
    if not gens:
        return ca
    step = pattern_codes(q, ca.arity, maps[gens[0]])
    canon = cur = np.arange(q**ca.arity)
    while True:
        cur = step[cur]
        if np.array_equal(cur, np.arange(q**ca.arity)):
            break
        canon = np.minimum(canon, cur)
    return SemiCellularAutomaton(space, q, ca.neighborhood, ca.rule_array[canon])


def _rules(space, seed, subgroup=None):
    """Raw, symmetrized and first-generator-invariant random rules of 2 or
    3 states on one or two seeded names, at most 3**7 patterns."""
    rng = random.Random(seed)
    picked = rng.sample(range(space.num_cosets), min(1 + seed % 2, space.num_cosets))
    closed = closed_neighborhood(space, picked)
    states = 3 if 3 ** len(closed) <= 3**7 else 2
    raw = random_rule_automaton(space, closed, states, rng, False)
    sym = random_rule_automaton(space, closed, states, rng, True, subgroup)
    return [raw, sym, first_generator_invariant(raw, subgroup)]


@pytest.mark.parametrize("name", sorted(SPACES_AND_SN))
@pytest.mark.parametrize("seed", range(4))
def test_random_rules_agree_with_the_member_loop(name, seed):
    space = SPACES_AND_SN[name]
    for ca in _rules(space, seed):
        assert is_cellular(ca) == looped_is_cellular(ca), seed


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_a_subgroup_scope_agrees_with_the_member_loop(scope):
    space, sub = SCOPES[scope]
    verdicts = set()
    for seed in range(4):
        for ca in _rules(space, seed, sub):
            verdict = is_cellular(ca, sub)
            assert verdict == looped_is_cellular(ca, sub), seed
            verdicts.add(verdict.ok)
    # the rule symmetrized over the scope passes it, the raw rule does not
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(bundled_automata()))
def test_bundled_automata_agree_with_the_member_loop(name):
    ca = bundled_automata()[name]
    assert is_cellular(ca) == looped_is_cellular(ca)


def test_the_first_failing_member_need_not_be_the_first_generator():
    later = 0
    for name in ("cube", "torus", "s5", "s6"):
        space = SPACES_AND_SN[name]
        members = space.stabilizer.members
        for seed in range(4):
            ca = _rules(space, seed)[2]
            maps = np.array([looped_position_map(ca, h) for h in members], dtype=np.intp)
            verdict = is_cellular(ca)
            assert verdict == looped_is_cellular(ca)
            if not verdict.ok:
                first = members[generator_indices(maps)[0]]
                later += verdict.witness["stabilizer_element"] != first
    assert later >= 4


@pytest.mark.parametrize("name", sorted(SPACES_AND_SN))
def test_the_batch_position_maps_are_the_per_member_maps(name):
    space = SPACES_AND_SN[name]
    ca = _rules(space, 0)[0]
    members = space.stabilizer.members
    maps = rotation_position_maps(ca, members)
    assert maps.tolist() == [list(looped_position_map(ca, h)) for h in members]
    assert [rotation_position_map(ca, h) for h in members] == [tuple(row) for row in maps.tolist()]


def test_a_passing_rule_reads_no_per_member_rotation(monkeypatch):
    def per_member(ca, h):
        raise AssertionError("rotation_position_map called")

    space = SPACES_AND_SN["s6"]
    ca = _rules(space, 1)[1]
    monkeypatch.setattr(automata, "rotation_position_map", per_member)
    assert is_cellular(ca).ok


# ------------------------------------------------ rotations off the table


def _doctored_space():
    """The cube about face 2 with one stabilizer member h given a second
    two-sided inverse x outside the stabilizer, smaller than its own, and
    a closed neighborhood that rotating by h leaves while an earlier
    member permutes it.  group.inv[h] is then x; every table the loader
    builds still loads."""
    space = CellSpace.default(SPACES["cube"].action, origin=2)
    stab = space.stabilizer.members
    true_inv = space.group.inv
    for h, x in itertools.product(stab[2:], range(space.group.order)):
        if x in stab or x >= true_inv[h]:
            continue
        mul = space.group.mul.copy()
        mul[h, x] = mul[x, h] = space.group.identity
        group = FiniteGroup(space.group.order, mul, space.group.identity)
        action = LeftAction(group, space.cells, space.action.act)
        doctored = CellSpace(CoordinateSystem(action, space.origin, space.coords))
        assert doctored.group.inv[h] == x
        for names in itertools.combinations(range(space.num_cosets), 3):
            neighborhood = closed_neighborhood(doctored, names)
            moved = doctored.translate_cosets([x], neighborhood)[0]
            earlier = doctored.translate_cosets([true_inv[g] for g in stab[1 : stab.index(h)]], neighborhood)
            if not set(moved) <= set(neighborhood) and (earlier != neighborhood).any():
                return doctored, h, neighborhood
    raise AssertionError("no doctored cube found")


def test_a_rotation_off_the_neighborhood_raises_as_the_member_loop_does():
    space, h, neighborhood = _doctored_space()
    kinds = set()
    for seed in range(6):
        rng = random.Random(seed)
        rule = [rng.randrange(2) for _ in range(2 ** len(neighborhood))]
        if seed < len(neighborhood):
            # the projection onto one name: a member before h moves it
            rule = [decode(c, 2, len(neighborhood))[seed] for c in range(len(rule))]
        elif seed == len(neighborhood):
            rule = [0] * len(rule)
        ca = SemiCellularAutomaton(space, 2, neighborhood, rule)
        got = outcome(is_cellular, ca)
        assert got == outcome(looped_is_cellular, ca), seed
        kinds.add(type(got))
    assert kinds == {str, Verdict}
    with pytest.raises(InputError, match=f"rotation by {h} leaves the neighborhood"):
        is_cellular(SemiCellularAutomaton(space, 2, neighborhood, [0] * 2 ** len(neighborhood)))


def _map_or_error(position_map, ca, h):
    try:
        return position_map(ca, h)
    except InputError as e:
        return f"InputError: {e}"


def test_position_maps_off_the_neighborhood_raise_as_the_member_loop_does():
    space, h, neighborhood = _doctored_space()
    ca = SemiCellularAutomaton(space, 2, neighborhood, [0] * 2 ** len(neighborhood))
    members = stabilizer_part(space, subgroup_or_whole(space, None))
    got = [_map_or_error(rotation_position_map, ca, g) for g in members]
    assert got == [_map_or_error(looped_position_map, ca, g) for g in members]
    maps = rotation_position_maps(ca, members)
    errors = [m for m in got if isinstance(m, str)]
    assert [isinstance(m, str) for m in got] == (maps < 0).any(axis=1).tolist()
    assert [m for m in got if not isinstance(m, str)] == [tuple(row) for row in maps.tolist() if min(row) >= 0]
    assert f"rotation by {h} leaves" in "".join(errors)
    # symmetrizing a rule raises at the first member that leaves, as the
    # per-member loop did
    with pytest.raises(InputError) as raised:
        random_rule_automaton(space, neighborhood, 2, random.Random(0), symmetrize=True)
    assert f"InputError: {raised.value}" == errors[0]


# -------------------------------------------------- the whole-group scope


def test_generator_indices_has_one_copy():
    assert laws.generator_indices is automata.generator_indices


@pytest.mark.parametrize("name", sorted(SPACES_AND_SN))
def test_the_whole_scope_is_built_once_per_group(name):
    group = SPACES_AND_SN[name].group
    whole = Subgroup.whole(group)
    assert whole is Subgroup.whole(group) is group.whole
    assert whole == Subgroup(group, range(group.order))
    assert subgroup_or_whole(SPACES_AND_SN[name], None) is whole


def test_a_table_with_a_row_lacking_the_identity_still_raises():
    # row 1 never reaches the identity 0: closure holds, inverses do not
    group = FiniteGroup(2, [[0, 1], [1, 1]], 0)
    for _ in range(2):
        with pytest.raises(InputError, match="no inverse inside"):
            Subgroup.whole(group)
    assert "whole" not in vars(group)
