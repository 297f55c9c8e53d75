"""Cayley tables, actions, and coset machinery against brute-force oracles.

The oracles here recompute everything from raw vertex/face permutations
with plain tuples and dict loops, independent of the array code under
test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from homoca.catalog import (
    bundled_spaces,
    cube_face_action,
    cyclic_self_action,
    square_symmetry_action,
    torus_quarter_turn_action,
)
from homoca.errors import InputError, LawError
from homoca.groups import (
    FiniteGroup,
    LeftAction,
    Subgroup,
    check_transporter_lemma,
    conjugate_coset,
    coset_labels,
    is_stabilizer_subgroup,
    orbit,
    require_group_action,
    stabilizer,
    transporter,
    verify_action,
    verify_group,
)
from plain_forms import point_coset_labels, quotient_set

# ----------------------------------------------------------------- oracle


def compose(p, q):
    """Permutation doing q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def close_under_composition(generators):
    found = set(generators)
    frontier = list(found)
    while frontier:
        nxt = []
        for p in frontier:
            for q in list(found):
                for r in (compose(p, q), compose(q, p)):
                    if r not in found:
                        found.add(r)
                        nxt.append(r)
        frontier = nxt
    return found


def is_transitive(action):
    return len(orbit(action, 0)) == action.points


def coset_representatives(group, sub):
    """Canonical (minimum-member) representative of each left coset, sorted."""
    return tuple(coset_labels(group, sub)[0].tolist())


def action_permutations(action):
    return [tuple(action.act[g]) for g in range(action.group.order)]


ROTATE_SQUARE = (1, 2, 3, 0)
FLIP_SQUARE = (0, 3, 2, 1)

# Faces paired as 0/1, 2/3, 4/5 along the three axes.
ROLL_CUBE = (0, 1, 4, 5, 3, 2)
SPIN_CUBE = (5, 4, 2, 3, 0, 1)


# ---------------------------------------------------------------- groups


def test_square_symmetries_match_the_generated_closure():
    action = square_symmetry_action()
    oracle = close_under_composition({ROTATE_SQUARE, FLIP_SQUARE, (0, 1, 2, 3)})
    assert len(oracle) == 8
    perms = action_permutations(action)
    assert set(perms) == oracle
    assert perms == sorted(perms)  # lexicographic element order
    assert perms[action.group.identity] == (0, 1, 2, 3)


def test_cube_rotations_match_the_generated_closure():
    action = cube_face_action()
    oracle = close_under_composition({ROLL_CUBE, SPIN_CUBE, (0, 1, 2, 3, 4, 5)})
    assert len(oracle) == 24
    assert set(action_permutations(action)) == oracle


def test_multiplication_agrees_with_permutation_composition():
    for action in (square_symmetry_action(), cube_face_action(), cyclic_self_action(4)):
        perms = action_permutations(action)
        n = action.group.order
        for a in range(n):
            for b in range(n):
                assert perms[action.group.mul[a][b]] == compose(perms[a], perms[b])


def test_cyclic_table_is_addition():
    action = cyclic_self_action(4)
    for a in range(4):
        for b in range(4):
            assert action.group.mul[a][b] == (a + b) % 4


def test_torus_group_order_and_size():
    action = torus_quarter_turn_action()
    assert action.group.order == 64
    assert action.points == 16


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_bundled_axioms_hold(name, spaces):
    space = spaces[name]
    assert verify_group(space.group).ok
    assert verify_action(space.action).ok
    assert is_transitive(space.action)


def test_broken_associativity_is_reported_with_a_triple():
    mul = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul[1][2] = mul[1][1]
    verdict = verify_group(FiniteGroup(4, tuple(tuple(r) for r in mul), 0))
    assert not verdict.ok
    assert verdict.law == "group-associativity"
    a, b, c = verdict.witness["triple"]
    left = mul[mul[a][b]][c]
    right = mul[a][mul[b][c]]
    assert left != right  # the witness re-checks against the raw table


def test_broken_identity_row_is_reported():
    mul = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    mul[0][1] = 2
    verdict = verify_group(FiniteGroup(3, tuple(tuple(r) for r in mul), 0))
    assert not verdict.ok
    assert verdict.law == "group-identity"


def test_broken_action_identity_is_reported():
    action = cyclic_self_action(3)
    act = [list(row) for row in action.act]
    act[0] = [1, 0, 2]
    verdict = verify_action(
        type(action)(action.group, 3, tuple(tuple(r) for r in act))
    )
    assert not verdict.ok
    assert verdict.law == "action-identity"


def test_require_group_action_names_the_first_broken_axiom(spaces):
    action = spaces["cyclic4"].action
    assert require_group_action(action) is None
    mul = action.group.mul.copy()
    mul[3, 3] = 0
    act = action.act.copy()
    act[3, 2] = 3
    # a broken group is reported before the action it acts by
    broken_group = LeftAction(FiniteGroup(4, mul, 0), 4, act)
    broken_action = LeftAction(action.group, 4, act)
    cases = ((broken_group, verify_group(broken_group.group)), (broken_action, verify_action(broken_action)))
    for broken, expected in cases:
        with pytest.raises(LawError) as caught:
            require_group_action(broken)
        assert caught.value.verdict == expected
    assert verify_group(broken_group.group).law == "group-associativity"
    assert verify_action(broken_action).law == "action-compatibility"


# --------------------------------------------- orbits, stabilizers, cosets


def oracle_orbit(action, m):
    return {action.act[g][m] for g in range(action.group.order)}


def oracle_stabilizer(action, m):
    return {g for g in range(action.group.order) if action.act[g][m] == m}


def oracle_transporter(action, m, target):
    return {g for g in range(action.group.order) if action.act[g][m] == target}


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_orbit_stabilizer_transporter_against_oracle(name, spaces):
    action = spaces[name].action
    for m in range(action.points):
        assert set(orbit(action, m)) == oracle_orbit(action, m)
        stab = stabilizer(action, m)
        assert set(stab.members) == oracle_stabilizer(action, m)
        # orbit-stabilizer counting
        assert len(orbit(action, m)) * len(stab.members) == action.group.order
        for target in range(action.points):
            assert set(transporter(action, m, target)) == oracle_transporter(action, m, target)


def test_square_frozen_values(spaces):
    action = spaces["square"].action
    assert stabilizer(action, 0).members == (0, 1)
    assert transporter(action, 0, 2) == (4, 5)
    reps = coset_representatives(action.group, stabilizer(action, 0))
    assert reps == (0, 2, 4, 6)


def test_cube_frozen_values(spaces):
    action = spaces["cube"].action
    assert stabilizer(action, 0).members == (0, 1, 2, 3)
    reps = coset_representatives(action.group, stabilizer(action, 0))
    assert reps == (0, 4, 8, 12, 16, 20)
    # faces are paired 0/1, 2/3, 4/5 and every rotation preserves the pairing
    for g in range(24):
        for m in range(6):
            assert action.act[g][m ^ 1] == action.act[g][m] ^ 1


def test_torus_frozen_values(spaces):
    action = spaces["torus"].action
    assert stabilizer(action, 0).members == (0, 1, 2, 3)
    reps = coset_representatives(action.group, stabilizer(action, 0))
    assert reps == tuple(range(0, 64, 4))


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_transporter_lemma_on_every_transporting_element(name, spaces):
    action = spaces[name].action
    for m in range(action.points):
        for g in range(action.group.order):
            verdict = check_transporter_lemma(action, m, action.act[g][m], g)
            assert verdict.ok, verdict.witness


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_coset_representatives_are_minima(name, spaces):
    space = spaces[name]
    group = space.group
    stab = stabilizer(space.action, space.origin)
    for rep in coset_representatives(group, stab):
        members = {group.mul[rep][s] for s in stab.members}
        assert rep == min(members)


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_point_labels_are_transporter_cosets(name, spaces):
    space = spaces[name]
    labels = point_coset_labels(space.action, space.origin)
    for m, coset in enumerate(labels):
        assert set(coset.members) == oracle_transporter(space.action, space.origin, m)


def test_quotient_action_is_left_multiplication(spaces):
    space = spaces["square"]
    stab = stabilizer(space.action, space.origin)
    qs = quotient_set(space.group, stab)
    reps = coset_representatives(space.group, stab)
    for g in range(space.group.order):
        for j, rep in enumerate(reps):
            moved = qs.action.act[g][j]
            product = space.group.mul[g][rep]
            # the image coset is the one containing g * rep
            assert product in qs.cosets[moved].members


def test_subgroup_closure_is_validated(spaces):
    group = spaces["square"].group
    with pytest.raises(InputError):
        Subgroup(group, (0, 2, 3))  # products escape this subset
    with pytest.raises(InputError):
        Subgroup(group, (1, 2))  # no identity


def test_is_stabilizer_subgroup(spaces):
    space = spaces["square"]
    stab = stabilizer(space.action, space.origin)
    assert is_stabilizer_subgroup(space.action, stab)
    assert not is_stabilizer_subgroup(space.action, Subgroup.whole(space.group))


# ------------------------------------------------------------- hypothesis

group_elements = st.integers(min_value=0, max_value=7)


@given(g=group_elements, h=group_elements, j=st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_conjugating_cosets_respects_multiplication(g, h, j):
    space = bundled_spaces()["square"]
    stab = stabilizer(space.action, space.origin)
    coset = quotient_set(space.group, stab).cosets[j]
    inner = conjugate_coset(space.action, h, coset)
    outer = conjugate_coset(space.action, g, inner)
    combined = conjugate_coset(space.action, space.group.mul[g][h], coset)
    assert outer.members == combined.members
