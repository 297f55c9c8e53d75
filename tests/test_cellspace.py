"""Coordinate systems, the relative-name semi-action, and its defects."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from homoca.catalog import bundled_spaces, group_from_permutations
from homoca.cellspace import (
    CellSpace,
    CoordinateSystem,
    build_coordinate_system,
    check_fixes_nothing_moves_all,
    check_free_transitive,
    commutation_defect,
    coordinate_change_defect,
    defect,
    identify,
)
from homoca.errors import InputError
from homoca.groups import FiniteGroup, LeftAction, transporter

SPACE_NAMES = ("cyclic4", "square", "cube", "torus")


def semi_act(space, m, coset):
    """Resolve the relative name `coset` at cell m."""
    return space.semi_cell(m, space.coset_index_of(coset))


# ----------------------------------------------------------- construction


def test_default_coordinates_are_minimum_transporters(spaces):
    assert spaces["cyclic4"].coords == (0, 1, 2, 3)
    assert spaces["square"].coords == (0, 2, 4, 6)
    assert spaces["cube"].coords == (0, 4, 8, 12, 16, 20)
    assert spaces["torus"].coords == tuple(range(0, 64, 4))


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_every_origin_admits_default_coordinates(name, spaces):
    action = spaces[name].action
    for origin in range(action.points):
        system = build_coordinate_system(action, origin)
        assert system.coords[origin] == action.group.identity
        for m, g in enumerate(system.coords):
            assert action.act[g][origin] == m


def _relabelled(action, labels):
    """The same action with element g renamed labels[g]."""
    n = action.group.order
    mul = [[0] * n for _ in range(n)]
    act = [None] * n
    for a in range(n):
        act[labels[a]] = action.act[a]
        for b in range(n):
            mul[labels[a]][labels[b]] = labels[action.group.mul[a][b]]
    group = FiniteGroup(n, tuple(map(tuple, mul)), labels[action.group.identity])
    return LeftAction(group, action.points, tuple(act))


@pytest.mark.parametrize("points", [3, 4])
def test_default_coordinates_put_the_identity_at_the_origin_of_a_relabelled_group(points):
    cycle = tuple(range(1, points)) + (0,)
    swap = (1, 0) + tuple(range(2, points))
    base = group_from_permutations([cycle, swap])
    # reverse the labels: the identity (label 0 before) gets the largest one
    order = base.group.order
    action = _relabelled(base, [order - 1 - g for g in range(order)])
    assert action.group.identity == order - 1
    for origin in range(points):
        system = build_coordinate_system(action, origin)
        assert system.coords[origin] == action.group.identity
        for m, g in enumerate(system.coords):
            if m != origin:
                assert g == min(transporter(action, origin, m))
        assert CellSpace.default(action, origin).coords == system.coords


def test_bad_coordinate_systems_are_rejected(spaces):
    action = spaces["square"].action
    with pytest.raises(InputError):
        CoordinateSystem(action, 0, (2, 2, 4, 6))  # origin coordinate not identity
    with pytest.raises(InputError):
        CoordinateSystem(action, 0, (0, 4, 2, 6))  # transports land on wrong cells
    with pytest.raises(InputError):
        CoordinateSystem(action, 0, (0, 2, 4))  # one coordinate short


# ------------------------------------------------------------ semi-action


def test_square_semi_table_frozen(spaces):
    # computed by hand from the vertex permutations and coords (0, 2, 4, 6)
    assert spaces["square"].semi_table.tolist() == [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 1, 0, 3],
        [3, 0, 1, 2],
    ]


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_semi_action_is_free_and_transitive(name, spaces):
    assert check_free_transitive(spaces[name]).ok


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_trivial_coset_resolves_to_the_cell_itself(name, spaces):
    assert check_fixes_nothing_moves_all(spaces[name]).ok


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_semi_act_matches_the_definition(name, spaces):
    space = spaces[name]
    act, mul = space.action.act, space.group.mul
    for m in range(space.cells):
        for j, coset in enumerate(space.cosets):
            resolved = semi_act(space, m, coset)
            assert resolved == space.semi_cell(m, j)
            assert resolved == act[mul[space.coords[m]][coset.rep]][space.origin]
            # any member of the coset resolves the same way
            for g in coset.members:
                assert act[mul[space.coords[m]][g]][space.origin] == resolved


def test_coset_translation_is_a_left_action(spaces):
    space = spaces["cube"]
    group = space.group
    for g in range(group.order):
        for h in range(group.order):
            for j in range(space.num_cosets):
                assert space.translate_coset(g, space.translate_coset(h, j)) == space.translate_coset(
                    group.mul[g][h], j
                )


# ---------------------------------------------------------------- defects


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_defect_repairs_right_multiplication(name, spaces):
    space = spaces[name]
    for m in range(space.cells):
        for h in range(space.group.order):
            h0 = defect(space, m, h)
            assert h0 in space.stabilizer.members
            middle = space.semi_cell(m, space.coset_index(h))
            for t in range(space.num_cosets):
                assert space.semi_cell(m, space.translate_coset(h, t)) == space.semi_cell(
                    middle, space.translate_coset(h0, t)
                )


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_commutation_defect_slides_the_action_past_resolution(name, spaces):
    space = spaces[name]
    act = space.action.act
    for m in range(space.cells):
        for h in range(space.group.order):
            h0 = commutation_defect(space, m, h)
            assert h0 in space.stabilizer.members
            moved = act[h][m]
            for t in range(space.num_cosets):
                assert space.semi_cell(moved, t) == act[h][
                    space.semi_cell(m, space.translate_coset(h0, t))
                ]


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_coordinate_change_defect_aligns_two_systems(name, spaces):
    space = spaces[name]
    action = space.action
    group = space.group
    mul, inv = group.mul, group.inv
    for origin2 in range(action.points):
        space2 = CellSpace.default(action, origin2)
        for h in transporter(action, space.origin, origin2):
            for m in range(space.cells):
                h0 = coordinate_change_defect(space, space2, h, m)
                assert h0 in space.stabilizer.members
                for t2 in range(space2.num_cosets):
                    conjugated = mul[inv[h]][mul[space2.coset_reps[t2]][h]]
                    j = space.coset_index(mul[h0][conjugated])
                    assert space2.semi_cell(m, t2) == space.semi_cell(m, j)


def test_coordinate_change_needs_a_transporting_element(spaces):
    space = spaces["square"]
    space2 = CellSpace.default(space.action, 1)
    stray = [g for g in space.group.elements() if space.action.act[g][0] != 1][0]
    with pytest.raises(InputError):
        coordinate_change_defect(space, space2, stray, 0)


# --------------------------------------------------------- identification


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_identification_round_trip_and_factoring(name, spaces):
    space = spaces[name]
    ident = identify(space)
    assert ident.verdict.ok
    for j, cell in enumerate(ident.coset_to_cell):
        assert ident.cell_to_coset[cell] == j
    act = space.action.act
    for m in range(space.cells):
        for j in range(space.num_cosets):
            assert space.semi_cell(m, j) == act[space.coords[m]][ident.coset_to_cell[j]]


def test_identification_on_a_perturbed_system_still_holds(spaces):
    # identification is coordinate-free on the label side; any valid
    # system must satisfy it
    action = spaces["square"].action
    coords = list(spaces["square"].coords)
    coords[2] = 5  # the other member of the transporter coset 0 -> 2
    space = CellSpace(CoordinateSystem(action, 0, tuple(coords)))
    assert identify(space).verdict.ok
    assert check_free_transitive(space).ok


# ------------------------------------------------------------- hypothesis


@given(
    name=st.sampled_from(SPACE_NAMES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_defects_land_in_the_stabilizer(name, seed):
    import random

    space = bundled_spaces()[name]
    rng = random.Random(seed)
    m = rng.randrange(space.cells)
    h = rng.randrange(space.group.order)
    assert defect(space, m, h) in space.stabilizer.members
    assert commutation_defect(space, m, h) in space.stabilizer.members
