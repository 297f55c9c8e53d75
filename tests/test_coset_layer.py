"""The coset layer against scalar definitions, on every bundled space and
on relabelled symmetric groups.

Orbits, stabilizers, transporters, cosets, quotient sets, point labels,
default coordinates and coordinate-system variants are read off columns
and blocks of the tables.  The oracles here restate each definition one
element at a time, on plain lists, so they share nothing with the array
code.  S4 and S5 act on their points under a seeded relabelling of the
elements, once with the identity kept at 0 and once with it moved.
"""

import random

import pytest

from homoca.catalog import bundled_spaces, coordinate_system_variants, group_from_permutations
from homoca.cellspace import CoordinateSystem, build_coordinate_system
from homoca.errors import InputError, LawError
from homoca.groups import (
    Coset,
    FiniteGroup,
    LeftAction,
    Subgroup,
    orbit,
    stabilizer,
    transporter,
)
from plain_forms import point_coset_labels, quotient_set


def _relabelled_symmetric(points, seed, move_identity):
    """S_points on its points, with the element labels shuffled by seed."""
    cycle = tuple(range(1, points)) + (0,)
    swap = (1, 0) + tuple(range(2, points))
    natural = group_from_permutations([cycle, swap])
    n = natural.group.order
    perm = list(range(n))
    rng = random.Random(seed)
    if move_identity:
        rng.shuffle(perm)
    else:
        tail = perm[1:]
        rng.shuffle(tail)
        perm[1:] = tail
    mul = natural.group.mul.tolist()
    relabelled = [[0] * n for _ in range(n)]
    act = [None] * n
    for a in range(n):
        act[perm[a]] = natural.act[a].tolist()
        for b in range(n):
            relabelled[perm[a]][perm[b]] = perm[mul[a][b]]
    group = FiniteGroup(n, relabelled, perm[natural.group.identity])
    return LeftAction(group, points, act)


def _actions():
    out = {name: space.action for name, space in bundled_spaces().items()}
    for points, seed in ((4, 11), (5, 12)):
        out[f"s{points}"] = _relabelled_symmetric(points, seed, False)
        out[f"s{points}-moved"] = _relabelled_symmetric(points, seed, True)
    return out


ACTIONS = _actions()
NAMES = sorted(ACTIONS)


def _tables(action):
    return action.group.mul.tolist(), action.act.tolist(), action.group.identity


# ---------------------------------------------------------------- oracles


def scalar_orbit(act, m):
    return sorted({act[g][m] for g in range(len(act))})


def scalar_transporter(act, m, m2):
    return [g for g in range(len(act)) if act[g][m] == m2]


def scalar_coset(mul, members, g):
    return sorted(mul[g][h] for h in members)


def scalar_coordinates(act, e, origin):
    cells = range(len(act[0]))
    return [e if m == origin else min(scalar_transporter(act, origin, m)) for m in cells]


# ------------------------------------------------------------------ tests


def test_the_relabelled_groups_move_the_identity():
    assert ACTIONS["s4"].group.identity == ACTIONS["s5"].group.identity == 0
    assert ACTIONS["s4-moved"].group.identity != 0
    assert ACTIONS["s5-moved"].group.identity != 0
    assert ACTIONS["s5"].group.order == 120


@pytest.mark.parametrize("name", NAMES)
def test_orbits_stabilizers_and_transporters_match_the_scalar_scan(name):
    action = ACTIONS[name]
    _, act, _ = _tables(action)
    for m in range(action.points):
        assert list(orbit(action, m)) == scalar_orbit(act, m)
        assert list(stabilizer(action, m).members) == scalar_transporter(act, m, m)
        for m2 in range(action.points):
            got = transporter(action, m, m2)
            assert list(got) == scalar_transporter(act, m, m2)
            assert all(type(g) is int for g in got)


@pytest.mark.parametrize("name", NAMES)
def test_cosets_match_the_scalar_products(name):
    action = ACTIONS[name]
    mul, _, _ = _tables(action)
    for m in range(action.points):
        sub = stabilizer(action, m)
        for g in range(action.group.order):
            members = scalar_coset(mul, sub.members, g)
            coset = Coset.of(sub, g)
            assert coset.rep == members[0] and type(coset.rep) is int
            assert list(coset.members) == members
            assert list(Coset(sub, members[0]).members) == members
            if g != members[0]:
                with pytest.raises(InputError, match="is not the minimum member"):
                    Coset(sub, g)


@pytest.mark.parametrize("name", NAMES)
def test_quotient_sets_match_the_scalar_cosets(name):
    action = ACTIONS[name]
    mul, _, _ = _tables(action)
    n = action.group.order
    sub = stabilizer(action, 0)
    reps = sorted({scalar_coset(mul, sub.members, g)[0] for g in range(n)})
    qs = quotient_set(action.group, sub)
    assert [c.rep for c in qs.cosets] == reps
    assert [list(c.members) for c in qs.cosets] == [scalar_coset(mul, sub.members, r) for r in reps]
    expected = [
        [reps.index(scalar_coset(mul, sub.members, mul[g][r])[0]) for r in reps] for g in range(n)
    ]
    assert qs.action.act.tolist() == expected


@pytest.mark.parametrize("name", NAMES)
def test_point_labels_and_default_coordinates_match_the_scalar_scan(name):
    action = ACTIONS[name]
    mul, act, e = _tables(action)
    for origin in range(action.points):
        sub = stabilizer(action, origin)
        labels = point_coset_labels(action, origin)
        for m, coset in enumerate(labels):
            rep = min(scalar_transporter(act, origin, m))
            assert coset.rep == rep
            assert list(coset.members) == scalar_coset(mul, sub.members, rep)
        system = build_coordinate_system(action, origin)
        assert list(system.coords) == scalar_coordinates(act, e, origin)
        assert all(type(g) is int for g in system.coords)


def scalar_variants(action, count, seed):
    """coordinate_system_variants, one transporter scan at a time."""
    _, act, e = _tables(action)
    rng = random.Random(seed)
    variants, seen = [], set()

    def push(origin, coords):
        if (origin, coords) not in seen:
            seen.add((origin, coords))
            variants.append((origin, coords))

    choices = {}
    for origin in range(action.points):
        push(origin, tuple(scalar_coordinates(act, e, origin)))
        for m in range(action.points):
            choices[origin, m] = scalar_transporter(act, origin, m)
    total = 0
    for origin in range(action.points):
        systems = 1
        for m in range(action.points):
            if m != origin:
                systems *= len(choices[origin, m])
        total += systems
    attempts = 0
    while len(variants) < min(count, total) and attempts < 10000:
        attempts += 1
        origin = rng.randrange(action.points)
        cells = range(action.points)
        push(origin, tuple(e if m == origin else rng.choice(choices[origin, m]) for m in cells))
    return variants[:count]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", NAMES)
def test_coordinate_system_variants_match_the_scalar_scan(name, seed):
    action = ACTIONS[name]
    got = coordinate_system_variants(action, 6, seed)
    assert [(s.origin, s.coords) for s in got] == scalar_variants(action, 6, seed)
    assert all(type(g) is int for s in got for g in s.coords)


def scalar_coordinate_fault(action, origin, coords):
    """The first cell whose coordinate is out of range or lands elsewhere."""
    _, act, _ = _tables(action)
    for m, g in enumerate(coords):
        if not 0 <= g < action.group.order:
            return InputError, f"coordinate {g} of cell {m} out of range"
        if act[g][origin] != m:
            return LawError, {"cell": m, "coord": g, "lands_on": act[g][origin]}
    return None


@pytest.mark.parametrize("name", NAMES)
def test_coordinate_faults_are_reported_at_the_first_cell(name):
    action = ACTIONS[name]
    rng = random.Random(name)
    good = build_coordinate_system(action, 0).coords
    n = action.group.order
    for _ in range(20):
        coords = list(good)
        for m in rng.sample(range(1, action.points), min(2, action.points - 1)):
            coords[m] = rng.choice([-1, n, n + 5, rng.randrange(n)])
        expected = scalar_coordinate_fault(action, 0, coords)
        if expected is None:
            assert CoordinateSystem(action, 0, tuple(coords)).coords == tuple(coords)
            continue
        kind, detail = expected
        with pytest.raises(kind) as fault:
            CoordinateSystem(action, 0, tuple(coords))
        if kind is InputError:
            assert str(fault.value) == detail
        else:
            assert fault.value.verdict.law == "coordinate-transport"
            assert fault.value.verdict.witness == detail


@pytest.mark.parametrize("name", NAMES)
def test_subgroup_members_are_sorted_python_ints(name):
    group = ACTIONS[name].group
    whole = Subgroup.whole(group)
    assert whole.members == tuple(range(group.order))
    shuffled = list(stabilizer(ACTIONS[name], 0).members)
    random.Random(name).shuffle(shuffled)
    sub = Subgroup(group, shuffled + shuffled[:1])
    assert sub.members == stabilizer(ACTIONS[name], 0).members
    assert all(type(h) is int for h in sub.members)
