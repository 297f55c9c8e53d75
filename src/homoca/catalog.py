"""Bundled example spaces and rules used by the tests, scripts and docs.

Groups are built by closing generator permutations under composition and
sorting the resulting permutations lexicographically, which pins down
element indices deterministically (the identity always lands at 0).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

import numpy as np

from .automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    leaving_error,
    rotation_position_maps,
    stabilizer_part,
    subgroup_or_whole,
)
from .cellspace import CellSpace, CoordinateSystem, build_coordinate_system
from .encoding import pattern_codes
from .errors import InputError
from .groups import FiniteGroup, LeftAction, Subgroup


def compose_permutations(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def group_from_permutations(generators: Iterable[Sequence[int]]) -> LeftAction:
    """Close generators under composition; elements are indexed by the
    lexicographic order of their permutation tuples."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise InputError("need at least one generator")
    points = len(gens[0])
    identity = tuple(range(points))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose_permutations(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(index[compose_permutations(a, b)] for b in perms) for a in perms
    )
    group = FiniteGroup(len(perms), mul, index[identity])
    act = tuple(perms[g] for g in range(len(perms)))
    return LeftAction(group, points, act)


def cyclic_self_action(n: int) -> LeftAction:
    """The cyclic group translating itself."""
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    group = FiniteGroup(n, mul, 0)
    return LeftAction(group, n, mul)


def cyclic_space(n: int) -> CellSpace:
    return CellSpace.default(cyclic_self_action(n))


def square_symmetry_action() -> LeftAction:
    """Symmetries of a square acting on its four corners in cyclic order."""
    rotation = (1, 2, 3, 0)
    reflection = (0, 3, 2, 1)
    return group_from_permutations([rotation, reflection])


def square_space() -> CellSpace:
    return CellSpace.default(square_symmetry_action())


def cube_face_action() -> LeftAction:
    """Rotations of a cube acting on faces +z, -z, +x, -x, +y, -y."""
    about_z = (0, 1, 4, 5, 3, 2)
    about_x = (5, 4, 2, 3, 0, 1)
    return group_from_permutations([about_z, about_x])


def cube_space() -> CellSpace:
    return CellSpace.default(cube_face_action())


def torus_cell(x: int, y: int) -> int:
    return (x % 4) + 4 * (y % 4)


def torus_quarter_turn_action() -> LeftAction:
    """Translations and quarter turns of a 4x4 torus (64 symmetries)."""
    east = tuple(torus_cell(x + 1, y) for y in range(4) for x in range(4))
    north = tuple(torus_cell(x, y + 1) for y in range(4) for x in range(4))
    turn = tuple(torus_cell(-y, x) for y in range(4) for x in range(4))
    return group_from_permutations([east, north, turn])


def torus_space() -> CellSpace:
    return CellSpace.default(torus_quarter_turn_action())


def bundled_spaces() -> dict[str, CellSpace]:
    return {
        "cyclic4": cyclic_space(4),
        "square": square_space(),
        "cube": cube_space(),
        "torus": torus_space(),
    }


# ---------------------------------------------------------------- rules


def identity_automaton(space: CellSpace, states: int = 2) -> SemiCellularAutomaton:
    center = space.coset_index(space.group.identity)
    return SemiCellularAutomaton(space, states, (center,), tuple(range(states)))


def or_automaton(space: CellSpace, neighborhood: Optional[Sequence[int]] = None) -> SemiCellularAutomaton:
    """Binary OR over a neighborhood (the whole coset space by default)."""
    if neighborhood is None:
        neighborhood = tuple(range(space.num_cosets))
    neighborhood = closed_neighborhood(space, neighborhood)
    rule = np.minimum(np.arange(2 ** len(neighborhood)), 1)
    return SemiCellularAutomaton(space, 2, neighborhood, rule)


def projection_automaton(
    space: CellSpace, states: int = 2, position: int = 0
) -> SemiCellularAutomaton:
    """Copy one position of the full neighborhood; rotation-invariant only
    when the origin stabilizer fixes that position."""
    neighborhood = tuple(range(space.num_cosets))
    rule = pattern_codes(states, len(neighborhood), [position])
    return SemiCellularAutomaton(space, states, neighborhood, rule)


def cyclic_shift_automaton() -> SemiCellularAutomaton:
    """Pull each state from the next cell around the 4-cycle."""
    space = cyclic_space(4)
    offset = space.coset_index(1)
    return SemiCellularAutomaton(space, 2, (offset,), (0, 1))


def torus_neighborhood(space: CellSpace) -> tuple[int, ...]:
    """Center plus the four adjacent cells, as relative names."""
    cells = [torus_cell(0, 0), torus_cell(1, 0), torus_cell(0, 1), torus_cell(-1, 0), torus_cell(0, -1)]
    return closed_neighborhood(space, tuple(space.cell_coset(m) for m in cells))


def torus_or_automaton(space: Optional[CellSpace] = None) -> SemiCellularAutomaton:
    space = space or torus_space()
    return or_automaton(space, torus_neighborhood(space))


def bundled_automata() -> dict[str, SemiCellularAutomaton]:
    spaces = bundled_spaces()
    return {
        "cyclic4_identity": identity_automaton(spaces["cyclic4"]),
        "cyclic4_shift": cyclic_shift_automaton(),
        "cyclic4_or": or_automaton(spaces["cyclic4"]),
        "square_identity": identity_automaton(spaces["square"]),
        "square_or": or_automaton(spaces["square"]),
        "cube_identity": identity_automaton(spaces["cube"]),
        "cube_or": or_automaton(spaces["cube"], cube_cross_neighborhood(spaces["cube"])),
        "torus_identity": identity_automaton(spaces["torus"]),
        "torus_or": torus_or_automaton(spaces["torus"]),
    }


def cube_cross_neighborhood(space: CellSpace) -> tuple[int, ...]:
    """Center face plus the four faces around it (opposite face left out)."""
    adjacent = [m for m in range(space.cells) if m not in (space.origin, _opposite_face(space.origin))]
    names = [space.cell_coset(space.origin)] + [space.cell_coset(m) for m in adjacent]
    return closed_neighborhood(space, names)


def _opposite_face(face: int) -> int:
    return face ^ 1


# ------------------------------------------------------- generated rules


def random_rule_automaton(
    space: CellSpace,
    neighborhood: Sequence[int],
    states: int,
    rng: random.Random,
    symmetrize: bool,
    subgroup: Optional[Subgroup] = None,
) -> SemiCellularAutomaton:
    """A uniformly random rule table; with symmetrize=True each rotation
    orbit of local configurations is collapsed to its canonical member, so
    the rule comes out rotation-invariant by construction."""
    neighborhood = closed_neighborhood(space, neighborhood)
    width = len(neighborhood)
    raw = [rng.randrange(states) for _ in range(states**width)]
    ca = SemiCellularAutomaton(space, states, neighborhood, tuple(raw))
    if not symmetrize:
        return ca
    sub = subgroup_or_whole(space, subgroup)
    members = stabilizer_part(space, sub)
    maps = rotation_position_maps(ca, members)
    leaving = np.flatnonzero((maps < 0).any(axis=1))
    if leaving.size:
        k = int(leaving[0])
        raise leaving_error(ca, members[k], maps[k])
    # the identity is in every stabilizer part, and its rotation leaves codes as they are
    canon = np.arange(states**width)
    for p in maps:
        np.minimum(canon, pattern_codes(states, width, p), out=canon)
    return SemiCellularAutomaton(space, states, neighborhood, ca.rule_array[canon])


# --------------------------------------------- alternate coordinate systems


def coordinate_system_variants(
    action: LeftAction, count: int, seed: int = 0
) -> list[CoordinateSystem]:
    """Distinct coordinate systems on one action: the default per origin,
    then seeded perturbations of the transporter choices.  Returns every
    system the action admits when fewer than `count` exist.

    The seed and the transporters serve the perturbations alone, so once
    the defaults number `count` they are returned and no more are built."""
    rng = random.Random(seed)
    variants: list[CoordinateSystem] = []
    seen = set()

    def push(system: CoordinateSystem) -> None:
        key = (system.origin, system.coords)
        if key not in seen:
            seen.add(key)
            variants.append(system)

    transporters: dict[tuple[int, int], tuple[int, ...]] = {}
    for origin in range(action.points):
        push(build_coordinate_system(action, origin))
        if len(variants) >= count:
            return variants[:count]
        # the elements carrying origin to each point, in increasing order
        column = action.act[:, origin]
        by_point = np.argsort(column, kind="stable")
        bounds = np.searchsorted(column[by_point], np.arange(action.points + 1))
        for m in range(action.points):
            transporters[origin, m] = tuple(by_point[bounds[m] : bounds[m + 1]].tolist())

    total_available = sum(
        _count_systems(action, origin, transporters) for origin in range(action.points)
    )
    attempts = 0
    while len(variants) < min(count, total_available) and attempts < 10000:
        attempts += 1
        origin = rng.randrange(action.points)
        coords = []
        for m in range(action.points):
            if m == origin:
                coords.append(action.group.identity)
            else:
                coords.append(rng.choice(transporters[origin, m]))
        push(CoordinateSystem(action, origin, tuple(coords)))
    return variants[:count]


def _count_systems(action: LeftAction, origin: int, transporters) -> int:
    total = 1
    for m in range(action.points):
        if m != origin:
            total *= len(transporters[origin, m])
    return total
