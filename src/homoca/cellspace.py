"""Cell spaces: a transitive action plus a choice of coordinates.

A coordinate system picks an origin and, for every cell, one group
element carrying the origin there (the origin's own coordinate is the
identity).  Coordinates turn the coset space of the origin stabilizer
into a set of relative cell names: the semi-action resolves a relative
name at a cell by routing it through the origin,

    cell <| coset(g)  =  coord[cell] * g  .  origin

which is free and transitive but not an action; the defect operations
below quantify exactly how it fails to be one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError, LawError
from .groups import (
    Coset,
    LeftAction,
    Subgroup,
    coset_labels,
    first_transporters,
    require_transitive,
    stabilizer,
)
from .verdict import Verdict


@dataclass(frozen=True)
class CoordinateSystem:
    action: LeftAction
    origin: int
    coords: tuple[int, ...]

    def __post_init__(self):
        act = self.action
        if not 0 <= self.origin < act.points:
            raise InputError(f"origin {self.origin} out of range")
        require_transitive(act, self.origin)
        coords = tuple(int(g) for g in self.coords)
        if len(coords) != act.points:
            raise InputError(f"need one coordinate per cell, got {len(coords)}")
        object.__setattr__(self, "coords", coords)
        if coords[self.origin] != act.group.identity:
            witness = {"origin": self.origin, "coord": coords[self.origin]}
            raise LawError(Verdict.failing("coordinate-origin-identity", witness))
        # the first faulty cell is reported, and a cell's range is checked
        # before its transport
        valid = next(
            (m for m, g in enumerate(coords) if not 0 <= g < act.group.order), len(coords)
        )
        lands = act.act[list(coords[:valid]), self.origin]
        wrong = np.flatnonzero(lands != np.arange(valid))
        if wrong.size:
            m = int(wrong[0])
            raise LawError(
                Verdict.failing(
                    "coordinate-transport",
                    {"cell": m, "coord": coords[m], "lands_on": int(lands[m])},
                )
            )
        if valid < len(coords):
            raise InputError(f"coordinate {coords[valid]} of cell {valid} out of range")


def build_coordinate_system(action: LeftAction, origin: int = 0) -> CoordinateSystem:
    """Default coordinates: the identity at the origin, and the minimum
    transporter element at every other cell.  A cell no element reaches
    gets the identity, and CoordinateSystem then refuses the action as
    not transitive."""
    coords = first_transporters(action, origin)
    coords[coords < 0] = action.group.identity
    coords[origin] = action.group.identity
    return CoordinateSystem(action, origin, tuple(coords.tolist()))


class CellSpace:
    """A coordinate system with the derived tables cached for reuse.

    Cosets of the origin stabilizer are handled by index into the sorted
    canonical-representative list; Coset objects appear only at the API
    boundary.
    """

    def __init__(self, system: CoordinateSystem):
        self.system = system
        self.action = system.action
        self.group = system.action.group
        self.origin = system.origin
        self.coords = system.coords
        self.cells = system.action.points
        self.stabilizer: Subgroup = stabilizer(system.action, system.origin)
        reps, self._element_coset = coset_labels(self.group, self.stabilizer)
        self.coset_reps: tuple[int, ...] = tuple(reps.tolist())
        self.num_cosets = len(self.coset_reps)
        self._rep_index = {r: j for j, r in enumerate(self.coset_reps)}

    @classmethod
    def default(cls, action: LeftAction, origin: int = 0) -> "CellSpace":
        return cls(build_coordinate_system(action, origin))

    @cached_property
    def cosets(self) -> tuple[Coset, ...]:
        return tuple(Coset(self.stabilizer, r) for r in self.coset_reps)

    @cached_property
    def semi_table(self) -> np.ndarray:
        """semi_table[m, j] = cell m <| coset j."""
        coords = np.array(self.coords)
        elems = self.group.mul[coords[:, None], self.coset_reps]  # coord[m] * rep_j
        return self.action.act[elems, self.origin].astype(np.int64)

    @cached_property
    def _cell_coset_index(self) -> tuple[int, ...]:
        # label of cell m: the transporter coset origin -> m, which is
        # exactly the coset of coord[m] (any coordinate choice gives it)
        return tuple(self._element_coset[list(self.coords)].tolist())

    def coset_index(self, g: int) -> int:
        return int(self._element_coset[g])

    def coset_index_of(self, coset: Coset) -> int:
        if coset.subgroup.members != self.stabilizer.members:
            raise InputError("coset is not a coset of the origin stabilizer")
        return self._rep_index[coset.rep]

    def cell_coset(self, m: int) -> int:
        """Index of the transporter coset labeling cell m."""
        return self._cell_coset_index[m]

    def semi_cell(self, m: int, j: int) -> int:
        return int(self.semi_table[m, j])

    def translate_coset(self, g: int, j: int) -> int:
        """Index of g * (coset j) under left multiplication."""
        return int(self._element_coset[self.group.mul[g, self.coset_reps[j]]])

    def translate_cosets(self, elements: Sequence[int], coset_indices: Sequence[int]) -> np.ndarray:
        """[i, k] = index of elements[i] * (coset coset_indices[k])."""
        reps = [self.coset_reps[j] for j in coset_indices]
        rows = np.asarray(elements, dtype=np.intp).reshape(-1, 1)
        return self._element_coset[self.group.mul[rows, reps]]


def semi_act(space: CellSpace, m: int, coset: Coset) -> int:
    """Resolve the relative name `coset` at cell m."""
    return space.semi_cell(m, space.coset_index_of(coset))


def check_free_transitive(space: CellSpace) -> Verdict:
    """The semi-action reaches every cell from every cell, uniquely."""
    table = space.semi_table
    cells = space.cells
    if space.num_cosets != cells:
        return Verdict.failing(
            "semi-action-coset-count", {"cosets": space.num_cosets, "cells": cells}
        )
    for m in range(cells):
        row = table[m]
        if len(set(row.tolist())) != cells:
            seen: dict[int, int] = {}
            for j, target in enumerate(row.tolist()):
                if target in seen:
                    return Verdict.failing(
                        "semi-action-free",
                        {"cell": m, "cosets": [seen[target], j], "target": target},
                    )
                seen[target] = j
        # row is a permutation of the cells once injective (counts match)
    return Verdict.passing("semi-action-free-transitive")


def check_fixes_nothing_moves_all(space: CellSpace) -> Verdict:
    """Resolving the stabilizer coset is a no-op at every cell."""
    trivial = space.coset_index(space.group.identity)
    for m in range(space.cells):
        if space.semi_cell(m, trivial) != m:
            return Verdict.failing(
                "semi-action-unit", {"cell": m, "got": space.semi_cell(m, trivial)}
            )
    return Verdict.passing("semi-action-unit")


def defect(space: CellSpace, m: int, h: int) -> int:
    """Stabilizer element h0 repairing left multiplication by h:

        m <| (h * t)  ==  (m <| coset(h)) <| (h0 * t)   for every coset t.
    """
    group = space.group
    mul = group.mul
    g1 = mul[space.coords[m], h]
    target = space.action.act[g1, space.origin]
    return int(mul[group.inv[space.coords[target]], g1])


def commutation_defect(space: CellSpace, m: int, h: int) -> int:
    """Stabilizer element h0 letting the group action slide past resolution:

        (h . m) <| t  ==  h . (m <| h0 * t)   for every coset t.
    """
    group = space.group
    mul = group.mul
    moved = space.action.act[h, m]
    return int(mul[group.inv[space.coords[m]], mul[group.inv[h], space.coords[moved]]])


def coordinate_change_defect(space: CellSpace, space2: CellSpace, h: int, m: int) -> int:
    """Stabilizer element h0 aligning two coordinate systems at cell m.

    h must carry the first origin to the second; then for every relative
    name t2 of the second system,

        m <|' t2  ==  m <| h0 * (conjugate of t2 by h^-1).
    """
    if space.action != space2.action:
        raise InputError("coordinate systems live on different actions")
    if space.action.act[h, space.origin] != space2.origin:
        raise InputError(f"element {h} does not carry origin {space.origin} to {space2.origin}")
    group = space.group
    mul = group.mul
    return int(mul[group.inv[space.coords[m]], mul[space2.coords[m], h]])


@dataclass(frozen=True)
class Identification:
    """Mutually inverse maps between cells and relative names."""

    coset_to_cell: tuple[int, ...]
    cell_to_coset: tuple[int, ...]
    verdict: Verdict


def identify(space: CellSpace) -> Identification:
    """Resolution at the origin vs labeling by transporter cosets.

    The two maps invert each other, and resolving anywhere factors as
    label-free resolution at the origin pushed out by the coordinate.
    """
    to_cell = tuple(space.semi_cell(space.origin, j) for j in range(space.num_cosets))
    to_coset = tuple(space.cell_coset(m) for m in range(space.cells))

    for j in range(space.num_cosets):
        if to_coset[to_cell[j]] != j:
            v = Verdict.failing("identification-roundtrip", {"coset": j, "via_cell": to_cell[j]})
            return Identification(to_cell, to_coset, v)
    for m in range(space.cells):
        if to_cell[to_coset[m]] != m:
            v = Verdict.failing("identification-roundtrip", {"cell": m, "via_coset": to_coset[m]})
            return Identification(to_cell, to_coset, v)
    act = space.action.act
    for m in range(space.cells):
        for j in range(space.num_cosets):
            if space.semi_cell(m, j) != act[space.coords[m]][to_cell[j]]:
                v = Verdict.failing(
                    "identification-factoring",
                    {"cell": m, "coset": j, "resolved": space.semi_cell(m, j)},
                )
                return Identification(to_cell, to_coset, v)
    return Identification(to_cell, to_coset, Verdict.passing("identification"))
