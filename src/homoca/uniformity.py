"""A finite model of uniform structure on configuration spaces.

Entourages are binary relations over packed configurations, stored as
dense boolean matrices; the prodiscrete base consists of the agreement
relations E(K) = "equal on the cell set K".  Everything here is bounded
by RELATION_UNIVERSE_BOUND configurations so relations stay explicit.
The base check tries the member that this structure predicts before it
scans, and continuity reads one dependency matrix of the transition
table; both give the verdicts of the plain scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .cellspace import CellSpace
from .encoding import digit_matrix
from .errors import BoundError, InputError
from .laws import GlobalMap, config_count, dependency_matrix
from .verdict import Verdict

RELATION_UNIVERSE_BOUND = 256


@dataclass(frozen=True)
class Relation:
    """A binary relation on 0..size-1; pairs[x, y] is membership of (x, y)."""

    size: int
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=bool)
        if pairs.shape != (self.size, self.size):
            raise InputError(f"relation matrix has shape {pairs.shape}, expected square {self.size}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def diagonal(cls, size: int) -> "Relation":
        return cls(size, np.eye(size, dtype=bool))

    @classmethod
    def full(cls, size: int) -> "Relation":
        return cls(size, np.ones((size, size), dtype=bool))

    @classmethod
    def from_pairs(cls, size: int, pairs: Sequence[tuple[int, int]]) -> "Relation":
        m = np.zeros((size, size), dtype=bool)
        for x, y in pairs:
            m[x, y] = True
        return cls(size, m)

    def inverse(self) -> "Relation":
        return Relation(self.size, self.pairs.T.copy())

    def intersect(self, other: "Relation") -> "Relation":
        self._check_peer(other)
        return Relation(self.size, self.pairs & other.pairs)

    def contains_diagonal(self) -> bool:
        return bool(self.pairs.diagonal().all())

    def issubset(self, other: "Relation") -> bool:
        self._check_peer(other)
        return not (self.pairs & ~other.pairs).any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.size == other.size
            and np.array_equal(self.pairs, other.pairs)
        )

    def __hash__(self):
        return hash((self.size, self.pairs.tobytes()))

    def _check_peer(self, other: "Relation") -> None:
        if self.size != other.size:
            raise InputError("relations live on different universes")


def rel_compose(first: Relation, second: Relation) -> Relation:
    """Pairs (x, z) with a y such that (x, y) is in first and (y, z) in second."""
    first._check_peer(second)
    product = first.pairs.astype(np.int32) @ second.pairs.astype(np.int32)
    return Relation(first.size, product > 0)


@dataclass(frozen=True)
class EntourageBase:
    """A family of candidate entourages; labels name the generating cell
    sets when the family is prodiscrete."""

    relations: tuple[Relation, ...]
    labels: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.relations):
            raise InputError("one label per relation required")


def check_uniformity_base(base: EntourageBase) -> Verdict:
    """The five conditions making a family a base of entourages: nonempty,
    reflexive members, lower bounds for pairs, lower bounds for inverses,
    and relational square roots.

    Each of the last three first tries the candidate that the prodiscrete
    base predicts, since E(K) & E(K') = E(K | K'), E(K) is symmetric and
    E(K) o E(K) = E(K): the meet itself, the inverse itself, the relation
    as its own square root.  A hit is a member that the full scan accepts
    as well, so the verdict is the same; only a miss runs the scan over
    all members, which then finds the failure and its witness.
    """
    rels = base.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    for i, r in enumerate(rels):
        if not r.contains_diagonal():
            x = int(np.flatnonzero(~r.pairs.diagonal())[0])
            return Verdict.failing("base-reflexive", {"relation": i, "missing_pair": [x, x]})
    members = set(rels)
    for i, r in enumerate(rels):
        for k, r2 in enumerate(rels):
            meet = r.intersect(r2)
            if meet not in members and not any(cand.issubset(meet) for cand in rels):
                return Verdict.failing("base-meet", {"relations": [i, k]})
    for i, r in enumerate(rels):
        rinv = r.inverse()
        if rinv not in members and not any(cand.issubset(rinv) for cand in rels):
            return Verdict.failing("base-inverse", {"relation": i})
    for i, r in enumerate(rels):
        if not rel_compose(r, r).issubset(r) and not any(
            rel_compose(cand, cand).issubset(r) for cand in rels
        ):
            return Verdict.failing("base-square-root", {"relation": i})
    return Verdict.passing("uniformity-base")


def agreement_relation(space: CellSpace, states: int, cells: Sequence[int]) -> Relation:
    """E(K): configuration pairs that agree on every cell of K."""
    total = config_count(space, states)
    if total > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{total} configurations exceed the relation bound")
    digits = digit_matrix(states, space.cells)
    cells = sorted(set(int(c) for c in cells))
    for c in cells:
        if not 0 <= c < space.cells:
            raise InputError(f"cell {c} out of range")
    if not cells:
        return Relation.full(total)
    keys = digits[:, cells]
    same = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
    return Relation(total, same)


def prodiscrete_base(space: CellSpace, states: int) -> EntourageBase:
    """All agreement relations E(K), K over every subset of the cells."""
    total = config_count(space, states)
    if total > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{total} configurations exceed the relation bound")
    labels = []
    relations = []
    for mask in range(1 << space.cells):
        cells = tuple(c for c in range(space.cells) if mask >> c & 1)
        labels.append(cells)
        relations.append(agreement_relation(space, states, cells))
    return EntourageBase(tuple(relations), tuple(labels))


def image_relation(gm: GlobalMap, rel: Relation) -> Relation:
    """Push a relation through the map on both sides."""
    table = gm.table
    if rel.size != table.shape[0]:
        raise InputError("relation universe does not match the configuration count")
    out = np.zeros_like(rel.pairs)
    xs, ys = np.nonzero(rel.pairs)
    out[table[xs], table[ys]] = True
    return Relation(rel.size, out)


@dataclass(frozen=True)
class ContinuityResult:
    verdict: Verdict
    assignments: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def continuity_assignments(
    gm: GlobalMap, targets: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each target cell set K, the smallest source cell set L such that
    agreement on L forces the images to agree on K.

    L is the union over K of the per-cell dependency sets.  It works: two
    configurations agreeing on L can be connected by single-cell changes
    outside L, none of which moves any image digit in K.  Nothing smaller
    works: a dependency cell left out of L admits a pair agreeing
    everywhere else whose images split on K.  Smallest therefore means
    unique, not just minimal.  dependency_matrix scans the whole transition
    table once for all cells, so no relation matrices are involved here.
    """
    depends = dependency_matrix(gm)
    out = []
    for cells in targets:
        cells = tuple(int(m) for m in cells)
        needed = depends[list(cells)].any(axis=0)
        out.append((cells, tuple(int(i) for i in np.flatnonzero(needed))))
    return tuple(out)


def check_uniform_continuity(gm: GlobalMap, base: EntourageBase) -> ContinuityResult:
    """For each agreement entourage E(K) in the base, find the smallest
    source set L with (gm x gm)(E(L)) inside E(K), and re-verify the
    containment on the relation matrices themselves."""
    if base.labels is None:
        raise InputError("continuity needs the agreement-labeled base")
    space = gm.space
    total = config_count(gm.space, gm.states)
    if total > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{total} configurations exceed the relation bound")
    assignments = []
    for (cells, source), rel in zip(continuity_assignments(gm, base.labels), base.relations):
        candidate = agreement_relation(space, gm.states, source)
        if not image_relation(gm, candidate).issubset(rel):
            verdict = Verdict.failing(
                "uniform-continuity",
                {"target_cells": list(cells), "candidate_source": list(source)},
            )
            return ContinuityResult(verdict, tuple(assignments))
        assignments.append((cells, source))
    verdict = Verdict.passing(
        "uniform-continuity",
        {"assignments": [[list(k), list(l)] for k, l in assignments]},
    )
    return ContinuityResult(verdict, tuple(assignments))


def check_uniform_isomorphism(gm: GlobalMap) -> Verdict:
    """Bijective, with the smallest continuity witnesses computed in both
    directions.

    On a finite cell set the agreement relation over all cells is the
    diagonal, so every self-map of configuration space is uniformly
    continuous; what distinguishes an isomorphism is bijectivity, and the
    witnesses record how locally the two directions act.  Within the
    relation bound the witnesses are additionally re-verified against the
    full prodiscrete base.
    """
    space = gm.space
    total = config_count(space, gm.states)
    table = gm.table
    counts = np.bincount(table, minlength=total)
    if counts.max() > 1:
        image = int(np.flatnonzero(counts > 1)[0])
        pair = np.flatnonzero(table == image)[:2]
        return Verdict.failing(
            "uniform-isomorphism",
            {"reason": "not injective", "colliding_codes": [int(pair[0]), int(pair[1])]},
        )
    inverse_table = np.zeros(total, dtype=np.int64)
    inverse_table[table] = np.arange(total, dtype=np.int64)
    inverse = GlobalMap(space, gm.states, table=inverse_table)
    singletons = [(m,) for m in range(space.cells)]
    witness = {
        "forward_sources": [list(l) for _, l in continuity_assignments(gm, singletons)],
        "inverse_sources": [list(l) for _, l in continuity_assignments(inverse, singletons)],
    }
    if total <= RELATION_UNIVERSE_BOUND:
        base = prodiscrete_base(space, gm.states)
        for name, direction in (("forward", gm), ("inverse", inverse)):
            result = check_uniform_continuity(direction, base)
            if not result.verdict.ok:
                return Verdict.failing(
                    "uniform-isomorphism",
                    {"reason": f"{name} direction not uniformly continuous", "detail": result.verdict.witness},
                )
        witness["relationally_verified"] = True
    else:
        witness["relationally_verified"] = False
    return Verdict.passing("uniform-isomorphism", witness)
