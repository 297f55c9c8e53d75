"""The uniformity checks as they read N x N relation matrices.

`homoca.uniformity` holds each agreement relation E(K) as its labeling;
these matrix forms are kept as its oracles, apart from the code they
replaced.  A `Relation` is a boolean matrix over the configurations,
`agreement_matrix` builds E(K) pair by pair from the digits, and the
scans decide the base conditions, the agreement intersection and
continuity over whole families of matrices, with the witnesses the
matrix checks gave.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from homoca.encoding import digit_matrix
from homoca.errors import InputError
from homoca.laws import GlobalMap, config_count
from homoca.uniformity import ContinuityResult
from homoca.verdict import Verdict


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
class RelationFamily:
    """A family of candidate entourages; labels name the generating cell
    sets when the family is prodiscrete."""

    relations: tuple[Relation, ...]
    labels: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.relations):
            raise InputError("one label per relation required")


def agreement_matrix(space, states: int, cells: Sequence[int]) -> Relation:
    """E(K): configuration pairs that agree on every cell of K."""
    total = config_count(space, states)
    digits = digit_matrix(states, space.cells)
    cells = sorted(set(int(c) for c in cells))
    for c in cells:
        if not 0 <= c < space.cells:
            raise InputError(f"cell {c} out of range")
    if not cells:
        return Relation.full(total)
    keys = digits[:, cells]
    return Relation(total, (keys[:, None, :] == keys[None, :, :]).all(axis=2))


def matrix_prodiscrete_base(space, states: int) -> RelationFamily:
    """E(K) for every cell set K, one agreement_matrix per member, member
    m labeled with the cells of the bits of m."""
    labels, relations = [], []
    for mask in range(1 << space.cells):
        cells = tuple(c for c in range(space.cells) if mask >> c & 1)
        labels.append(cells)
        relations.append(agreement_matrix(space, states, cells))
    return RelationFamily(tuple(relations), tuple(labels))


def scan_uniformity_base(family: RelationFamily) -> Verdict:
    """Every base condition as a scan over all members; the witness is
    the first failing member or pair in row-major order."""
    rels = family.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    for i, r in enumerate(rels):
        if not r.contains_diagonal():
            x = int(np.flatnonzero(~r.pairs.diagonal())[0])
            return Verdict.failing("base-reflexive", {"relation": i, "missing_pair": [x, x]})
    for i, r in enumerate(rels):
        for k, r2 in enumerate(rels):
            meet = r.intersect(r2)
            if not any(cand.issubset(meet) for cand in rels):
                return Verdict.failing("base-meet", {"relations": [i, k]})
    for i, r in enumerate(rels):
        rinv = r.inverse()
        if not any(cand.issubset(rinv) for cand in rels):
            return Verdict.failing("base-inverse", {"relation": i})
    for i, r in enumerate(rels):
        if not any(rel_compose(cand, cand).issubset(r) for cand in rels):
            return Verdict.failing("base-square-root", {"relation": i})
    return Verdict.passing("uniformity-base")


def scan_agreement_intersection(family: RelationFamily) -> Verdict:
    """E(K) & E(K') against the member labeled K | K', pair by pair; a
    union that labels no member fails."""
    labels, rels = family.labels, family.relations
    for i, k1 in enumerate(labels):
        for j, k2 in enumerate(labels):
            merged = tuple(sorted(set(k1) | set(k2)))
            if merged not in labels or rels[i].intersect(rels[j]) != rels[labels.index(merged)]:
                return Verdict.failing("agreement-intersection", {"first": list(k1), "second": list(k2)})
    return Verdict.passing("agreement-intersection")


def pushforward_continuity(gm: GlobalMap, assignments) -> ContinuityResult:
    """image_relation(E(L)) inside E(K) for each assignment (K, L) in
    order, both built with agreement_matrix; the witness is the first
    assignment that fails, and the passing witness lists them all."""
    checked = []
    for cells, source in assignments:
        pushed = image_relation(gm, agreement_matrix(gm.space, gm.states, source))
        if not pushed.issubset(agreement_matrix(gm.space, gm.states, cells)):
            witness = {"target_cells": list(cells), "candidate_source": list(source)}
            return ContinuityResult(Verdict.failing("uniform-continuity", witness), tuple(checked))
        checked.append((tuple(cells), tuple(source)))
    witness = {"assignments": [[list(k), list(l)] for k, l in checked]}
    return ContinuityResult(Verdict.passing("uniform-continuity", witness), tuple(checked))
