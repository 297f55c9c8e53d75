"""A finite model of uniform structure on configuration spaces.

Entourages are binary relations over packed configurations, stored as
dense boolean matrices; the prodiscrete base consists of the agreement
relations E(K) = "equal on the cell set K".  Everything here is bounded
by RELATION_UNIVERSE_BOUND configurations (see `homoca.bounds`) so
relations stay explicit: `agreement_relation` and
`check_uniform_continuity` raise BoundError past it, and
`prodiscrete_base` past it in configurations or in members.

The base checks run on a base as one stacked (R, N, N) array, and on
its members packed into bit rows, one row of N*N bits per member: meets
are bitwise ands of rows, and membership is a dict lookup on a row's
bytes.  The base check tries the member that the prodiscrete structure
predicts and scans all members only on a miss.  Continuity reads one
dependency matrix of the transition table and re-verifies each member
through its pullback along the table, with the source relation taken
from the base.  All give the verdicts and witnesses of the plain scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .bounds import RELATION_UNIVERSE_BOUND
from .cellspace import CellSpace
from .encoding import digit_matrix
from .errors import BoundError, InputError
from .laws import GlobalMap, config_count, dependency_matrix, table_inverse
from .verdict import Verdict


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


def _stacked(relations: Sequence[Relation]) -> np.ndarray:
    """The members' matrices as one (R, N, N) array."""
    size = relations[0].size
    if any(r.size != size for r in relations):
        raise InputError("relations live on different universes")
    return np.stack([r.pairs for r in relations])


def _pack(stack: np.ndarray) -> np.ndarray:
    """Each matrix of the stack flattened row-major and packed to bits,
    one row per matrix.  The bits past N*N in a row are zero in every row,
    so bitwise meets keep them zero and two rows are equal exactly when
    their matrices are."""
    return np.packbits(stack.reshape(stack.shape[0], -1), axis=1)


def _row_keys(packed: np.ndarray) -> list[bytes]:
    """The bytes of each packed row, in row order."""
    width = packed.shape[1]
    buf = packed.tobytes()
    return [buf[k : k + width] for k in range(0, len(buf), width)]


def _first_index(keys) -> dict:
    """key -> index of its first occurrence."""
    index: dict = {}
    for i, key in enumerate(keys):
        index.setdefault(key, i)
    return index


def check_uniformity_base(base: EntourageBase) -> Verdict:
    """The five conditions making a family a base of entourages: nonempty,
    reflexive members, lower bounds for pairs, lower bounds for inverses,
    and relational square roots.

    The members are packed once into bit rows.  Each of the last three
    conditions first asks whether the candidate that the prodiscrete base
    predicts is itself a member, since E(K) & E(K') = E(K | K'), E(K) is
    symmetric and E(K) o E(K) = E(K): the meet, the inverse, the relation
    as its own square root.  Membership is a dict lookup on the bytes of a
    packed row; meets are taken a row at a time, inverses from one
    transpose of the stack and squares by one matmul per member.  A hit is
    a member that a scan over all members accepts as well, so the verdict
    is the same; only a miss runs that scan, which then finds the failure,
    and the witness is the first failing member or pair in row-major order.
    Members of different sizes raise InputError once every member has
    passed the reflexivity check.
    """
    rels = base.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    for i, r in enumerate(rels):
        if not r.contains_diagonal():
            x = int(np.flatnonzero(~r.pairs.diagonal())[0])
            return Verdict.failing("base-reflexive", {"relation": i, "missing_pair": [x, x]})
    stack = _stacked(rels)
    packed = _pack(stack)
    members = _first_index(_row_keys(packed))

    def inside(rows: np.ndarray, row: np.ndarray) -> bool:
        """Does one of the bit rows lie inside the relation packed in row?"""
        return not (rows & ~row).any(axis=1).all()

    # meets are symmetric, so the first failing pair (i, k) in row-major
    # order has i <= k: row i need only meet members i onwards
    for i in range(len(rels)):
        meets = packed[i] & packed[i:]
        for k, key in enumerate(_row_keys(meets)):
            if key not in members and not inside(packed, meets[k]):
                return Verdict.failing("base-meet", {"relations": [i, i + k]})
    inverses = _pack(stack.transpose(0, 2, 1))
    for i, key in enumerate(_row_keys(inverses)):
        if key not in members and not inside(packed, inverses[i]):
            return Verdict.failing("base-inverse", {"relation": i})
    # squares one member at a time, kept as bit rows, so that no float
    # array holds the whole stack; a float sum of zeros and ones is
    # positive exactly when some term is
    squares = np.empty_like(packed)
    for i, pairs in enumerate(stack):
        weights = pairs.astype(np.float32)
        squares[i] = np.packbits(weights @ weights > 0)
    for i in np.flatnonzero((squares & ~packed).any(axis=1)):
        if not inside(squares, packed[i]):
            return Verdict.failing("base-square-root", {"relation": int(i)})
    return Verdict.passing("uniformity-base")


def check_agreement_intersection(base: EntourageBase) -> Verdict:
    """E(K) & E(K') = E(K | K') for every ordered pair of labeled members.

    The expected member is the first one labeled with the sorted union of
    the two labels; a pair whose union labels no member fails as well.
    The witness is the first failing pair in row-major order.
    """
    if base.labels is None:
        raise InputError("agreement intersection needs the agreement-labeled base")
    rels, labels = base.relations, base.labels
    if not rels:
        return Verdict.passing("agreement-intersection")
    packed = _pack(_stacked(rels))
    # cell sets as bitmasks, one bit per cell that some label names
    bit = {c: b for b, c in enumerate(set().union(*labels))}
    masks = [sum(1 << bit[c] for c in set(label)) for label in labels]
    # only a sorted label without repeats can equal a sorted union
    labeled = _first_index(
        mask if label == tuple(sorted(set(label))) else -1 for label, mask in zip(labels, masks)
    )
    # a pair fails exactly when its swap does, so the first failing pair
    # (i, j) in row-major order has i <= j
    for i, first in enumerate(masks):
        expected = np.array([labeled.get(first | second, -1) for second in masks[i:]])
        bad = (expected < 0) | ((packed[i] & packed[i:]) != packed[expected]).any(axis=1)
        if bad.any():
            j = i + int(bad.argmax())
            return Verdict.failing(
                "agreement-intersection", {"first": list(labels[i]), "second": list(labels[j])}
            )
    return Verdict.passing("agreement-intersection")


def _relation_universe(space: CellSpace, states: int) -> int:
    """The configuration count, which a relation matrix is the square of;
    BoundError past the relation bound."""
    total = config_count(space, states)
    if total > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{total} configurations exceed the relation bound")
    return total


def agreement_relation(space: CellSpace, states: int, cells: Sequence[int]) -> Relation:
    """E(K): configuration pairs that agree on every cell of K."""
    total = _relation_universe(space, states)
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
    """All agreement relations E(K), K over every subset of the cells.

    BoundError, before any member is built, past the relation bound in
    configurations or in members: 2**cells of them, which outnumber the
    configurations only on one state, where the base checks would meet
    every pair of them.
    """
    _relation_universe(space, states)
    if 1 << space.cells > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{1 << space.cells} agreement relations exceed the relation bound")
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
    gm: GlobalMap,
    targets: Sequence[Sequence[int]],
    depends: Optional[np.ndarray] = None,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each target cell set K, the smallest source cell set L such that
    agreement on L forces the images to agree on K.

    L is the union over K of the per-cell dependency sets.  It works: two
    configurations agreeing on L can be connected by single-cell changes
    outside L, none of which moves any image digit in K.  Nothing smaller
    works: a dependency cell left out of L admits a pair agreeing
    everywhere else whose images split on K.  Smallest therefore means
    unique, not just minimal.  `depends` is dependency_matrix(gm), computed
    here when not given; it scans the whole transition table once for all
    cells, so no relation matrices are involved here.
    """
    if depends is None:
        depends = dependency_matrix(gm)
    out = []
    for cells in targets:
        cells = tuple(int(m) for m in cells)
        needed = depends[list(cells)].any(axis=0)
        out.append((cells, tuple(int(i) for i in np.flatnonzero(needed))))
    return tuple(out)


def check_uniform_continuity(
    gm: GlobalMap, base: EntourageBase, depends: Optional[np.ndarray] = None
) -> ContinuityResult:
    """For each agreement entourage E(K) in the base, find the smallest
    source set L with (gm x gm)(E(L)) inside E(K), and re-verify the
    containment on the relation matrices themselves.

    The containment is checked as E(L) inside the pullback
    E(K)[T][:, T], with T the transition table: one gather of each member
    along the table, and no pairs pushed through it.  E(L) is the base's
    own member labeled L; only a source set that labels no member is built
    with agreement_relation.  `depends` is dependency_matrix(gm), computed
    when not given.
    """
    if base.labels is None:
        raise InputError("continuity needs the agreement-labeled base")
    total = _relation_universe(gm.space, gm.states)
    if any(r.size != total for r in base.relations):
        raise InputError("relations live on different universes")
    targets = continuity_assignments(gm, base.labels, depends)
    labeled = _first_index(cells for cells, _ in targets)
    # flat position of (T x, T y) for each flat position of (x, y); it
    # runs past the code type (below total**2, while codes are below
    # total), so the table is widened first
    table = gm.table.astype(np.intp)
    pulled = (table[:, None] * total + table).ravel()
    for r, ((cells, source), rel) in enumerate(zip(targets, base.relations)):
        if source in labeled:
            candidate = base.relations[labeled[source]]
        else:
            candidate = agreement_relation(gm.space, gm.states, source)
        if (candidate.pairs.ravel() & ~rel.pairs.ravel().take(pulled)).any():
            verdict = Verdict.failing(
                "uniform-continuity",
                {"target_cells": list(cells), "candidate_source": list(source)},
            )
            return ContinuityResult(verdict, targets[:r])
    verdict = Verdict.passing(
        "uniform-continuity",
        {"assignments": [[list(k), list(l)] for k, l in targets]},
    )
    return ContinuityResult(verdict, targets)


def check_uniform_isomorphism(
    gm: GlobalMap,
    base: Optional[EntourageBase] = None,
    depends: Optional[np.ndarray] = None,
) -> Verdict:
    """Bijective, with the smallest continuity witnesses computed in both
    directions.

    On a finite cell set the agreement relation over all cells is the
    diagonal, so every self-map of configuration space is uniformly
    continuous; what distinguishes an isomorphism is bijectivity, and the
    witnesses record how locally the two directions act.  Within the
    relation bound the witnesses are additionally re-verified against the
    full prodiscrete base.  `base` (that base) and `depends`
    (dependency_matrix(gm)) are built here when not given.
    """
    space = gm.space
    inverse_table = table_inverse(gm.table)
    if isinstance(inverse_table, tuple):
        return Verdict.failing(
            "uniform-isomorphism",
            {"reason": "not injective", "colliding_codes": list(inverse_table[1:])},
        )
    inverse = GlobalMap(space, gm.states, table=inverse_table)
    if depends is None:
        depends = dependency_matrix(gm)
    inverse_depends = dependency_matrix(inverse)
    singletons = [(m,) for m in range(space.cells)]
    witness = {
        "forward_sources": [list(l) for _, l in continuity_assignments(gm, singletons, depends)],
        "inverse_sources": [
            list(l) for _, l in continuity_assignments(inverse, singletons, inverse_depends)
        ],
    }
    try:
        if base is None:
            base = prodiscrete_base(space, gm.states)
        for name, direction, direction_depends in (
            ("forward", gm, depends),
            ("inverse", inverse, inverse_depends),
        ):
            result = check_uniform_continuity(direction, base, direction_depends)
            if not result.verdict.ok:
                return Verdict.failing(
                    "uniform-isomorphism",
                    {"reason": f"{name} direction not uniformly continuous", "detail": result.verdict.witness},
                )
        witness["relationally_verified"] = True
    except BoundError:
        witness["relationally_verified"] = False
    return Verdict.passing("uniform-isomorphism", witness)
