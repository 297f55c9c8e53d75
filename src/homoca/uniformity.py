"""A finite model of uniform structure on configuration spaces.

Entourages are binary relations over packed configurations, stored as
dense boolean matrices; the prodiscrete base consists of the agreement
relations E(K) = "equal on the cell set K".  Everything here is bounded
by RELATION_UNIVERSE_BOUND configurations (see `homoca.bounds`) so
relations stay explicit: `agreement_relation` and
`check_uniform_continuity` raise BoundError past it, and
`prodiscrete_base` past it in configurations or in members.

A base is checked as one stacked (R, N, N) array, held by the base:
`prodiscrete_base` builds all its members from one compare of each
configuration's K-codes, and they are views of that array.  Packed into
bit rows, one row of N*N bits per member, a block of rows at a time is
met with the rows from the block's first onwards in one bitwise and, and
compared with the members that the prodiscrete structure predicts, each
labeled with the union of two labels; that one pass of meets serves both
the base check and the agreement intersection check.  Inverses, squares and the pullbacks of
continuity are compared a block of members at a time.  Only a pair or
member whose predicted member fails runs a scan over all members, so
all give the verdicts and witnesses of the plain scans.  Continuity
reads its source sets off one boolean product with the dependency matrix
of the transition table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Optional, Sequence

import numpy as np

from .bounds import GATHER_BLOCK, RELATION_UNIVERSE_BOUND
from .cellspace import CellSpace
from .encoding import digit_matrix, row_names
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
    sets when the family is prodiscrete.

    The checks read the members through `stack`, `packed` and
    `meet_misses`, each worked out on first use and kept with the base;
    `prodiscrete_base` hands over the stack it built its members from.
    """

    relations: tuple[Relation, ...]
    labels: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.relations):
            raise InputError("one label per relation required")

    @cached_property
    def stack(self) -> np.ndarray:
        """The members' matrices as one (R, N, N) array; InputError when
        their sizes differ."""
        if not self.relations:
            return np.zeros((0, 0, 0), dtype=bool)
        size = self.relations[0].size
        if any(r.size != size for r in self.relations):
            raise InputError("relations live on different universes")
        return np.stack([r.pairs for r in self.relations])

    @cached_property
    def packed(self) -> np.ndarray:
        """The members packed into bit rows, as `_pack` packs them."""
        return _pack(self.stack)

    @cached_property
    def meet_misses(self) -> np.ndarray:
        """The pairs (i, k), i <= k, whose meet is not the member predicted
        for it, in row-major order, as a (misses, 2) array.

        With labels the prediction is the first member labeled with the
        union of the two labels, sorted without repeats, since
        E(K) & E(K') = E(K | K'), looked up for all pairs at once; without,
        it is the first member equal to the meet.  A block of rows,
        GATHER_BLOCK bytes of meets, is met with the rows from the block's
        first onwards in one bitwise and, and compared with its predictions
        in one gather; a pair below the diagonal is left to its swap, whose
        meet is the same.
        """
        packed = self.packed
        count, width = packed.shape
        if self.labels is None:
            _, find = row_names(packed.view(np.uint8), 256)
        else:
            union = _union_members(self.labels)
        hit = np.ones((count, count), dtype=bool)
        block = _rows_per_block(packed.nbytes)
        for start in range(0, count, block):
            meets = packed[start : start + block, None] & packed[start:]
            if self.labels is None:
                rows, columns = meets.shape[:2]
                predicted = find(meets.reshape(rows * columns, width).view(np.uint8)).reshape(rows, columns)
            else:
                predicted = union[start : start + block, start:]
            same = (meets == packed.take(predicted, axis=0, mode="clip")).all(axis=2)
            hit[start : start + block, start:] = same & (predicted < count)
        return np.argwhere(np.triu(~hit))


def _rows_per_block(row_entries: int) -> int:
    """How many rows of row_entries entries make a block of GATHER_BLOCK
    entries; at least one."""
    return max(1, GATHER_BLOCK // max(1, row_entries))


def _pack(stack: np.ndarray) -> np.ndarray:
    """Each matrix of the stack flattened row-major and packed to bits,
    one row of 64-bit words per matrix.  The bits past N*N in a row are
    zero in every row, so bitwise meets keep them zero and two rows are
    equal exactly when their matrices are."""
    count, rows, columns = stack.shape
    bits = np.packbits(stack.reshape(count, rows * columns), axis=1)
    words = np.zeros((count, -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    return words.view(np.uint64)


def _flat(sets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The index of the set each cell comes from, and the cells of all
    sets in order, as two arrays."""
    lengths = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    cells = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(lengths.sum()))
    return np.repeat(np.arange(len(sets)), lengths), cells


def _cell_rows(sets: Sequence[Sequence[int]], cells: int) -> np.ndarray:
    """rows[i, c]: does sets[i] hold cell c?  One boolean row per set; a
    cell outside 0..cells-1 raises InputError, as in agreement_relation."""
    owner, flat = _flat(sets)
    outside = (flat < 0) | (flat >= cells)
    if outside.any():
        raise InputError(f"cell {flat[outside][0]} out of range")
    rows = np.zeros((len(sets), cells), dtype=bool)
    rows[owner, flat] = True
    return rows


def _union_members(labels: Sequence[Sequence[int]]) -> np.ndarray:
    """union[i, k]: the first member labeled with the cells of labels i
    and k together, sorted without repeats; len(labels) where none is."""
    owner, flat = _flat(labels)
    cells, column = np.unique(flat, return_inverse=True)
    count = len(labels)
    # one row of bits per label, a column per cell that some label names,
    # and a last column set on each label that is not sorted without
    # repeats: the form in which alone a label can equal a sorted union
    rows = np.zeros((count, len(cells) + 1), dtype=np.uint8)
    rows[owner, column] = 1
    unsorted = (flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])
    rows[owner[1:][unsorted], -1] = 1
    _, find = row_names(rows, 2)
    unions = rows[:, None] | rows
    unions[..., -1] = 0
    return find(unions.reshape(count * count, rows.shape[1])).reshape(count, count)


def _first_index(keys) -> dict:
    """key -> index of its first occurrence."""
    index: dict = {}
    for i, key in enumerate(keys):
        index.setdefault(key, i)
    return index


def _inside_some(rows: np.ndarray, row: np.ndarray) -> bool:
    """Does one of the bit rows lie inside the relation packed in row?"""
    return not (rows & ~row).any(axis=1).all()


def _lacking_diagonal(index: int, pairs: np.ndarray) -> Verdict:
    x = int(np.flatnonzero(~pairs.diagonal())[0])
    return Verdict.failing("base-reflexive", {"relation": index, "missing_pair": [x, x]})


def check_uniformity_base(base: EntourageBase) -> Verdict:
    """The five conditions making a family a base of entourages: nonempty,
    reflexive members, lower bounds for pairs, lower bounds for inverses,
    and relational square roots.

    Each of the last three conditions first asks whether the candidate
    that the prodiscrete base predicts is itself a member, since
    E(K) & E(K') = E(K | K'), E(K) is symmetric and E(K) o E(K) = E(K):
    the meet, the inverse, the relation as its own square root.  The
    meets come from the pass the base keeps (`EntourageBase.meet_misses`),
    which `check_agreement_intersection` reads as well; the inverses from
    comparing the stack with its transpose and the squares from a float32
    matmul, a block of GATHER_BLOCK entries of the stack at a time.  A hit
    is a member that a scan over all members accepts as well, so the
    verdict is the same; only a miss runs that scan, which then finds the
    failure, and the witness is the first failing member or pair in
    row-major order.  Members of different sizes raise InputError once
    every member has passed the reflexivity check.
    """
    rels = base.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    if any(r.size != rels[0].size for r in rels):
        # a member lacking a diagonal pair is reported before the sizes are refused
        lacking = next((i for i, r in enumerate(rels) if not r.contains_diagonal()), None)
        if lacking is not None:
            return _lacking_diagonal(lacking, rels[lacking].pairs)
    stack = base.stack
    lacking = ~stack.diagonal(axis1=1, axis2=2).all(axis=1)
    if lacking.any():
        i = int(lacking.argmax())
        return _lacking_diagonal(i, stack[i])
    packed = base.packed
    for i, k in base.meet_misses.tolist():
        if not _inside_some(packed, packed[i] & packed[k]):
            return Verdict.failing("base-meet", {"relations": [i, k]})
    block = _rows_per_block(stack[0].size)
    asymmetric = np.empty(len(rels), dtype=bool)
    squares = np.empty_like(packed)
    for start in range(0, len(rels), block):
        members = stack[start : start + block]
        asymmetric[start : start + block] = (members != members.transpose(0, 2, 1)).any(axis=(1, 2))
        # a float sum of zeros and ones is positive exactly when some term is
        weights = members.astype(np.float32)
        squares[start : start + block] = _pack(np.matmul(weights, weights) > 0)
    for i in np.flatnonzero(asymmetric):
        if not _inside_some(packed, _pack(stack[i].T[None])[0]):
            return Verdict.failing("base-inverse", {"relation": int(i)})
    for i in np.flatnonzero((squares & ~packed).any(axis=1)):
        if not _inside_some(squares, packed[i]):
            return Verdict.failing("base-square-root", {"relation": int(i)})
    return Verdict.passing("uniformity-base")


def check_agreement_intersection(base: EntourageBase) -> Verdict:
    """E(K) & E(K') = E(K | K') for every ordered pair of labeled members.

    The expected member is the first one labeled with the sorted union of
    the two labels; a pair whose union labels no member fails as well.
    That member is the prediction of `EntourageBase.meet_misses`, so the
    failing pairs are its misses, read off the pass of meets that
    `check_uniformity_base` reads.  A pair fails exactly when its swap
    does, so the first miss is the first failing pair in row-major order.
    """
    if base.labels is None:
        raise InputError("agreement intersection needs the agreement-labeled base")
    if not base.relations:
        return Verdict.passing("agreement-intersection")
    misses = base.meet_misses
    if len(misses):
        i, j = misses[0].tolist()
        return Verdict.failing(
            "agreement-intersection", {"first": list(base.labels[i]), "second": list(base.labels[j])}
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
    """All agreement relations E(K), K over every subset of the cells,
    member m labeled with the cells of the bits of m.

    Two configurations agree on K exactly when their K-codes are equal,
    the K-code of a configuration being its code with the digits off K
    set to zero; so the whole base is one compare of the (2**cells, N)
    K-codes with themselves, and each member is a read-only view of that
    stack.  BoundError, before any member is built, past the relation
    bound in configurations or in members: 2**cells of them, which
    outnumber the configurations only on one state, where the base checks
    would meet every pair of them.
    """
    total = _relation_universe(space, states)
    cells = space.cells
    if 1 << cells > RELATION_UNIVERSE_BOUND:
        raise BoundError(f"{1 << cells} agreement relations exceed the relation bound")
    labels = [()]
    for c in range(cells):
        labels += [label + (c,) for label in labels]
    inside = (np.arange(1 << cells)[:, None] >> np.arange(cells)) & 1
    codes = (inside * states ** np.arange(cells)) @ digit_matrix(states, cells).T
    stack = codes[:, :, None] == codes[:, None, :]
    stack.flags.writeable = False
    base = EntourageBase(tuple(Relation(total, pairs) for pairs in stack), tuple(labels))
    # seeds the base's cached stack, which its members are views of
    base.__dict__["stack"] = stack
    return base


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
    cells, so no relation matrices are involved here.  The sources of all
    targets are one boolean product of the targets' cell rows with it.
    """
    if depends is None:
        depends = dependency_matrix(gm)
    targets = [tuple(map(int, cells)) for cells in targets]
    needed = _cell_rows(targets, gm.space.cells) @ depends
    cells = range(gm.space.cells)
    return tuple((target, tuple(compress(cells, row))) for target, row in zip(targets, needed.tolist()))


def check_uniform_continuity(
    gm: GlobalMap, base: EntourageBase, depends: Optional[np.ndarray] = None
) -> ContinuityResult:
    """For each agreement entourage E(K) in the base, find the smallest
    source set L with (gm x gm)(E(L)) inside E(K), and re-verify the
    containment on the relation matrices themselves.

    The containment is checked as E(L) inside the pullback
    E(K)[T][:, T], with T the transition table: a gather of the base's
    stack along the table, a block of GATHER_BLOCK entries at a time, and
    no pairs pushed through it.  E(L) is the base's own member labeled L;
    only a source set that labels no member is built with
    agreement_relation.  The witness is the first failing member.
    `depends` is dependency_matrix(gm), computed when not given.
    """
    if base.labels is None:
        raise InputError("continuity needs the agreement-labeled base")
    total = _relation_universe(gm.space, gm.states)
    if any(r.size != total for r in base.relations):
        raise InputError("relations live on different universes")
    targets = continuity_assignments(gm, base.labels, depends)
    labeled = _first_index(cells for cells, _ in targets)
    sources = np.array([labeled.get(source, -1) for _, source in targets], dtype=np.intp)
    # flat position of (T x, T y) for each flat position of (x, y); it
    # runs past the code type (below total**2, while codes are below
    # total), so the table is widened first
    table = gm.table.astype(np.intp)
    pulled = (table[:, None] * total + table).ravel()
    flat = base.stack.reshape(len(targets), total * total)
    block = _rows_per_block(pulled.size)
    for start in range(0, len(targets), block):
        candidates = flat.take(sources[start : start + block], axis=0)
        for j in np.flatnonzero(sources[start : start + block] < 0):
            source = targets[start + j][1]
            candidates[j] = agreement_relation(gm.space, gm.states, source).pairs.ravel()
        escaped = (candidates & ~flat[start : start + block].take(pulled, axis=1)).any(axis=1)
        if escaped.any():
            r = start + int(escaped.argmax())
            cells, source = targets[r]
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


def check_continuity_window(
    space: CellSpace,
    neighborhood: Sequence[int],
    assignments: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> Verdict:
    """Each source set lies inside the windows of its target cells, the
    cells that the neighbourhood reaches from them; the witness is the
    first assignment whose source does not.  One boolean product of the
    targets' cell rows with the cell-to-window matrix gives every union of
    windows at once."""
    cells = space.cells
    # window[m, c]: is cell c in the window of cell m?
    window = np.zeros((cells, cells), dtype=bool)
    window[np.arange(cells)[:, None], space.semi_table[:, list(neighborhood)]] = True
    reached = _cell_rows([target for target, _ in assignments], cells) @ window
    outside = (_cell_rows([source for _, source in assignments], cells) & ~reached).any(axis=1)
    if outside.any():
        target, source = assignments[int(outside.argmax())]
        witness = {"target_cells": list(target), "source": list(source)}
        return Verdict.failing("continuity-inside-window", witness)
    return Verdict.passing("continuity-inside-window")


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
