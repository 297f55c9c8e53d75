"""The prodiscrete uniform structure on the configurations of a space.

Its base is the agreement relations E(K) = "equal on the cell set K", one
for each set K of cells.  Each E(K) is held as its labeling: the K-code
of every configuration, its code with the digits off K set to zero
(`agreement_relation`).  Two configurations are E(K)-related exactly
when their labels are equal, so E(K) is the kernel of a projection.
That makes the base conditions true by construction, and
`check_uniformity_base` and `check_agreement_intersection` read no
configuration:

* each E(K) is reflexive, symmetric (it is its own inverse) and
  transitive (it is its own square root), as the kernel of any map is;
* configurations agree on K and on K' exactly when they agree on K | K',
  so E(K) & E(K') = E(K | K') is an identity on labels, and every meet of
  two members is a member.

What is checked on the global table is continuity:
`check_uniform_continuity` reads each cell's source set off the
dependency matrix and checks that the map's digit there is a function of
the source's labels; `check_uniform_isomorphism` checks both directions
of a bijective table so, the inverse direction on `laws.inverse_map`.  A
base of 2**cells members is never built, nor a whole labeling by a
check: continuity reads only the halves of its sources' labelings, so
the only bound is the table bound on the configurations a labeling
holds.

The map is the memo: its dependency matrix, its inverse and its
continuity are each decided once and kept on it (see `laws.GlobalMap`),
so the `uniformity` suite, `invert` and the isomorphism check share
them without handing anything over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Sequence

import numpy as np

from .bounds import CONFIG_TABLE_BOUND
from .cellspace import CellSpace
from .encoding import digit_dtype, weights
from .errors import BoundError, InputError
from .laws import GlobalMap, config_count, dependency_matrix, inverse_map, split_sums, spread_images
from .verdict import Verdict


@dataclass(frozen=True)
class AgreementBase:
    """The prodiscrete base on the configurations of `states` states over
    `space`: one member E(K) for each set K of its cells, each held as
    its labeling (`agreement_relation`), none built with the base."""

    space: CellSpace
    states: int


def prodiscrete_base(space: CellSpace, states: int) -> AgreementBase:
    """All agreement relations E(K), K over every subset of the cells."""
    return AgreementBase(space, states)


def _flat(sets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The index of the set each cell comes from, and the cells of all
    sets in order, as two arrays."""
    lengths = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    cells = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(lengths.sum()))
    return np.repeat(np.arange(len(sets)), lengths), cells


def _cell_rows(sets: Sequence[Sequence[int]], cells: int) -> np.ndarray:
    """rows[i, c]: does sets[i] hold cell c?  One boolean row per set; a
    cell outside 0..cells-1 raises InputError."""
    owner, flat = _flat(sets)
    outside = (flat < 0) | (flat >= cells)
    if outside.any():
        raise InputError(f"cell {flat[outside][0]} out of range")
    rows = np.zeros((len(sets), cells), dtype=bool)
    rows[owner, flat] = True
    return rows


def check_uniformity_base(base: AgreementBase) -> Verdict:
    """The five conditions making a family a base of entourages: nonempty,
    reflexive members, lower bounds for pairs, lower bounds for inverses,
    and relational square roots.

    All hold by construction on labelings: the base has 2**cells >= 1
    members; each E(K) is the kernel of its labeling, so it is reflexive,
    its own inverse and its own square root; and the meet of E(K) and
    E(K') is the member E(K | K').
    """
    return Verdict.passing("uniformity-base")


def check_agreement_intersection(base: AgreementBase) -> Verdict:
    """E(K) & E(K') = E(K | K') for every pair of members.

    It holds by construction: two configurations have equal K-labels and
    equal K'-labels exactly when their digits agree on every cell of K
    and of K', that is when their (K | K')-labels are equal.
    """
    return Verdict.passing("agreement-intersection")


def _label_halves(space: CellSpace, states: int, sets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The labelings of E(K) for each K in `sets`, split as the codes are
    (`split_sums`): the label of code lo + states**(cells // 2) * hi is
    high[hi, i] + low[lo, i] for the i-th set, and high[hi, i] is itself
    the label of hi's row at lo = 0, low[lo, i] that of lo at hi = 0.

    InputError for a cell outside 0..cells-1; BoundError past the table
    bound.
    """
    total = config_count(space, states)
    if total > CONFIG_TABLE_BOUND:
        raise BoundError(f"{total} configurations exceed the table bound")
    inside = _cell_rows(sets, space.cells).T
    return split_sums(states, weights(states, space.cells)[:, None] * inside, digit_dtype(total))


def agreement_relation(space: CellSpace, states: int, cells: Sequence[int]) -> np.ndarray:
    """E(K) as its labeling: the K-code of every configuration, its code
    with the digits off the cells K set to zero, in the code type of the
    global tables.  Two configurations are E(K)-related exactly when
    their labels are equal, and label x is itself the code of the
    configuration that agrees with x on K and is 0 elsewhere.

    InputError for a cell outside 0..cells-1; BoundError past the table
    bound.
    """
    high, low = _label_halves(space, states, [cells])
    return (high + low.T).ravel()


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
    unique, not just minimal.  The dependency matrix scans the whole
    transition table once for all cells, once per map.  The sources of
    all targets are one boolean product of the targets' cell rows with it.
    """
    targets = [tuple(map(int, cells)) for cells in targets]
    needed = _cell_rows(targets, gm.space.cells) @ dependency_matrix(gm)
    cells = range(gm.space.cells)
    return tuple((target, tuple(compress(cells, row))) for target, row in zip(targets, needed.tolist()))


def check_uniform_continuity(gm: GlobalMap) -> ContinuityResult:
    """For each single cell m, the smallest source set L with
    (gm x gm)(E(L)) inside E({m}), checked on the table (`_continuity`)
    once per map and kept on it."""
    if gm._continuity is None:
        gm._continuity = _continuity(gm)
    return gm._continuity


def _continuity(gm: GlobalMap) -> ContinuityResult:
    """check_uniform_continuity's result, checked.

    The containment holds exactly when digit m of T(x) is a function of
    x's L-label, that is when it equals digit m of T(x_L) for every x,
    x_L being the configuration the label codes: x and x_L agree on L,
    and two configurations with one label share that x_L.  The images
    are compared in their spread fields (`spread_images`): XORed, and
    tested in cell m's field.

    The table is seen as rows hi by columns lo, split as in
    `global_table`, and x_L is reached in two steps: zeroing x's high
    digits off L, which moves whole rows, then its low ones, which moves
    whole rows of one transposed copy.  The label splits as the code
    does, so the two steps read only its halves (`_label_halves`), its
    entries at lo = 0 and at hi = 0, found for every cell's source at
    once.  Digit m is kept by both steps for every x exactly when it is
    kept by the whole, so each cell is two row gathers and compares.

    Every other member follows: E(K) is the meet of the E({m}) for m in
    K, and pullbacks keep meets, so the source of K is the union of its
    cells' sources, as `continuity_assignments` gives it.  The witness
    lists the singleton targets, whatever the size, or names the first
    failing cell.
    """
    space = gm.space
    targets = continuity_assignments(gm, [(m,) for m in range(space.cells)])
    spread, bits = spread_images(gm)
    width = gm.states ** (space.cells // 2)
    rows = spread.reshape(-1, width)
    columns = np.ascontiguousarray(rows.T)
    # per cell, the row each row hi moves to, and the row of the
    # transposed copy each lo moves to
    high, low = _label_halves(space, gm.states, [source for _, source in targets])
    halves = zip((high // width).T, low.T)
    for m, ((cells, source), (to_row, to_column)) in enumerate(zip(targets, halves)):
        moved = np.bitwise_or.reduce(rows.take(to_row, axis=0) ^ rows, axis=None)
        moved |= np.bitwise_or.reduce(columns.take(to_column, axis=0) ^ columns, axis=None)
        if int(moved) >> bits * m & (1 << bits) - 1:
            verdict = Verdict.failing(
                "uniform-continuity",
                {"target_cells": list(cells), "candidate_source": list(source)},
            )
            return ContinuityResult(verdict, targets[:m])
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


def check_uniform_isomorphism(gm: GlobalMap) -> Verdict:
    """Bijective, with both directions uniformly continuous, checked with
    their smallest singleton source sets as witnesses.

    On a finite cell set the agreement relation over all cells is the
    diagonal, so every self-map of configuration space is uniformly
    continuous; what distinguishes an isomorphism is bijectivity, and the
    witnesses record how locally the two directions act.  The inverse is
    `inverse_map(gm)`, the one `invert` reads; a table that is not
    injective fails.
    """
    inverse = inverse_map(gm)
    if isinstance(inverse, tuple):
        return Verdict.failing(
            "uniform-isomorphism",
            {"reason": "not injective", "colliding_codes": list(inverse[1:])},
        )
    forward = check_uniform_continuity(gm)
    results = {"forward": forward}
    if forward.verdict.ok:
        results["inverse"] = check_uniform_continuity(inverse)
    witness = {}
    for name, result in results.items():
        if not result.verdict.ok:
            return Verdict.failing(
                "uniform-isomorphism",
                {"reason": f"{name} direction not uniformly continuous", "detail": result.verdict.witness},
            )
        witness[f"{name}_sources"] = [list(l) for _, l in result.assignments]
    return Verdict.passing("uniform-isomorphism", witness)
