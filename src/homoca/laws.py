"""Global transition functions and the checkable laws tying them to rules.

A global map is a full lookup table over packed configurations, built by
`global_table` only while states**cells stays within CONFIG_TABLE_BOUND
(see `homoca.bounds`); past it `global_table` raises BoundError, and the
laws that need tables pass that error on.  Tables are built
on a split radix: a packed code c is lo + states**(cells // 2) * hi, and
a sum over the digits of c is a sum over hi's digits plus one over lo's.
So a shift permutation is one broadcast add of two half-width sums, and
a table is built from one small block per cell, with a row per pattern
of the cell's window on the high cells, gathered into the table by hi.
A table is built once per automaton and kept on it read-only.
`step_batch` serves batches of configurations: witnesses and the
collision search past the bound.

Equivariance checks test generators of the symmetry scope only.  They
are found by closing the shifts' cell maps under composition, not by
multiplying in the group table: tables are loaded without checking the
group axioms, while composing maps is associative on any input, so
commuting with the generators implies commuting with the whole scope.
The step of an automaton is checked on neighbourhood windows
(`check_step_equivariance`), which is exact at every size; a table is
checked on the table (`check_equivariance`).  Only the collision search
of `invert` past the bound is sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    generator_indices,
    is_cellular,
    step_batch,
    subgroup_or_whole,
)
from .bounds import CONFIG_TABLE_BOUND, MAX_RULE_TABLE, SAMPLE_COUNT
from .cellspace import CellSpace, CoordinateSystem
from .encoding import decode, digit_matrix, encode, pattern_codes, weights
from .errors import BoundError, EquivarianceError, InputError
from .groups import Subgroup, require_group_action
from .verdict import Verdict

SAMPLE_SEED = 0


def config_count(space: CellSpace, states: int) -> int:
    return states**space.cells


def _digit_sums(states: int, width: int, weight: np.ndarray) -> np.ndarray:
    """Row c: the digits of code c, `width` of them, times `weight`.  The
    product is taken in int64 explicitly: under NumPy 1's value-based
    casting a uint8 digit times a small weight can stay uint8 and wrap."""
    return np.matmul(digit_matrix(states, width), weight, dtype=np.int64)


def _split_pack(states: int, weight: np.ndarray) -> np.ndarray:
    """sum(digit_j(c) * weight[j]) for every packed configuration c, as one
    broadcast add of the sums over hi's digits and over lo's."""
    half = len(weight) // 2
    high = _digit_sums(states, len(weight) - half, weight[half:])
    low = _digit_sums(states, half, weight[:half])
    return (high[:, None] + low).ravel()


def global_table(ca: SemiCellularAutomaton) -> np.ndarray:
    """The step of an automaton as a table over packed configurations.

    Cell m's image digit depends only on the digits at its window
    neighbor_cells[m].  Split each code as c = lo + q**(n // 2) * hi, so
    the low cells' digits are lo's and the high cells' are hi's: the
    window's rule code is the pack of its low cells, read off lo, plus the
    pack of its high cells, read off hi.  Cell m's term rule[code] * q**m
    is first taken on a small block, with one row per pattern of the
    window's high cells and one column per lo, and then gathered into the
    table, seen as a (hi, lo) array, by rows: one pass over the table per
    cell, whatever the window's size.  The table is built once per
    automaton, kept read-only in the automaton's `_global_table` slot and
    returned from there on later calls; past the table bound every call
    raises BoundError.
    """
    space = ca.space
    q, n = ca.states, space.cells
    if config_count(space, q) > CONFIG_TABLE_BOUND:
        raise BoundError("global tables beyond the exhaustive bound")
    if ca._global_table is None:
        half = n // 2
        # one matmul over hi's digits gives three digit sums side by side,
        # one column per cell m (a code with fewer digits is a hi whose
        # top digits are 0):
        #   idx[hi, m]  hi's pattern on m's high cells, each cell ranked
        #               by where it first appears in m's window;
        #   low[lo, m]  the part of m's rule code read off lo's digits;
        #   high[p, m]  the part read off the high cells in pattern p
        weight = [[0] * (3 * n) for _ in range(n - half)]
        depth = 0
        for m, window in enumerate(ca.neighbor_cells.tolist()):
            rank: dict[int, int] = {}
            for i, cell in enumerate(window):
                if cell < half:
                    weight[cell][n + m] += q**i
                else:
                    r = rank.setdefault(cell, len(rank))
                    weight[cell - half][m] = q**r
                    weight[r][2 * n + m] += q**i
            depth = max(depth, len(rank))
        sums = _digit_sums(q, n - half, np.array(weight, dtype=np.int64))
        idx, low, high = sums[:, :n], sums[: q**half, n : 2 * n], sums[: q**depth, 2 * n :]
        # every entry is below q**n, inside the table bound, so the terms
        # are added in int32, at half the memory traffic of int64, and
        # cast once at the end
        terms = np.multiply(weights(q, n)[:, None], ca.rule_array, dtype=np.int32)
        flat = np.zeros(q**n, dtype=np.int32)
        rows = flat.reshape(len(idx), len(low))
        for term, pattern, code, at in zip(terms, high.T[:, :, None], low.T, idx.T):
            # cell m's block, term[high[p] + low[lo]], gathered by rows
            rows += term.take(pattern + code).take(at, axis=0)
        table = flat.astype(np.int64)
        table.setflags(write=False)
        ca._global_table = table
    return ca._global_table


def shift_cells(space: CellSpace, members: Sequence[int]) -> np.ndarray:
    """Row k: the cell each cell reads when translating by members[k], so
    config[..., rows[k]] is the shift of config by members[k]."""
    inv = space.group.inv
    return space.action.act[[inv[g] for g in members]].astype(np.int64)


def shift_code_permutation(space: CellSpace, g: int, states: int) -> np.ndarray:
    """Translation by g as a permutation of packed configurations.  The
    shifted configuration's digit at cell j is the digit at the cell it
    reads, so each cell's digit carries the weight of every j reading it."""
    weight = np.zeros(space.cells, dtype=np.int64)
    np.add.at(weight, shift_cells(space, [g])[0], weights(states, space.cells))
    return _split_pack(states, weight)


class GlobalMap:
    """A function on configurations, as a table over packed configurations."""

    def __init__(self, space: CellSpace, states: int, table):
        try:
            table = np.asarray(table, dtype=np.int64)
        except OverflowError:
            raise InputError("table entry out of range") from None
        expected = config_count(space, states)
        if table.shape != (expected,):
            raise InputError(f"table has shape {table.shape}, expected ({expected},)")
        if expected and (table.min() < 0 or table.max() >= expected):
            raise InputError("table entry out of range")
        self.space = space
        self.states = states
        self.table = table

    @classmethod
    def from_automaton(cls, ca: SemiCellularAutomaton) -> "GlobalMap":
        """The step of ca; past the table bound global_table raises BoundError."""
        return cls(ca.space, ca.states, global_table(ca))

    def apply(self, config: Sequence[int]) -> tuple[int, ...]:
        code = encode(config, self.states)
        return decode(int(self.table[code]), self.states, self.space.cells)


def _equivariance_failure(element: int, config, map_then_shift, shift_then_map) -> Verdict:
    return Verdict.failing(
        "shift-equivariance",
        {
            "element": int(element),
            "config": list(config),
            "map_then_shift": list(map_then_shift),
            "shift_then_map": list(shift_then_map),
        },
    )


def check_equivariance(gm: GlobalMap, subgroup: Optional[Subgroup] = None) -> Verdict:
    """Does the table commute with every translation in the scope?

    Only generators of the scope are tested, in member order (see
    generator_indices), and the first failing member is still reported:
    every member before it passes, and a member that is not a generator
    composes from generators before it, so it would pass too.  The
    witness is the failing configuration with the smallest code.
    """
    space = gm.space
    sub = subgroup_or_whole(space, subgroup)
    q = gm.states
    table = gm.table
    for k in generator_indices(shift_cells(space, sub.members)):
        h = sub.members[k]
        perm = shift_code_permutation(space, h, q)
        bad = np.flatnonzero(table[perm] != perm[table])
        if bad.size:
            code = int(bad[0])
            return _equivariance_failure(
                h,
                decode(code, q, space.cells),
                decode(int(perm[table][code]), q, space.cells),
                decode(int(table[perm][code]), q, space.cells),
            )
    return Verdict.passing("shift-equivariance")


def check_step_equivariance(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """Does the step commute with every translation in the scope?  Exact
    at every size, with the verdict and witness of check_equivariance on
    the step's table.

    For a generator row S, shifting and then stepping reads cell m's
    rule at the cells S[neighbor_cells[m]]; stepping and then shifting
    reads it at neighbor_cells[S[m]].  The two steps agree on every
    configuration exactly when, at every cell, the two reads agree on
    every pattern of the window U that is the union of those cells.  A
    configuration failing at m still fails with zeros off U, and that
    lowers its code, so the witness is the smallest such configuration
    over all m, compared digit by digit from the highest cell down.

    Which patterns fail depends only on where each read falls in U, so
    cells and generators that place their reads alike share the search.
    Every cell's window and placement for a generator come from one pass
    over the (cells, 2 * arity) array of reads (`_windows`), and only the
    placements not met before are searched.  A window is the
    neighborhood's cells when the action table is an action, and at most
    twice as wide otherwise; the first one past MAX_RULE_TABLE patterns
    raises BoundError.
    """
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q, arity = ca.states, ca.arity
    rule, nc, _ = ca.kernel
    rows = shift_cells(space, sub.members)
    first_bad: dict[bytes, Optional[np.ndarray]] = {}
    for k in generator_indices(rows):
        s = rows[k]
        ordered, fresh, placed = _windows(np.concatenate([s[nc], nc[s]], axis=1))
        witness = None
        for m, (key, size) in enumerate(zip(placed, np.count_nonzero(fresh, axis=1).tolist())):
            key = key.tobytes()
            if key not in first_bad:
                if q**size > MAX_RULE_TABLE:
                    raise BoundError(f"{q}**{size} window patterns exceed the rule table bound")
                # column 0 reads shift-then-step, column 1 step-then-shift
                reads = rule[pattern_codes(q, size, placed[m].reshape(2, arity))]
                bad = np.flatnonzero(reads[:, 0] != reads[:, 1])
                first_bad[key] = digit_matrix(q, size)[bad[0]] if bad.size else None
            if first_bad[key] is not None:
                config = [0] * space.cells
                for cell, digit in zip(ordered[m][fresh[m]].tolist(), first_bad[key].tolist()):
                    config[cell] = digit
                if witness is None or config[::-1] < witness[::-1]:
                    witness = config
        if witness is not None:
            image, shifted_image = step_batch(ca, [witness, [witness[c] for c in s]])
            return _equivariance_failure(sub.members[k], witness, image[s].tolist(), shifted_image.tolist())
    return Verdict.passing("shift-equivariance")


def _windows(reads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique with its inverse, for every row of reads in one pass: the
    row sorted, a mask of the first of each run of equal cells in it, so
    row m's window is ordered[m][fresh[m]], and each read's place in that
    window, the rank of its run."""
    row = np.arange(len(reads))[:, None]
    order = np.argsort(reads, axis=1, kind="stable")
    ordered = reads[row, order]
    fresh = np.ones(reads.shape, dtype=bool)
    fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    placed = np.empty(reads.shape, dtype=np.intp)
    placed[row, order] = np.cumsum(fresh, axis=1, dtype=np.intp) - 1
    return ordered, fresh, placed


def check_invariance_equivalence(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """Rotation invariance of the rule and shift equivariance of the step
    hold or fail together; the verdict records both sides."""
    local = is_cellular(ca, subgroup)
    glob = check_step_equivariance(ca, subgroup)
    witness = {
        "rule_invariant": local.ok,
        "step_equivariant": glob.ok,
        "rule_side": local.as_dict(),
        "step_side": glob.as_dict(),
    }
    if local.ok == glob.ok:
        return Verdict.passing("invariance-matches-equivariance", witness)
    return Verdict.failing("invariance-matches-equivariance", witness)


def check_determination(
    ca: SemiCellularAutomaton, gm: GlobalMap, subgroup: Optional[Subgroup] = None
) -> Verdict:
    """Two portraits of 'gm is the step of ca' must agree:

    side A: the rule is rotation-invariant and gm equals the step table;
    side B: gm is shift-equivariant and matches the rule at the origin.
    """
    space = ca.space
    if gm.space is not space and gm.space.system != space.system:
        raise InputError("global map lives on a different cell space")
    if gm.states != ca.states:
        raise InputError("state counts differ")
    sub = subgroup_or_whole(space, subgroup)
    q = ca.states

    local = is_cellular(ca, sub)
    step_table = global_table(ca)
    same_map = bool(np.array_equal(gm.table, step_table))
    side_a = local.ok and same_map

    equivariant = check_equivariance(gm, sub)
    origin_ok = True
    origin_witness = None
    origin_weight = q ** space.origin
    origin_digits = (gm.table // origin_weight) % q
    step_origin = (step_table // origin_weight) % q
    bad = np.flatnonzero(origin_digits != step_origin)
    if bad.size:
        origin_ok = False
        code = int(bad[0])
        origin_witness = {
            "config": list(decode(code, q, space.cells)),
            "map_origin_value": int(origin_digits[code]),
            "rule_origin_value": int(step_origin[code]),
        }
    side_b = equivariant.ok and origin_ok

    witness = {
        "rule_invariant_and_equal": side_a,
        "equivariant_and_origin_matching": side_b,
        "rule_invariant": local.ok,
        "tables_equal": same_map,
        "equivariant": equivariant.ok,
        "origin_matching": origin_ok,
    }
    if origin_witness:
        witness["origin_witness"] = origin_witness
    if side_a == side_b:
        return Verdict.passing("determination-at-origin", witness)
    return Verdict.failing("determination-at-origin", witness)


def change_coordinates(
    ca: SemiCellularAutomaton,
    system2: CoordinateSystem,
    h: int,
    subgroup: Optional[Subgroup] = None,
) -> SemiCellularAutomaton:
    """Re-express an automaton in another coordinate system on the same
    action.  h must carry the old origin to the new one; relative names
    are conjugated by h and the rule is re-indexed accordingly.  Requires
    a rotation-invariant rule, which is what makes the result's step equal
    the original's."""
    space = ca.space
    if system2.action != space.action:
        raise InputError("target coordinate system is on a different action")
    if space.action.act[h, space.origin] != system2.origin:
        raise InputError(f"element {h} does not carry the origin to {system2.origin}")
    space2 = CellSpace(system2)
    sub = subgroup_or_whole(space, subgroup)
    if subgroup is not None:
        subgroup_or_whole(space2, subgroup)
    inv_ok = is_cellular(ca, sub)
    if not inv_ok.ok:
        raise InputError(f"rule is not rotation-invariant: {inv_ok.witness}")

    q = ca.states

    # conjugation by h carries the stabilizer onto one subgroup, built once,
    # and the coset r Stab to h r h^-1 (h Stab h^-1): to the coset of h r h^-1
    mul = space.group.mul
    h_inv = space.group.inv[h]
    conjugated = Subgroup(space.group, mul[mul[h, list(space.stabilizer.members)], h_inv])
    if conjugated.members != space2.stabilizer.members:
        raise InputError("coset is not a coset of the origin stabilizer")
    reps = np.array(space.coset_reps)[list(ca.neighborhood)]
    moved = [space2.coset_index(int(g)) for g in mul[mul[h, reps], h_inv]]
    neighborhood2 = tuple(sorted(moved))
    if len(set(neighborhood2)) != len(moved):
        require_group_action(space.action)
        raise AssertionError("conjugated neighborhood collapsed")

    # rule2(local2) = rule(i -> local2 at the new position of the i-th name)
    position = {j2: idx for idx, j2 in enumerate(neighborhood2)}
    p = [position[moved[i]] for i in range(ca.arity)]
    rule2 = ca.rule_array[pattern_codes(q, ca.arity, p)]
    return SemiCellularAutomaton(space2, q, neighborhood2, rule2)


def compose(
    outer: SemiCellularAutomaton,
    inner: SemiCellularAutomaton,
    subgroup: Optional[Subgroup] = None,
) -> SemiCellularAutomaton:
    """One automaton whose step is outer-after-inner.

    Both rules must be rotation-invariant.  The combined neighborhood
    collects every product g * n' with g running over an outer name and n'
    over inner names; the combined rule feeds each outer position the
    inner rule applied to a block of the input."""
    space = outer.space
    if inner.space is not space and inner.space.system != space.system:
        raise InputError("automata live on different cell spaces")
    if inner.states != outer.states:
        raise InputError("state counts differ")
    sub = subgroup_or_whole(space, subgroup)
    for ca in (outer, inner):
        v = is_cellular(ca, sub)
        if not v.ok:
            raise InputError(f"rule is not rotation-invariant: {v.witness}")
    q = outer.states

    named = [g for j in outer.neighborhood for g in space.cosets[j].members]
    combined = space.translate_cosets(named, inner.neighborhood)
    neighborhood = tuple(sorted(set(combined.ravel().tolist())))
    if q ** len(neighborhood) > MAX_RULE_TABLE:
        raise BoundError(f"combined rule table would need {q}**{len(neighborhood)} entries")

    # block[i, k]: where outer position i finds inner position k inside the
    # combined local configuration: the coordinate of the cell named by the
    # outer coset, multiplied onto the inner coset
    coords = [space.coords[cell] for cell in outer.origin_neighborhood]
    block = np.searchsorted(neighborhood, space.translate_cosets(coords, inner.neighborhood))
    inner_out = inner.rule_array[pattern_codes(q, len(neighborhood), block)]
    rule = outer.rule_array[inner_out @ weights(q, outer.arity)]
    return SemiCellularAutomaton(space, q, neighborhood, rule)


def dependency_matrix(gm: GlobalMap) -> np.ndarray:
    """deps[target, source]: can a single-site change at the source cell
    move the image digit at the target cell?

    Each image is spread into one field of b bits per cell, b the bit
    length of states - 1, at most 32 bits inside the table bound; when
    states is a power of two the packed code already is that spread.  Two
    images differ at a cell exactly when their XOR is nonzero in its
    field, so one OR over the XORs of all single-site changes at a source
    reads off every target it moves.
    """
    q, n = gm.states, gm.space.cells
    bits = (q - 1).bit_length()
    shifts = bits * np.arange(n, dtype=np.int64)
    spread = gm.table
    if q != 1 << bits:
        spread = _split_pack(q, np.left_shift(1, shifts, dtype=np.int64))[spread]
    changed = np.zeros(n, dtype=np.int64)
    for i in range(n):
        # codes as (higher digits, digit i, lower digits): axis 1 varies
        # digit i alone, and entry 0 there holds the codes whose digit is 0
        blocks = spread.reshape(q ** (n - 1 - i), q, q**i)
        changed[i] = np.bitwise_or.reduce(blocks[:, 1:] ^ blocks[:, :1], axis=None)
    return ((changed >> shifts[:, None]) & ((1 << bits) - 1)) != 0


def extract(gm: GlobalMap, subgroup: Optional[Subgroup] = None) -> SemiCellularAutomaton:
    """Recover an automaton whose step is exactly gm.

    gm must be shift-equivariant (checked; violations raise with a
    witness).  The neighborhood is the stabilizer closure of the labels of
    the cells the origin output actually depends on, and the rule is read
    off the origin digit of gm on the configurations that realize each
    local pattern at the origin and are 0 elsewhere (see
    configuration_observing): the pattern's digits, packed at the weights
    of the cells its names resolve to at the origin.
    """
    space = gm.space
    sub = subgroup_or_whole(space, subgroup)
    table = gm.table
    eq = check_equivariance(gm, sub)
    if not eq.ok:
        raise EquivarianceError("global map is not shift-equivariant", eq.witness or {})
    q = gm.states

    depends = np.flatnonzero(dependency_matrix(gm)[space.origin]).tolist()
    labels = {space.cell_coset(m) for m in depends}
    neighborhood = closed_neighborhood(space, tuple(sorted(labels)))

    window_weights = weights(q, space.cells)[space.semi_table[space.origin, list(neighborhood)]]
    probes = np.matmul(digit_matrix(q, len(neighborhood)), window_weights, dtype=np.int64)
    rule = table[probes] // q**space.origin % q
    ca = SemiCellularAutomaton(space, q, neighborhood, rule)
    if not np.array_equal(global_table(ca), table):
        require_group_action(space.action)
        raise AssertionError("extracted automaton does not reproduce the map")
    return ca


def table_inverse(table: np.ndarray) -> Union[np.ndarray, tuple[int, int, int]]:
    """The inverse of a table over packed configurations, or, when two
    codes share an image, the codes (image, first, second) of the smallest
    such image and its two smallest preimages."""
    total = len(table)
    counts = np.bincount(table, minlength=total)
    if counts.max() > 1:
        image = int(np.flatnonzero(counts > 1)[0])
        first, second = np.flatnonzero(table == image)[:2].tolist()
        return image, first, second
    inverse = np.empty(total, dtype=np.int64)
    inverse[table] = np.arange(total, dtype=np.int64)
    return inverse


def first_alike(images: np.ndarray, states: int) -> np.ndarray:
    """earlier[i]: the first row of images, an [N, cells] array of digits
    below `states`, equal to row i.

    Each row is packed into int64 codes of as many digits as one holds,
    so into one code when states**cells fits, and the rows are sorted
    stably on their codes: equal rows end up side by side, each run in
    row order, so a run's first row is the first of its rows."""
    count, cells = images.shape
    span = 1
    while states ** (span + 1) <= 1 << 63 and span < cells:
        span += 1
    codes = [images[:, a : a + span] @ weights(states, min(span, cells - a)) for a in range(0, cells, span)]
    order = np.lexsort(codes[::-1])
    ordered = np.array(codes)[:, order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    earlier = np.empty(count, dtype=np.intp)
    earlier[order] = order[np.flatnonzero(starts)][np.cumsum(starts) - 1]
    return earlier


@dataclass(frozen=True)
class NotInvertible:
    witness: dict
    sampled: bool = False


def invert(
    ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None, seed: int = SAMPLE_SEED
) -> Union[SemiCellularAutomaton, NotInvertible]:
    """An automaton stepping backwards, or the reason there is none.

    The step of a rotation-invariant rule is invertible exactly when it is
    bijective on configurations, and the inverse is itself the step of an
    automaton, recovered by extraction.  Beyond the table bound only a
    seeded collision search is possible: it can refute invertibility
    (sampled witness) but not certify it.  Its SAMPLE_COUNT samples are
    stepped in one batch and grouped by image with `first_alike`, and the
    witness is the first collision in sample order.
    """
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    inv_ok = is_cellular(ca, sub)
    if not inv_ok.ok:
        raise InputError(f"rule is not rotation-invariant: {inv_ok.witness}")
    q = ca.states
    total = config_count(space, q)
    try:
        table = global_table(ca)
    except BoundError:
        rng = random.Random(seed)
        # codes past int64 are decoded as Python ints in an object array
        dtype = np.int64 if total <= np.iinfo(np.int64).max else object
        codes = np.array([rng.randrange(total) for _ in range(SAMPLE_COUNT)], dtype=dtype)
        place = np.array([q**i for i in range(space.cells)], dtype=dtype)
        configs = (codes[:, None] // place % q).astype(np.int64)
        images = step_batch(ca, configs)
        # sample i collides when its code differs from that of the first
        # sample with its image; until the first collision, every sample
        # with that image has the same code, so the pair is the first one
        # met in sample order
        earlier = first_alike(images, q)
        colliding = np.flatnonzero(codes != codes[earlier])
        if colliding.size:
            i = int(colliding[0])
            return NotInvertible(
                {"colliding": [configs[earlier[i]].tolist(), configs[i].tolist()], "image": images[i].tolist()},
                sampled=True,
            )
        raise BoundError("cannot certify invertibility beyond the table bound") from None

    inverse_table = table_inverse(table)
    if isinstance(inverse_table, tuple):
        image, first, second = (list(decode(code, q, space.cells)) for code in inverse_table)
        return NotInvertible({"colliding": [first, second], "image": image})
    try:
        # on a group action the inverse of an equivariant bijection is equivariant
        inverse = extract(GlobalMap(space, q, table=inverse_table), sub)
    except EquivarianceError:
        require_group_action(space.action)
        raise
    back = global_table(inverse)
    if not (np.array_equal(back[table], np.arange(total)) and np.array_equal(table[back], np.arange(total))):
        require_group_action(space.action)
        raise AssertionError("inverse automaton fails the round trip")
    return inverse
