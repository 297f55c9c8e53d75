"""Global transition functions and the checkable laws tying them to rules.

A global map is a full lookup table over packed configurations, built by
`global_table` only while states**cells stays within CONFIG_TABLE_BOUND
(see `homoca.bounds`); past it `global_table` raises BoundError, and the
checks that need tables pass that error on.  Tables are built
on a split radix: a packed code c is lo + states**(cells // 2) * hi, and
a sum over the digits of c is a sum over hi's digits plus one over lo's.
So a shift permutation is one broadcast add of two half-width sums, and
a table is built from one small block per cell, with a row per pattern
of the cell's window on the high cells, gathered into the table by hi.
A table is built once per automaton and kept on it read-only.
`step_batch` serves batches of configurations: witnesses and the
collision search past the bound.

Tables, shift permutations and inverse tables hold codes in one code
type, `digit_dtype(states**cells)`: uint8 up to 256 configurations and
uint16 up to the bound, a quarter of int64's bytes or less.  They are
composed with `take`, which gathers in that type, and arithmetic that
can pass a code (a product with the configuration count, an entry moved
down) widens first: in the code type it would wrap, or, with a Python
int out of the type's range, raise under NumPy 2.

Identities between two steps are decided on neighbourhood windows, at
every size and without a table: the step at a cell reads only its
window, so two maps agree everywhere when they agree at each cell on
every pattern of the cells either one reads (`window_difference`).
Step equivariance (`check_step_equivariance`), coordinate independence
(`step_difference`) and composition (`composition_difference`) are
checked so, with the verdicts and witnesses the table comparisons give
inside the bound; a map given only as a table is checked on the table
(`check_equivariance`).  So are the two laws of the Curtis-Hedlund-Lyndon
theorem, that the step is fixed by the rule at the origin:
`extract_step` reads the rule off the step at the origin and checks the
round trip with `step_difference`, and `check_determination` decides
both portraits of the step from the rule.

Equivariance checks test generators of the symmetry scope only.  They
are found by closing the shifts' cell maps under composition, not by
multiplying in the group table: tables are loaded without checking the
group axioms, while composing maps is associative on any input, so
commuting with the generators implies commuting with the whole scope.

Past the bound `invert` first joins the windows that read the origin
(`window_collision`): two configurations differing there alone with one
image refute invertibility exactly.  Only when that join finds no pair
is the collision search sampled (`sampled_collision`).
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
from .bounds import CONFIG_TABLE_BOUND, GATHER_BLOCK, MAX_RULE_TABLE, SAMPLE_COUNT
from .cellspace import CellSpace, CoordinateSystem
from .encoding import decode, digit_dtype, digit_matrix, encode, pattern_codes, row_names, weights
from .errors import BoundError, EquivarianceError, InputError
from .groups import Subgroup, require_group_action
from .verdict import Verdict

SAMPLE_SEED = 0


def config_count(space: CellSpace, states: int) -> int:
    return states**space.cells


def _digit_sums(states: int, width: int, weight: np.ndarray) -> np.ndarray:
    """Row c: the digits of code c, `width` of them, times `weight`.  The
    product is taken in int64 explicitly: under NumPy 1's value-based
    casting a narrow digit times a small weight can stay narrow and wrap."""
    return np.matmul(digit_matrix(states, width), weight, dtype=np.int64)


def split_pack(states: int, weight: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """sum(digit_j(c) * weight[j]) for every packed configuration c, as one
    broadcast add of the sums over hi's digits and over lo's.  The half
    sums are small and cast to dtype before the add, so the full-length
    result is built in dtype alone; dtype must hold every sum."""
    half = len(weight) // 2
    high = _digit_sums(states, len(weight) - half, weight[half:]).astype(dtype)
    low = _digit_sums(states, half, weight[:half]).astype(dtype)
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
    cell, whatever the window's size.  The table holds codes in the code
    type, `digit_dtype(states**cells)`: uint8 up to 256 configurations
    and uint16 up to the bound.  It is built once per automaton, kept
    read-only in the automaton's `_global_table` slot and returned from
    there on later calls; past the table bound every call raises
    BoundError.
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
        # every term and every partial sum is below q**n, so the terms are
        # added in the code type itself, at a quarter of int64's traffic or less
        code_type = digit_dtype(q**n)
        terms = (weights(q, n)[:, None] * ca.rule_array).astype(code_type)
        flat = np.zeros(q**n, dtype=code_type)
        rows = flat.reshape(len(idx), len(low))
        for term, pattern, code, at in zip(terms, high.T[:, :, None], low.T, idx.T):
            # cell m's block, term[high[p] + low[lo]], gathered by rows
            rows += term.take(pattern + code).take(at, axis=0)
        flat.setflags(write=False)
        ca._global_table = flat
    return ca._global_table


def shift_cells(space: CellSpace, members: Sequence[int]) -> np.ndarray:
    """Row k: the cell each cell reads when translating by members[k], so
    config[..., rows[k]] is the shift of config by members[k]."""
    inv = space.group.inv
    return space.action.act[[inv[g] for g in members]].astype(np.int64)


def shift_code_permutation(space: CellSpace, g: int, states: int) -> np.ndarray:
    """Translation by g as a permutation of packed configurations, in the
    code type of `global_table`.  The shifted configuration's digit at
    cell j is the digit at the cell it reads, so each cell's digit carries
    the weight of every j reading it."""
    weight = np.zeros(space.cells, dtype=np.int64)
    np.add.at(weight, shift_cells(space, [g])[0], weights(states, space.cells))
    return split_pack(states, weight, digit_dtype(states**space.cells))


class GlobalMap:
    """A function on configurations, as a table over packed configurations.

    The table is kept in the code type of `global_table`,
    `digit_dtype(states**cells)`.  Entries are range-checked in the type
    they come in, and only then cast; a table already in the code type is
    kept as it is, not copied, so a map of an automaton shares its
    memoized read-only table."""

    def __init__(self, space: CellSpace, states: int, table):
        table = np.asarray(table)
        expected = config_count(space, states)
        if table.shape != (expected,):
            raise InputError(f"table has shape {table.shape}, expected ({expected},)")
        if expected and (table.min() < 0 or table.max() >= expected):
            raise InputError("table entry out of range")
        self.space = space
        self.states = states
        self.table = table.astype(digit_dtype(expected), copy=False)

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
        bad = np.flatnonzero(table.take(perm) != perm.take(table))
        if bad.size:
            code = int(bad[0])
            return _equivariance_failure(
                h,
                decode(code, q, space.cells),
                decode(int(perm[table[code]]), q, space.cells),
                decode(int(table[perm[code]]), q, space.cells),
            )
    return Verdict.passing("shift-equivariance")


def window_difference(states: int, reads_a: np.ndarray, reads_b: np.ndarray, evaluate) -> Optional[list[int]]:
    """The smallest configuration on which two maps differ, or None.

    Map a gives cell m's digit from the digits at the cells reads_a[m],
    map b from those at reads_b[m].  The two agree on every configuration
    exactly when, at every cell, they agree on every pattern of its window
    U, the cells either one reads there.  A configuration on which they
    differ at m still differs with zeros off U, and that lowers its code,
    so the smallest one is the smallest such configuration over all m,
    compared digit by digit from the highest cell down.

    A cell's placement says where each read falls in its window:
    place_a[i] is the position of the cell reads_a[m, i], and place_b
    likewise.  Which patterns differ depends only on the placement, so
    cells that place their reads alike share one search.  A window lists
    its cells in the order they are first read, not by cell index, so on
    a space where both maps read alike at every cell, every cell shares
    one placement.  evaluate(size, places_a, places_b) gets k placements
    of windows of one size as rows, and gives both maps' digits as two
    (states**size, k) arrays, one row per pattern of the window.  Only at
    the cells that differ are the differing patterns put back into code
    order, to find the smallest.  The first window past MAX_RULE_TABLE
    patterns raises BoundError.
    """
    q = states
    split = reads_a.shape[1]
    reads = np.concatenate([reads_a, reads_b], axis=1)
    row = np.arange(len(reads))[:, None]
    order = np.argsort(reads, axis=1, kind="stable")
    ordered = reads[row, order]
    starts = np.ones(reads.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    # fresh[m, i]: reads[m, i] is the first read of its cell in row m, so
    # row m's window is reads[m][fresh[m]]; a stable sort puts that read
    # at the start of its cell's run, and first[m, i] is its column
    fresh = np.zeros(reads.shape, dtype=bool)
    fresh[row, order] = starts
    run_start = np.maximum.accumulate(np.where(starts, np.arange(reads.shape[1]), 0), axis=1)
    first = np.empty_like(order)
    first[row, order] = order[row, run_start]
    placed = (np.cumsum(fresh, axis=1) - 1)[row, first]
    sizes = np.count_nonzero(fresh, axis=1).tolist()
    keys = [place.tobytes() for place in placed]
    # the first cell of each placement, by window size; a window past the
    # bound is refused, at the first cell with one, before any search
    by_size: dict[int, dict[bytes, int]] = {}
    for m, (key, size) in enumerate(zip(keys, sizes)):
        if key not in by_size.setdefault(size, {}):
            if q**size > MAX_RULE_TABLE:
                raise BoundError(f"{q}**{size} window patterns exceed the rule table bound")
            by_size[size][key] = m
    # placements of one size are searched together, in calls of at most
    # MAX_RULE_TABLE patterns over all the placements a call serves
    differing: dict[bytes, np.ndarray] = {}
    for size, placements in by_size.items():
        cells = list(placements.values())
        batch = MAX_RULE_TABLE // q**size
        for start in range(0, len(cells), batch):
            rows = placed[cells[start : start + batch]]
            got_a, got_b = evaluate(size, rows[:, :split], rows[:, split:])
            bad = got_a != got_b
            for j in np.flatnonzero(bad.any(axis=0)).tolist():
                differing[rows[j].tobytes()] = digit_matrix(q, size)[bad[:, j]]
    smallest: dict[tuple[bytes, bytes], list[int]] = {}
    witness = None
    for m, (key, size) in enumerate(zip(keys, sizes)):
        if key in differing:
            window = reads[m][fresh[m]]
            # each window position's digit weighs as its cell does in a code
            rank = window.argsort(kind="stable").argsort()
            ranked = (key, rank.tobytes())
            if ranked not in smallest:
                codes = np.matmul(differing[key], weights(q, size)[rank], dtype=np.int64)
                smallest[ranked] = differing[key][codes.argmin()].tolist()
            config = [0] * len(reads)
            for cell, digit in zip(window.tolist(), smallest[ranked]):
                config[cell] = digit
            if witness is None or config[::-1] < witness[::-1]:
                witness = config
    return witness


def step_difference(a: SemiCellularAutomaton, b: SemiCellularAutomaton) -> Optional[list[int]]:
    """The smallest configuration on which the steps of two automata on
    the same cells and states differ, or None; exact at every size.  Two
    automata reading the same cells with the same rule have one step, and
    need no search: the `chl` round trip of a rule that is its own
    extraction, and a change of coordinates that keeps every read."""
    q = a.states
    if np.array_equal(a.neighbor_cells, b.neighbor_cells) and np.array_equal(a.rule_array, b.rule_array):
        return None

    def evaluate(size, places_a, places_b):
        return a.rule_array[pattern_codes(q, size, places_a)], b.rule_array[pattern_codes(q, size, places_b)]

    return window_difference(q, a.neighbor_cells, b.neighbor_cells, evaluate)


def composition_difference(
    combined: SemiCellularAutomaton, outer: SemiCellularAutomaton, inner: SemiCellularAutomaton
) -> Optional[list[int]]:
    """The smallest configuration on which the step of `combined` differs
    from outer's step after inner's, or None; exact at every size.  At
    cell m outer reads inner's digits at its cells, and each of those
    reads its own cells, so the second map reads inner's window at every
    cell of outer's."""
    q, cells = combined.states, combined.space.cells
    twice = inner.neighbor_cells[outer.neighbor_cells].reshape(cells, outer.arity * inner.arity)

    def evaluate(size, places_combined, places_twice):
        blocks = places_twice.reshape(len(places_twice), outer.arity, inner.arity)
        inner_out = inner.rule_array[pattern_codes(q, size, blocks)]
        twice_out = outer.rule_array[inner_out @ weights(q, outer.arity)]
        return combined.rule_array[pattern_codes(q, size, places_combined)], twice_out

    return window_difference(q, combined.neighbor_cells, twice, evaluate)


def check_step_equivariance(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """Does the step commute with every translation in the scope?  Exact
    at every size, with the verdict and witness of check_equivariance on
    the step's table.

    For a generator row S, shifting and then stepping reads cell m's
    rule at the cells S[neighbor_cells[m]]; stepping and then shifting
    reads it at neighbor_cells[S[m]].  `window_difference` compares the
    two on each cell's window, the union of those cells, and gives the
    smallest configuration on which they differ.  A window is the
    neighborhood's cells when the action table is an action, and at most
    twice as wide otherwise; the first one past MAX_RULE_TABLE patterns
    raises BoundError.
    """
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q = ca.states
    rule, nc, _ = ca.kernel
    rows = shift_cells(space, sub.members)

    def evaluate(size, shift_then_step, step_then_shift):
        reads = rule[pattern_codes(q, size, np.stack([shift_then_step, step_then_shift], axis=1))]
        return reads[..., 0], reads[..., 1]

    for k in generator_indices(rows):
        s = rows[k]
        witness = window_difference(q, s[nc], nc[s], evaluate)
        if witness is not None:
            image, shifted_image = step_batch(ca, [witness, [witness[c] for c in s]])
            return _equivariance_failure(sub.members[k], witness, image[s].tolist(), shifted_image.tolist())
    return Verdict.passing("shift-equivariance")


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


def check_determination(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """Two portraits of 'a map is the step of ca' must agree on the step:

    side A: the rule is rotation-invariant and the map equals the step;
    side B: the map is shift-equivariant and matches the rule at the origin.

    The step equals itself and matches the rule at the origin, so side A
    is the rule's invariance and side B the step's window equivariance
    (`check_step_equivariance`): both are decided from the rule, at every
    size.
    """
    sub = subgroup_or_whole(ca.space, subgroup)
    local = is_cellular(ca, sub)
    equivariant = check_step_equivariance(ca, sub)
    witness = {
        "rule_invariant_and_equal": local.ok,
        "equivariant_and_origin_matching": equivariant.ok,
        "rule_invariant": local.ok,
        "tables_equal": True,
        "equivariant": equivariant.ok,
        "origin_matching": True,
    }
    if local.ok == equivariant.ok:
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


def spread_images(gm: GlobalMap) -> tuple[np.ndarray, int]:
    """The map's images spread into one field of b bits per cell, and b,
    the bit length of states - 1: image digit m sits in bits b*m up to
    b*m + b - 1, at most 32 bits in all inside the table bound.  Two
    images differ at a cell exactly when their XOR is nonzero in its
    field.  When states is a power of two the packed code already is
    that spread, and the table itself is returned."""
    q, n = gm.states, gm.space.cells
    bits = (q - 1).bit_length()
    if q == 1 << bits:
        return gm.table, bits
    shifts = bits * np.arange(n, dtype=np.int64)
    fields = split_pack(q, np.left_shift(1, shifts, dtype=np.int64), digit_dtype(1 << bits * n))
    return fields.take(gm.table), bits


def dependency_matrix(gm: GlobalMap) -> np.ndarray:
    """deps[target, source]: can a single-site change at the source cell
    move the image digit at the target cell?

    The images are spread into a field of bits per cell
    (`spread_images`), so one OR over the XORs of all single-site changes
    at a source reads off every target it moves.

    The spread table is seen as rows hi by columns lo, split as in
    `global_table`.  A high digit is a digit of the row index, and the
    codes it tells apart are whole rows apart; a low digit is one of the
    column index, and is read off one transposed copy, where it too tells
    whole rows apart.  So every XOR runs over runs of at least a row.
    """
    q, n = gm.states, gm.space.cells
    spread, bits = spread_images(gm)
    shifts = bits * np.arange(n, dtype=np.int64)
    changed = np.zeros(n, dtype=np.int64)
    half = n // 2
    rows = spread.reshape(q ** (n - half), q**half)
    for digits, first, count in ((np.ascontiguousarray(rows.T), 0, half), (rows, half, n - half)):
        for j in range(count):
            # rows as (higher digits, digit j, lower digits and a row's
            # entries): axis 1 varies digit j alone, and entry 0 there
            # holds the codes whose digit is 0
            blocks = digits.reshape(q ** (count - 1 - j), q, -1)
            changed[first + j] = np.bitwise_or.reduce(blocks[:, 1:] ^ blocks[:, :1], axis=None)
    return ((changed >> shifts[:, None]) & ((1 << bits) - 1)) != 0


def _extracted(space: CellSpace, q: int, depends: Sequence[int], origin_rule, reproduces) -> SemiCellularAutomaton:
    """The automaton a shift-equivariant map is the step of.

    Its neighborhood is the stabilizer closure of the labels of the cells
    `depends`, those the map's origin digit depends on.  Its rule is the
    map's origin digit on the configurations that realize each local
    pattern at the origin and are 0 elsewhere: origin_rule(cells) gives
    it, in `digit_matrix` order, from the cells the neighborhood's names
    resolve to at the origin.  reproduces(ca) checks the round trip,
    which on a group action always holds.
    """
    labels = {space.cell_coset(m) for m in depends}
    neighborhood = closed_neighborhood(space, tuple(sorted(labels)))
    ca = SemiCellularAutomaton(space, q, neighborhood, origin_rule(space.semi_table[space.origin, list(neighborhood)]))
    if not reproduces(ca):
        require_group_action(space.action)
        raise AssertionError("extracted automaton does not reproduce the map")
    return ca


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

    def origin_rule(cells):
        probes = np.matmul(digit_matrix(q, len(cells)), weights(q, space.cells)[cells], dtype=np.int64)
        return table.take(probes) // q**space.origin % q

    def reproduces(ca):
        return np.array_equal(global_table(ca), table)

    depends = np.flatnonzero(dependency_matrix(gm)[space.origin]).tolist()
    return _extracted(space, q, depends, origin_rule, reproduces)


def origin_dependencies(ca: SemiCellularAutomaton) -> list[int]:
    """The cells whose single-site change can move the step's digit at the
    origin, read off the rule alone: the origin's digit is the rule on its
    window, the distinct cells it reads, so it depends on a cell of the
    window exactly when two patterns there that differ at that cell alone
    give different rule entries; the dependency row of
    `dependency_matrix` at the origin, at every size."""
    q = ca.states
    window, place = np.unique(ca.neighbor_cells[ca.space.origin], return_inverse=True)
    outputs = ca.rule_array[pattern_codes(q, len(window), place.ravel())]
    depends = []
    for i, cell in enumerate(window.tolist()):
        # patterns as (higher digits, digit i, lower digits): axis 1 varies digit i alone
        blocks = outputs.reshape(q ** (len(window) - 1 - i), q, q**i)
        if (blocks[:, 1:] != blocks[:, :1]).any():
            depends.append(cell)
    return depends


def extract_step(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> SemiCellularAutomaton:
    """`extract` on the step of ca, decided from the rule at every size.

    Equivariance is `check_step_equivariance`, with the verdict and the
    witness of `check_equivariance` on the step's table.  The origin's
    dependencies come from the rule (`origin_dependencies`), the rule is
    read off `extract`'s probe configurations stepped with `step_batch`,
    and the round trip is `step_difference`, so no table is built.  On an
    action the names resolve to distinct cells at the origin; where two
    share one, as only on tables that are not actions, a probe holds the
    last name's digit there, where `extract` adds the two into its code.
    """
    space = ca.space
    q = ca.states
    eq = check_step_equivariance(ca, subgroup)
    if not eq.ok:
        raise EquivarianceError("global map is not shift-equivariant", eq.witness or {})

    def origin_rule(cells):
        probes = np.zeros((q ** len(cells), space.cells), dtype=np.int64)
        probes[:, cells] = digit_matrix(q, len(cells))
        return step_batch(ca, probes)[:, space.origin]

    def reproduces(found):
        return step_difference(found, ca) is None

    return _extracted(space, q, origin_dependencies(ca), origin_rule, reproduces)


def table_inverse(table: np.ndarray) -> Union[np.ndarray, tuple[int, int, int]]:
    """The inverse of a table over packed configurations, or, when two
    codes share an image, the codes (image, first, second) of the smallest
    such image and its two smallest preimages.

    The sum of the images decides the path.  It is the sum of all codes
    when the table is a bijection; a table whose images sum otherwise
    shares an image, and in its sorted images the first one equal to its
    successor is the smallest shared one.  Otherwise the inverse, in the
    code type, is written by one scatter of every code to its image.  Of
    the preimages of one image only one is kept, so the codes that do not
    come back through it are exactly the other preimages of the images
    that have more than one: the table is a bijection when every code
    comes back, and the smallest image among those that do not is the
    smallest shared one."""
    total = len(table)
    if int(table.sum()) == total * (total - 1) // 2:
        codes = np.arange(total, dtype=digit_dtype(total))
        inverse = np.empty(total, dtype=codes.dtype)
        inverse[table] = codes
        lost = inverse.take(table) != codes
        if not lost.any():
            return inverse
        image = int(np.where(lost, table, total - 1).min())
    else:
        ordered = np.sort(table)
        image = int(ordered[(ordered[1:] == ordered[:-1]).argmax()])
    first, second = np.flatnonzero(table == image)[:2].tolist()
    return image, first, second


@dataclass(frozen=True)
class NotInvertible:
    witness: dict
    sampled: bool = False


def _pairs(span: int, dtype: np.dtype) -> np.ndarray:
    """Every pair a < b < span as a column of a (2, pairs) array of dtype,
    in the order of np.triu_indices(span, 1), written in place: no index
    array wider than dtype is built."""
    pairs = np.empty((2, span * (span - 1) // 2), dtype=dtype)
    states = np.arange(span, dtype=dtype)
    start = 0
    for a in range(span - 1):
        end = start + span - 1 - a
        pairs[0, start:end] = a
        pairs[1, start:end] = states[a + 1 :]
        start = end
    return pairs


def _first(rows: np.ndarray, column: dict) -> np.ndarray:
    """The index of the first of `rows`' columns, as `window_collision`
    orders its pairs, in an array; an empty one when there are none.  The
    order is total, so the first of the firsts of some blocks of rows is
    the first of them all."""
    # np.lexsort's last key is the primary one: the highest cell's digit
    return np.lexsort(rows[[1] + [column[c] for c in sorted(column)]])[:1]


def window_collision(ca: SemiCellularAutomaton) -> Optional[tuple[list[int], list[int]]]:
    """Two configurations that differ at the origin alone and have the
    same image, or None.

    Cell m's image digit reads only its window neighbor_cells[m], so two
    such configurations, with states a < b at the origin, have the same
    image exactly when every cell whose window holds the origin reads
    the same rule entry from both.  The search is a join over those
    windows in cell order: a row is a pair (a, b) and digits at the cells
    the windows taken so far read; each window extends the rows by its
    cells not met before and keeps the rows on which it reads equal
    entries with a and with b.  Each row is extended only by the patterns
    of the new cells that pass with it, so a failing row is never built.
    Rows hold digits in the type `digit_matrix` stores them in, the
    patterns are read from it, and codes are int64, computed for a block
    of rows at a time so that they stay within GATHER_BLOCK.

    The pair returned is the one whose first configuration, zero off the
    joined cells, has the smallest code, compared digit by digit from the
    highest cell down; of pairs sharing it, the one with the smaller b.
    When no window holds the origin every pair collides, so only (0, 1)
    is tried.  When the pairs (a, b), or a window's extended rows, would
    number more than MAX_RULE_TABLE, the search gives up before building
    them: None then says nothing, while None within the bound says that
    no such pair exists.
    """
    q, origin = ca.states, ca.space.origin
    rule, nc, _ = ca.kernel
    windows = nc[(nc == origin).any(axis=1)].tolist()
    # pairs a < b < span: with no window holding the origin, (0, 1) is
    # the pair returned
    span = q if windows else min(q, 2)
    if span * (span - 1) // 2 > MAX_RULE_TABLE:
        return None
    # digits[j] is column j of the rows: a, b, then the joined cells in
    # the order the windows met them
    digits = _pairs(span, digit_dtype(q))
    column = {origin: 0}
    for n, window in enumerate(windows):
        if not digits.shape[1]:
            return None
        fresh = list(dict.fromkeys(c for c in window if c not in column))
        width, k = len(digits), len(fresh)
        if digits.shape[1] * q**k > MAX_RULE_TABLE:
            return None
        column.update(zip(fresh, range(width, width + k)))
        # weight[j]: what a digit in column j adds to the window's rule code
        weight = np.zeros(width + k, dtype=np.int64)
        for i, c in enumerate(window):
            weight[column[c]] += q**i
        patterns = digit_matrix(q, k).T
        new = weight[width:] @ patterns
        # rows are joined in blocks whose codes, a row's with each new
        # pattern, number at most GATHER_BLOCK; after the last window only
        # each block's first row, as `_first` orders them, is kept
        last = n == len(windows) - 1
        size = max(1, GATHER_BLOCK // len(new))
        kept = []
        for start in range(0, digits.shape[1], size):
            block = digits[:, start : start + size]
            with_a = np.zeros(block.shape[1], dtype=np.int64)
            for j in np.flatnonzero(weight[:width]).tolist():
                with_a += np.multiply(block[j], weight[j], dtype=np.int64)
            with_b = with_a + np.multiply(block[1] - block[0], weight[0], dtype=np.int64)
            r, p = np.nonzero(rule[with_a[:, None] + new] == rule[with_b[:, None] + new])
            rows = np.concatenate([block[:, r], patterns[:, p]])
            kept.append(rows[:, _first(rows, column)] if last else rows)
        digits = np.concatenate(kept, axis=1)
    if not digits.shape[1]:
        return None
    ordered = sorted(column)
    best = digits[:, _first(digits, column)[0]].tolist()
    first = [0] * ca.space.cells
    for c in ordered:
        first[c] = best[column[c]]
    second = list(first)
    second[origin] = best[1]
    return first, second


def sampled_collision(ca: SemiCellularAutomaton, seed: int = SAMPLE_SEED) -> NotInvertible:
    """The seeded collision search: a sampled refutation of invertibility,
    or BoundError when it finds no collision.

    Its SAMPLE_COUNT samples are stepped in one batch and grouped by image
    with `row_names`, and the witness is the first collision in sample
    order.
    """
    space, q = ca.space, ca.states
    total = config_count(space, q)
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
    earlier, _ = row_names(images, q)
    colliding = np.flatnonzero(codes != codes[earlier])
    if colliding.size:
        i = int(colliding[0])
        return NotInvertible(
            {"colliding": [configs[earlier[i]].tolist(), configs[i].tolist()], "image": images[i].tolist()},
            sampled=True,
        )
    raise BoundError("cannot certify invertibility beyond the table bound") from None


def invert(
    ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None, seed: int = SAMPLE_SEED
) -> Union[SemiCellularAutomaton, NotInvertible]:
    """An automaton stepping backwards, or the reason there is none.

    The step of a rotation-invariant rule is invertible exactly when it is
    bijective on configurations, and the inverse is itself the step of an
    automaton, recovered by extraction.  Beyond the table bound
    invertibility can be refuted but not certified.  First
    `window_collision` looks for two configurations differing at the
    origin alone with the same image: a pair is an exact witness.  Only
    when it finds none, or gives up at its bound, does the seeded search
    `sampled_collision` run, whose witness is marked sampled and which
    raises BoundError when it finds no collision either; `seed` seeds
    that search alone.
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
        pair = window_collision(ca)
        if pair is None:
            return sampled_collision(ca, seed)
        image = step_batch(ca, [pair[0]])[0]
        return NotInvertible({"colliding": list(pair), "image": image.tolist()})

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
    codes = np.arange(total)
    if not (np.array_equal(back.take(table), codes) and np.array_equal(table.take(back), codes)):
        require_group_action(space.action)
        raise AssertionError("inverse automaton fails the round trip")
    return inverse
