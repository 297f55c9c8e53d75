"""Global transition functions and the checkable laws tying them to rules.

A global map is a full lookup table over packed configurations, built by
`global_table` only while states**cells stays within CONFIG_TABLE_BOUND;
past it, the laws that need tables raise BoundError.  A table is built
cell by cell, from the digit columns of each cell's window, once per
automaton, and kept on it read-only.  `step_batch` serves batches of
configurations: witnesses and the collision search past the bound.

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
    MAX_RULE_TABLE,
    SemiCellularAutomaton,
    closed_neighborhood,
    configuration_observing,
    is_cellular,
    step_batch,
    subgroup_or_whole,
)
from .cellspace import CellSpace, CoordinateSystem
from .encoding import decode, digit_matrix, encode, weights
from .errors import BoundError, EquivarianceError, InputError
from .groups import Subgroup, _conjugate_coset
from .verdict import Verdict

CONFIG_TABLE_BOUND = 1 << 16
SAMPLE_COUNT = 1024
SAMPLE_SEED = 0


def config_count(space: CellSpace, states: int) -> int:
    return states**space.cells


def _pack(columns: np.ndarray, cells: Sequence[int], states: int) -> np.ndarray:
    """Sum of columns[:, cells[i]] * states**i: for every packed
    configuration, the code of its digits at `cells` in that order.

    int32 holds every code packed here: rule codes stay below
    MAX_RULE_TABLE, and a configuration code indexes a row of `columns`,
    an array of far fewer than 2**31 rows.  Each product is taken in
    int32 explicitly: under NumPy 1's value-based casting a uint8 column
    times a small scalar stays uint8 and wraps.
    """
    code = np.zeros(columns.shape[0], dtype=np.int32)
    w = 1
    for c in cells:
        code += np.multiply(columns[:, c], w, dtype=np.int32)
        w *= states
    return code


def global_table(ca: SemiCellularAutomaton) -> np.ndarray:
    """The step of an automaton as a table over packed configurations.

    Cell m's image digit depends only on the digits at its window
    neighbor_cells[m], so the table is built one cell at a time: pack the
    window's digit columns into rule codes, look them up in the rule and
    add the result at weight states**m.  The table is built once per
    automaton, kept read-only in the automaton's `_global_table` slot and
    returned from there on later calls; past the table bound every call
    raises BoundError.
    """
    space = ca.space
    q = ca.states
    if config_count(space, q) > CONFIG_TABLE_BOUND:
        raise BoundError(f"{q}**{space.cells} configurations exceed the table bound")
    if ca._global_table is None:
        columns = digit_matrix(q, space.cells)
        rule = ca.rule_array.astype(np.int32)
        table = np.zeros(columns.shape[0], dtype=np.int32)
        for m, window in enumerate(ca.neighbor_cells.tolist()):
            table += rule[_pack(columns, window, q)] * np.int32(q**m)
        table = table.astype(np.int64)
        table.setflags(write=False)
        ca._global_table = table
    return ca._global_table


def shift_cells(space: CellSpace, members: Sequence[int]) -> np.ndarray:
    """Row k: the cell each cell reads when translating by members[k], so
    config[..., rows[k]] is the shift of config by members[k]."""
    inv = space.group.inv
    return space.action.act[[inv[g] for g in members]].astype(np.int64)


def generator_indices(rows: np.ndarray) -> list[int]:
    """Greedy generators of a set of shifts, given as shift_cells rows.

    Row k is chosen when it is not in the closure, under composition, of
    the rows chosen before it; so every row lies in the closure of the
    chosen ones.  The closure is built on the cell maps, not on the group
    table: loaded tables are not checked for the group axioms, but maps
    on configurations compose associatively whatever the table says, so a
    global map commuting with the chosen shifts commutes with every shift
    in their closure for any input.  Products that are not rows are
    dropped, which bounds the closure by len(rows) and can only leave a
    row out of it (it then becomes a generator), never put one in wrongly.
    """
    by_key = {row.tobytes(): row for row in rows}
    identity = np.arange(rows.shape[1], dtype=rows.dtype)
    closure = {identity.tobytes(): identity}
    chosen: list[int] = []
    for k, row in enumerate(rows):
        if row.tobytes() in closure:
            continue
        chosen.append(k)
        # shifting by e and then by s is shifting by e[s]; right products
        # with the chosen rows reach every word in them from the identity
        frontier = list(closure.values())
        while frontier:
            grown = []
            for e in frontier:
                for g in chosen:
                    key = e[rows[g]].tobytes()
                    if key in by_key and key not in closure:
                        closure[key] = by_key[key]
                        grown.append(by_key[key])
            frontier = grown
    return chosen


def shift_code_permutation(space: CellSpace, g: int, states: int) -> np.ndarray:
    """Translation by g as a permutation of packed configurations."""
    cell_perm = shift_cells(space, [g])[0].tolist()
    return _pack(digit_matrix(states, space.cells), cell_perm, states).astype(np.int64)


class GlobalMap:
    """A function on configurations, as a table over packed configurations."""

    def __init__(self, space: CellSpace, states: int, table):
        table = np.asarray(table, dtype=np.int64)
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
    A window is the neighborhood's cells when the action table is an
    action, and at most twice as wide otherwise; past MAX_RULE_TABLE
    patterns it raises BoundError.
    """
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q, arity = ca.states, ca.arity
    nc = ca.neighbor_cells
    w = weights(q, arity)
    rows = shift_cells(space, sub.members)
    first_bad: dict[bytes, Optional[np.ndarray]] = {}
    for k in generator_indices(rows):
        s = rows[k]
        witness = None
        for m in range(space.cells):
            window, placed = np.unique(np.concatenate([s[nc[m]], nc[s[m]]]), return_inverse=True)
            key = placed.tobytes()
            if key not in first_bad:
                if q ** len(window) > MAX_RULE_TABLE:
                    raise BoundError(f"{q}**{len(window)} window patterns exceed the rule table bound")
                patterns = digit_matrix(q, len(window))
                shift_then_step = ca.rule_array[patterns[:, placed[:arity]] @ w]
                step_then_shift = ca.rule_array[patterns[:, placed[arity:]] @ w]
                bad = np.flatnonzero(shift_then_step != step_then_shift)
                first_bad[key] = patterns[bad[0]] if bad.size else None
            if first_bad[key] is not None:
                config = [0] * space.cells
                for cell, digit in zip(window.tolist(), first_bad[key].tolist()):
                    config[cell] = digit
                if witness is None or config[::-1] < witness[::-1]:
                    witness = config
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

    group = space.group
    q = ca.states

    moved = []
    for j in ca.neighborhood:
        conj = _conjugate_coset(group, h, space.cosets[j])
        moved.append(space2.coset_index_of(conj))
    neighborhood2 = tuple(sorted(moved))
    if len(set(neighborhood2)) != len(moved):
        raise AssertionError("conjugated neighborhood collapsed")

    # rule2(local2) = rule(i -> local2 at the new position of the i-th name)
    position = {j2: idx for idx, j2 in enumerate(neighborhood2)}
    p = [position[moved[i]] for i in range(ca.arity)]
    codes = digit_matrix(q, ca.arity)
    w = weights(q, ca.arity)
    gather = codes[:, p].astype(np.int64) @ w if ca.arity else np.zeros(1, dtype=np.int64)
    rule2 = ca.rule_array[gather]
    return SemiCellularAutomaton(space2, q, neighborhood2, tuple(int(x) for x in rule2))


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
    pos = {j: i for i, j in enumerate(neighborhood)}

    # block[i][k]: where outer position i finds inner position k inside the
    # combined local configuration: the coordinate of the cell named by the
    # outer coset, multiplied onto the inner coset
    block = np.zeros((outer.arity, inner.arity), dtype=np.int64)
    for i, j in enumerate(outer.neighborhood):
        cell = space.semi_cell(space.origin, j)
        coord = space.coords[cell]
        for k, j2 in enumerate(inner.neighborhood):
            block[i, k] = pos[space.translate_coset(coord, j2)]

    codes = digit_matrix(q, len(neighborhood))
    w_inner = weights(q, inner.arity)
    w_outer = weights(q, outer.arity)
    inner_out = np.zeros((codes.shape[0], outer.arity), dtype=np.int64)
    for i in range(outer.arity):
        inner_codes = codes[:, block[i]].astype(np.int64) @ w_inner
        inner_out[:, i] = inner.rule_array[inner_codes]
    rule = outer.rule_array[inner_out @ w_outer]
    return SemiCellularAutomaton(space, q, neighborhood, tuple(int(x) for x in rule))


def dependency_matrix(gm: GlobalMap) -> np.ndarray:
    """deps[target, source]: can a single-site change at the source cell
    move the image digit at the target cell?"""
    q, n = gm.states, gm.space.cells
    image = digit_matrix(q, n)[gm.table]
    deps = np.zeros((n, n), dtype=bool)
    for i in range(n):
        # codes as (higher digits, digit i, lower digits): axis 1 varies
        # digit i alone, and entry 0 there holds the codes whose digit is 0
        blocks = image.reshape(q ** (n - 1 - i), q, q**i, n)
        deps[:, i] = (blocks[:, 1:] != blocks[:, :1]).any(axis=(0, 1, 2))
    return deps


def dependency_cells(gm: GlobalMap, target: int) -> tuple[int, ...]:
    """Cells whose single-site change can move the image at `target`:
    row `target` of dependency_matrix, from that cell's image digits only."""
    q, n = gm.states, gm.space.cells
    digit = gm.table // q**target % q
    out = []
    for i in range(n):
        blocks = digit.reshape(q ** (n - 1 - i), q, q**i)
        if (blocks[:, 1:] != blocks[:, :1]).any():
            out.append(i)
    return tuple(out)


def extract(gm: GlobalMap, subgroup: Optional[Subgroup] = None) -> SemiCellularAutomaton:
    """Recover an automaton whose step is exactly gm.

    gm must be shift-equivariant (checked; violations raise with a
    witness).  The neighborhood is the stabilizer closure of the labels of
    the cells the origin output actually depends on, and the rule is read
    off by probing gm on configurations that realize each local pattern at
    the origin over a default background.
    """
    space = gm.space
    sub = subgroup_or_whole(space, subgroup)
    table = gm.table
    eq = check_equivariance(gm, sub)
    if not eq.ok:
        raise EquivarianceError("global map is not shift-equivariant", eq.witness or {})
    q = gm.states

    depends = dependency_cells(gm, space.origin)
    labels = {space.cell_coset(m) for m in depends}
    neighborhood = closed_neighborhood(space, tuple(sorted(labels)))

    probe = SemiCellularAutomaton(space, q, neighborhood, [0] * q ** len(neighborhood))
    rule = []
    origin_weight = q ** space.origin
    for code in range(q ** len(neighborhood)):
        local = decode(code, q, len(neighborhood))
        config = configuration_observing(probe, local, space.origin, default=0)
        rule.append(int(table[encode(config, q)] // origin_weight % q))
    ca = SemiCellularAutomaton(space, q, neighborhood, rule)
    if not np.array_equal(global_table(ca), table):
        raise AssertionError("extracted automaton does not reproduce the map")
    return ca


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
    (sampled witness) but not certify it.
    """
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    inv_ok = is_cellular(ca, sub)
    if not inv_ok.ok:
        raise InputError(f"rule is not rotation-invariant: {inv_ok.witness}")
    q = ca.states
    total = config_count(space, q)
    if total > CONFIG_TABLE_BOUND:
        rng = random.Random(seed)
        configs = [decode(rng.randrange(total), q, space.cells) for _ in range(SAMPLE_COUNT)]
        images = step_batch(ca, configs).tolist()
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        for config, image in zip(configs, map(tuple, images)):
            if image in seen and seen[image] != config:
                return NotInvertible(
                    {"colliding": [list(seen[image]), list(config)], "image": list(image)},
                    sampled=True,
                )
            seen[image] = config
        raise BoundError("cannot certify invertibility beyond the table bound")

    table = global_table(ca)
    counts = np.bincount(table, minlength=total)
    if counts.max() > 1:
        image = int(np.flatnonzero(counts > 1)[0])
        pair = np.flatnonzero(table == image)[:2]
        return NotInvertible(
            {
                "colliding": [
                    list(decode(int(pair[0]), q, space.cells)),
                    list(decode(int(pair[1]), q, space.cells)),
                ],
                "image": list(decode(image, q, space.cells)),
            }
        )
    inverse_table = np.zeros(total, dtype=np.int64)
    inverse_table[table] = np.arange(total, dtype=np.int64)
    inverse = extract(GlobalMap(space, q, table=inverse_table), sub)
    back = global_table(inverse)
    if not (np.array_equal(back[table], np.arange(total)) and np.array_equal(table[back], np.arange(total))):
        raise AssertionError("inverse automaton fails the round trip")
    return inverse
