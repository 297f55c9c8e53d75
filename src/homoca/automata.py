"""Semi-cellular automata over a cell space.

A rule reads the states at a stabilizer-closed set of relative names and
yields one state; the induced global step applies it at every cell by
resolving the names there.  Local configurations are tuples ordered by
the neighborhood's sorted canonical representatives, and the rule table
is indexed by their mixed-radix packing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .bounds import MAX_RULE_TABLE, MAX_TRACE
from .cellspace import CellSpace
from .encoding import decode, encode, pattern_codes, row_names, weights
from .errors import BoundError, InputError, LawError
from .groups import Subgroup
from .verdict import Verdict


def closed_neighborhood(space: CellSpace, coset_indices: Sequence[int]) -> tuple[int, ...]:
    """Saturate a set of relative names under the origin stabilizer."""
    given = sorted(set(int(j) for j in coset_indices))
    moved = space.translate_cosets(space.stabilizer.members, given)
    return tuple(sorted(set(given).union(moved.ravel().tolist())))


class SemiCellularAutomaton:
    def __init__(
        self,
        space: CellSpace,
        states: int,
        neighborhood: Sequence[int],
        rule: Sequence[int],
    ):
        if states < 1:
            raise InputError("need at least one state")
        if states > np.iinfo(np.int64).max:
            raise InputError(f"{states} states are past the int64 range")
        neighborhood = tuple(int(j) for j in neighborhood)
        if list(neighborhood) != sorted(set(neighborhood)):
            raise InputError("neighborhood must be sorted and duplicate-free")
        for j in neighborhood:
            if not 0 <= j < space.num_cosets:
                raise InputError(f"neighborhood coset index {j} out of range")
        closed = closed_neighborhood(space, neighborhood)
        if closed != neighborhood:
            missing = sorted(set(closed) - set(neighborhood))
            raise LawError(
                Verdict.failing(
                    "neighborhood-closed",
                    {"missing_representatives": [space.coset_reps[j] for j in missing]},
                )
            )
        if states ** len(neighborhood) > MAX_RULE_TABLE:
            raise BoundError(
                f"rule table would need {states}**{len(neighborhood)} entries"
            )
        rule = tuple(map(int, rule))
        if len(rule) != states ** len(neighborhood):
            raise InputError(
                f"rule table has {len(rule)} entries, expected {states ** len(neighborhood)}"
            )
        if min(rule) < 0 or max(rule) >= states:
            x = next(x for x in rule if not 0 <= x < states)
            raise InputError(f"rule output {x} out of range")
        self.space = space
        self.states = states
        self.neighborhood = neighborhood
        self.rule = rule
        # slot for the step as a laws.GlobalMap: GlobalMap.from_automaton
        # alone reads and fills it, on its first call inside the table bound
        self._global_map = None
        # is_cellular's verdicts, by the members of the symmetry scope; like
        # the map they live as long as the automaton, whose rule is read-only
        self._cellular: dict[tuple[int, ...], Verdict] = {}

    @property
    def arity(self) -> int:
        return len(self.neighborhood)

    @cached_property
    def rule_array(self) -> np.ndarray:
        """The rule as a read-only int64 array: the memoized table and
        rotation verdicts are derived from it and must not go stale."""
        rule = np.array(self.rule, dtype=np.int64)
        rule.setflags(write=False)
        return rule

    @cached_property
    def neighbor_cells(self) -> np.ndarray:
        """neighbor_cells[m, i] = cell m <| neighborhood[i]."""
        cols = np.array(self.neighborhood, dtype=np.int64)
        return self.space.semi_table[:, cols]

    @cached_property
    def kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The step's arrays, bound once: the rule table, neighbor_cells
        and the weights that pack a local configuration into a rule index."""
        return self.rule_array, self.neighbor_cells, weights(self.states, self.arity)

    @cached_property
    def origin_neighborhood(self) -> tuple[int, ...]:
        """The neighborhood resolved at the origin, as cells."""
        return tuple(int(c) for c in self.neighbor_cells[self.space.origin])


def subgroup_or_whole(space: CellSpace, subgroup: Optional[Subgroup]) -> Subgroup:
    """Default the symmetry scope to the whole group; a supplied subgroup
    must contain every coordinate so cells stay reachable inside it."""
    if subgroup is None:
        return Subgroup.whole(space.group)
    if subgroup.parent != space.group:
        raise InputError("subgroup belongs to a different group")
    inside = np.zeros(space.group.order, dtype=bool)
    inside[list(subgroup.members)] = True
    missing = np.flatnonzero(~inside[list(space.coords)])
    if missing.size:
        m = int(missing[0])
        raise InputError(f"subgroup is missing the coordinate {space.coords[m]} of cell {m}")
    return subgroup


def stabilizer_part(space: CellSpace, subgroup: Subgroup) -> tuple[int, ...]:
    """The stabilizer members inside the subgroup, in increasing order."""
    inside = np.zeros(space.group.order, dtype=bool)
    inside[list(subgroup.members)] = True
    stab = np.array(space.stabilizer.members, dtype=np.intp)
    return tuple(stab[inside[stab]].tolist())


def generator_indices(rows: np.ndarray) -> list[int]:
    """Greedy generators of a set of maps, given as rows: row k maps i to
    rows[k, i], and maps e and s compose to e[s].

    Row k is chosen when it is not in the closure, under composition, of
    the rows chosen before it; so every row lies in the closure of the
    chosen ones.  The closure is built on the maps, not on the group
    table: loaded tables are not checked for the group axioms, but maps
    compose associatively whatever the table says, so a property that
    the chosen maps keep and that composing keeps (a global map commuting
    with shifts of cells, a rule invariant under rotations of positions)
    holds for every row in their closure on any input.  Products that are
    not rows are dropped, which bounds the closure by len(rows) and can
    only leave a row out of it (it then becomes a generator), never put
    one in wrongly.
    """
    count, width = rows.shape
    # the identity, then every row; a map is named by the first of them
    # with its content, or by count + 1 when it is none of them.  inside
    # marks the names in the closure, and count + 1 too, so that a product
    # that is no row is never followed.  Entries are digits below width
    known = np.concatenate([np.arange(width, dtype=rows.dtype)[None, :], rows])
    names, find = row_names(known, width)
    inside = [True] + [False] * count + [True]
    chosen: list[int] = []
    moves: list[list[int]] = []
    for k, name in enumerate(names[1:].tolist()):
        if inside[name]:
            continue
        chosen.append(k)
        # applying e and then s is applying e[s]: moves[j][e] names e's
        # right product with the j-th chosen row, all found in one batch,
        # and following moves from the names inside reaches every word in
        # the chosen rows
        moves.append(find(known[:, rows[k]]).tolist())
        frontier = [e for e in range(count + 1) if inside[e]]
        while frontier:
            grown = []
            for e in frontier:
                for move in moves:
                    if not inside[move[e]]:
                        inside[move[e]] = True
                        grown.append(move[e])
            frontier = grown
    return chosen


def rotation_position_maps(ca: SemiCellularAutomaton, members: Sequence[int]) -> np.ndarray:
    """Row k is the position map of rotation by members[k], as
    rotation_position_map gives it, with -1 at each position whose name
    the rotation moves off the neighborhood; one gather builds every row."""
    space = ca.space
    moved = space.translate_cosets(np.asarray(space.group.inv)[list(members)], ca.neighborhood)
    lookup = np.full(space.num_cosets, -1, dtype=np.intp)
    lookup[list(ca.neighborhood)] = np.arange(ca.arity)
    return lookup[moved]


def leaving_error(ca: SemiCellularAutomaton, h: int, row: np.ndarray) -> InputError:
    """The error for rotation by h, whose position map row holds a -1."""
    i = int((row < 0).argmax())
    moved = ca.space.translate_coset(ca.space.group.inv[h], ca.neighborhood[i])
    return InputError(f"rotation by {h} leaves the neighborhood (coset {moved})")


def rotation_position_map(ca: SemiCellularAutomaton, h: int) -> tuple[int, ...]:
    """Position permutation p with (h . local)[i] = local[p[i]].

    Rotating a local configuration by a stabilizer element h reads each
    name n_i at the translated name h^-1 * n_i.
    """
    row = rotation_position_maps(ca, [h])[0]
    if (row < 0).any():
        raise leaving_error(ca, h, row)
    return tuple(row.tolist())


def rotate_local(ca: SemiCellularAutomaton, h: int, local: Sequence[int]) -> tuple[int, ...]:
    p = rotation_position_map(ca, h)
    return tuple(local[p[i]] for i in range(ca.arity))


def is_cellular(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """A rule is cellular when rotating its input never changes its output,
    quantified over the stabilizer part of the symmetry scope.

    Only generators of the rotations' position maps are tested, in member
    order (see generator_indices): if rule[local o p] == rule[local] for
    every local under two maps p and r, then also under p[r], so a rule
    invariant under the generators is invariant under every member.  The
    first failing member is still reported: every member before it
    passes, and a member that is not a generator composes from generators
    before it, so it would pass too.  The witness is its failing pattern
    with the smallest code.  A rotation that leaves the neighborhood,
    which a table that is not a group action allows, raises InputError
    unless a member before it fails.

    The verdict is decided once per automaton and scope: it is kept on
    the automaton, by the scope's members, and returned from there on
    later calls.
    """
    sub = subgroup_or_whole(ca.space, subgroup)
    verdict = ca._cellular.get(sub.members)
    if verdict is None:
        verdict = ca._cellular[sub.members] = _rotation_verdict(ca, sub)
    return verdict


def _rotation_verdict(ca: SemiCellularAutomaton, sub: Subgroup) -> Verdict:
    """is_cellular's verdict, decided on the generators."""
    q = ca.states
    rule = ca.rule_array
    members = stabilizer_part(ca.space, sub)
    maps = rotation_position_maps(ca, members)
    leaving = np.flatnonzero((maps < 0).any(axis=1))
    end = int(leaving[0]) if leaving.size else len(members)
    for k in generator_indices(maps[:end]):
        rotated = rule[pattern_codes(q, ca.arity, maps[k])]
        bad = np.flatnonzero(rotated != rule)
        if bad.size:
            code = int(bad[0])
            return Verdict.failing(
                "rule-rotation-invariance",
                {
                    "stabilizer_element": members[k],
                    "local": list(decode(code, q, ca.arity)),
                    "rotated_output": int(rotated[code]),
                    "output": int(rule[code]),
                },
            )
    if leaving.size:
        raise leaving_error(ca, members[end], maps[end])
    return Verdict.passing("rule-rotation-invariance")


def shift(space: CellSpace, g: int, config: Sequence[int]) -> tuple[int, ...]:
    """Translate a configuration: the new state at m is read at g^-1 . m."""
    act = space.action.act
    ginv = space.group.inv[g]
    return tuple(config[act[ginv][m]] for m in range(space.cells))


def step_batch(ca: SemiCellularAutomaton, configs) -> np.ndarray:
    """The global step of every row of configs[N, cells], as an [N, cells]
    array: each cell's local configuration is gathered through the
    semi-action table, packed, and looked up in the rule table."""
    return _apply(ca.kernel, _checked_configs(ca, configs))


def step(ca: SemiCellularAutomaton, config: Sequence[int]) -> tuple[int, ...]:
    return tuple(step_batch(ca, [config])[0].tolist())


def iterate(ca: SemiCellularAutomaton, config: Sequence[int], steps: int) -> np.ndarray:
    """The trace config, step(config), ..., as steps + 1 rows.

    The step is deterministic on the finite set of configurations, so the
    orbit is eventually periodic: stepping stops at the first configuration
    that repeats an earlier row, and the rest of the trace is copied from
    the cycle.  A trace of more than MAX_TRACE entries raises BoundError
    before anything is allocated.
    """
    if steps < 0:
        raise InputError(f"steps must be non-negative, got {steps}")
    cells = ca.space.cells
    if (steps + 1) * cells > MAX_TRACE:
        raise BoundError(f"a trace of {steps} steps on {cells} cells exceeds {MAX_TRACE} entries")
    row = _checked_configs(ca, [config])[0].astype(np.int64)
    trace = np.empty((steps + 1, cells), dtype=np.int64)
    trace[0] = row
    kernel = ca.kernel
    seen = {row.tobytes(): 0}
    for t in range(1, steps + 1):
        row = trace[t] = _apply(kernel, row)
        first = seen.setdefault(row.tobytes(), t)
        if first < t:
            # row t repeats row first: from there on row u is row
            # first + (u - first) % period
            period = t - first
            u = np.arange(t + 1, steps + 1)
            trace[t + 1 :] = trace[first + (u - first) % period]
            break
    return trace


def _apply(kernel: tuple[np.ndarray, np.ndarray, np.ndarray], configs: np.ndarray) -> np.ndarray:
    """The step of one configuration, or of each row of a stack of them."""
    rule, neighbor_cells, w = kernel
    # a single row takes the plain gather: `configs[..., neighbor_cells]`
    # costs about twice as much on a torus row
    local = configs[neighbor_cells] if configs.ndim == 1 else configs[:, neighbor_cells]
    return rule[local @ w]


def _checked_configs(ca: SemiCellularAutomaton, configs) -> np.ndarray:
    try:
        configs = np.asarray(configs)
    except ValueError:
        raise InputError("configurations must all have the same number of cells")
    if configs.ndim != 2:
        raise InputError(f"expected a 2-d array of configurations, got {configs.ndim} dimensions")
    if configs.shape[1] != ca.space.cells:
        raise InputError(f"configuration has {configs.shape[1]} cells, expected {ca.space.cells}")
    if configs.dtype.kind not in "biu":
        raise InputError(f"states must be integers below {ca.states}")
    bad = (configs < 0) | (configs >= ca.states)
    if bad.any():
        raise InputError(f"state {configs[bad][0]} out of range")
    return configs


def step_via_origin(ca: SemiCellularAutomaton, config: Sequence[int]) -> tuple[int, ...]:
    """Same global step, computed the other way around: pull the
    configuration back to the origin by the cell's coordinate, restrict it
    to the origin-resolved neighborhood, and apply the origin form of the
    rule."""
    config = _checked_configs(ca, [config])[0].tolist()
    space = ca.space
    act = space.action.act
    origin_cells = ca.origin_neighborhood
    out = []
    for m in range(space.cells):
        g = space.coords[m]
        # (g^-1 shifted config)(x) = config(g . x), restricted to origin cells
        restriction = {x: config[act[g][x]] for x in origin_cells}
        local = tuple(restriction[origin_cells[i]] for i in range(ca.arity))
        out.append(ca.rule[encode(local, ca.states)])
    return tuple(out)


def sensitive_positions(states: int, arity: int, outputs: np.ndarray) -> tuple[int, ...]:
    """The positions whose digit can change an entry of `outputs`, a table
    indexed by the mixed-radix packing of `arity` digits."""
    sensitive = []
    for i in range(arity):
        # codes as (higher digits, digit i, lower digits): axis 1 varies
        # digit i alone
        blocks = outputs.reshape(states ** (arity - 1 - i), states, states**i)
        if (blocks[:, 1:] != blocks[:, :1]).any():
            sensitive.append(i)
    return tuple(sensitive)


def essential_positions(ca: SemiCellularAutomaton) -> tuple[int, ...]:
    """Positions whose state can influence the rule's output."""
    return sensitive_positions(ca.states, ca.arity, ca.rule_array)


def essential_neighborhood(ca: SemiCellularAutomaton) -> tuple[int, ...]:
    """The coset indices the rule genuinely depends on.

    The rule factors through the restriction to these positions, and each
    of them is witnessed sensitive, so no smaller subset works.
    """
    positions = essential_positions(ca)
    restricted = pattern_codes(ca.states, ca.arity, positions)
    factor = np.zeros(ca.states ** len(positions), dtype=np.int64)
    factor[restricted] = ca.rule_array
    if not np.array_equal(factor[restricted], ca.rule_array):
        raise AssertionError("rule does not factor through its sensitive positions")
    return tuple(ca.neighborhood[i] for i in positions)
