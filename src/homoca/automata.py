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

from .cellspace import CellSpace
from .encoding import decode, digit_matrix, encode, weights
from .errors import BoundError, InputError, LawError
from .groups import Coset, Subgroup
from .verdict import Verdict

MAX_RULE_TABLE = 1 << 20


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
        rule = tuple(int(x) for x in rule)
        if len(rule) != states ** len(neighborhood):
            raise InputError(
                f"rule table has {len(rule)} entries, expected {states ** len(neighborhood)}"
            )
        for x in rule:
            if not 0 <= x < states:
                raise InputError(f"rule output {x} out of range")
        self.space = space
        self.states = states
        self.neighborhood = neighborhood
        self.rule = rule
        # slot for the step as a read-only table over packed configurations:
        # laws.global_table alone reads and fills it, on its first call
        # inside the table bound
        self._global_table: Optional[np.ndarray] = None

    @property
    def arity(self) -> int:
        return len(self.neighborhood)

    @cached_property
    def rule_array(self) -> np.ndarray:
        return np.array(self.rule, dtype=np.int64)

    @cached_property
    def neighbor_cells(self) -> np.ndarray:
        """neighbor_cells[m, i] = cell m <| neighborhood[i]."""
        cols = np.array(self.neighborhood, dtype=np.int64)
        return self.space.semi_table[:, cols]

    @cached_property
    def origin_neighborhood(self) -> tuple[int, ...]:
        """The neighborhood resolved at the origin, as cells."""
        return tuple(int(c) for c in self.neighbor_cells[self.space.origin])

    def neighborhood_cosets(self) -> tuple[Coset, ...]:
        return tuple(self.space.cosets[j] for j in self.neighborhood)

    def apply_rule(self, local: Sequence[int]) -> int:
        return self.rule[encode(local, self.states)]


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
    inside = set(subgroup.members)
    return tuple(h for h in space.stabilizer.members if h in inside)


def rotation_position_map(ca: SemiCellularAutomaton, h: int) -> tuple[int, ...]:
    """Position permutation p with (h . local)[i] = local[p[i]].

    Rotating a local configuration by a stabilizer element h reads each
    name n_i at the translated name h^-1 * n_i.
    """
    space = ca.space
    hinv = space.group.inv[h]
    positions = []
    lookup = {j: i for i, j in enumerate(ca.neighborhood)}
    for j in ca.neighborhood:
        moved = space.translate_coset(hinv, j)
        if moved not in lookup:
            raise InputError(f"rotation by {h} leaves the neighborhood (coset {moved})")
        positions.append(lookup[moved])
    return tuple(positions)


def rotate_local(ca: SemiCellularAutomaton, h: int, local: Sequence[int]) -> tuple[int, ...]:
    p = rotation_position_map(ca, h)
    return tuple(local[p[i]] for i in range(ca.arity))


def is_cellular(ca: SemiCellularAutomaton, subgroup: Optional[Subgroup] = None) -> Verdict:
    """A rule is cellular when rotating its input never changes its output,
    quantified over the stabilizer part of the symmetry scope."""
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q = ca.states
    codes = digit_matrix(q, ca.arity)
    w = weights(q, ca.arity)
    rule = ca.rule_array
    for h in stabilizer_part(space, sub):
        p = np.array(rotation_position_map(ca, h), dtype=np.int64)
        rotated = codes[:, p] @ w if ca.arity else np.zeros(1, dtype=np.int64)
        bad = np.flatnonzero(rule[rotated] != rule)
        if bad.size:
            code = int(bad[0])
            return Verdict.failing(
                "rule-rotation-invariance",
                {
                    "stabilizer_element": int(h),
                    "local": list(decode(code, q, ca.arity)),
                    "rotated_output": int(rule[rotated][code]),
                    "output": int(rule[code]),
                },
            )
    return Verdict.passing("rule-rotation-invariance")


def shift(space: CellSpace, g: int, config: Sequence[int]) -> tuple[int, ...]:
    """Translate a configuration: the new state at m is read at g^-1 . m."""
    act = space.action.act
    ginv = space.group.inv[g]
    return tuple(config[act[ginv][m]] for m in range(space.cells))


def observe(ca: SemiCellularAutomaton, config: Sequence[int], m: int) -> tuple[int, ...]:
    """The local configuration cell m sees: each name resolved at m."""
    return tuple(config[c] for c in ca.neighbor_cells[m])


def step_batch(ca: SemiCellularAutomaton, configs) -> np.ndarray:
    """The global step of every row of configs[N, cells], as an [N, cells]
    array: each cell's local configuration is gathered through the
    semi-action table, packed, and looked up in the rule table."""
    return _apply(ca, _checked_configs(ca, configs))


def step(ca: SemiCellularAutomaton, config: Sequence[int]) -> tuple[int, ...]:
    return tuple(step_batch(ca, [config])[0].tolist())


def iterate(ca: SemiCellularAutomaton, config: Sequence[int], steps: int) -> np.ndarray:
    """The trace config, step(config), ..., as steps + 1 rows."""
    if steps < 0:
        raise InputError(f"steps must be non-negative, got {steps}")
    trace = np.empty((steps + 1, ca.space.cells), dtype=np.int64)
    trace[0] = _checked_configs(ca, [config])[0]
    for t in range(steps):
        trace[t + 1 : t + 2] = _apply(ca, trace[t : t + 1])
    return trace


def _apply(ca: SemiCellularAutomaton, configs: np.ndarray) -> np.ndarray:
    return ca.rule_array[configs[:, ca.neighbor_cells] @ weights(ca.states, ca.arity)]


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


def essential_positions(ca: SemiCellularAutomaton) -> tuple[int, ...]:
    """Positions whose state can influence the rule's output."""
    q = ca.states
    codes = digit_matrix(q, ca.arity)
    w = weights(q, ca.arity)
    rule = ca.rule_array
    essential = []
    for i in range(ca.arity):
        base = codes.copy()
        base[:, i] = 0
        outputs = rule[base @ w]
        hit = False
        for v in range(1, q):
            base[:, i] = v
            if not np.array_equal(rule[base @ w], outputs):
                hit = True
                break
        if hit:
            essential.append(i)
    return tuple(essential)


def essential_neighborhood(ca: SemiCellularAutomaton) -> tuple[int, ...]:
    """The coset indices the rule genuinely depends on.

    The rule factors through the restriction to these positions, and each
    of them is witnessed sensitive, so no smaller subset works.
    """
    positions = essential_positions(ca)
    keep = set(positions)
    q = ca.states
    codes = digit_matrix(q, ca.arity)
    w = weights(q, ca.arity)
    masked = codes.copy()
    for i in range(ca.arity):
        if i not in keep:
            masked[:, i] = 0
    if not np.array_equal(ca.rule_array[masked @ w], ca.rule_array):
        raise AssertionError("rule does not factor through its sensitive positions")
    return tuple(ca.neighborhood[i] for i in positions)


def configuration_observing(
    ca: SemiCellularAutomaton, local: Sequence[int], m: int, default: int = 0
) -> tuple[int, ...]:
    """A configuration that realizes `local` at cell m and is `default`
    elsewhere; freeness of the semi-action makes the writes collision-free."""
    config = [default] * ca.space.cells
    for i, cell in enumerate(ca.neighbor_cells[m]):
        config[int(cell)] = int(local[i])
    return tuple(config)

