"""Step equivariance on windows built for every cell at once.

`check_step_equivariance` compares, for each generator, the two reads at
every cell with `laws.window_difference`, which places every cell's reads
in one pass and searches once per placement.  The oracle is the check as
it was, kept verbatim: one `np.unique` per cell.  Verdicts, witnesses and the refusal past the rule
table bound must be the loop's, on passing and failing random rules on
every bundled space and the 3-state torus, and on tables that are not
actions, whose windows can be wider than the neighborhood.
"""

import random
import sys

import numpy as np
import pytest

import homoca.laws as laws
from homoca.automata import (
    closed_neighborhood,
    generator_indices,
    step_batch,
    subgroup_or_whole,
)
from homoca.bounds import MAX_RULE_TABLE
from homoca.catalog import bundled_spaces, cube_cross_neighborhood, random_rule_automaton, torus_neighborhood
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import digit_matrix, pattern_codes
from homoca.errors import BoundError
from homoca.groups import LeftAction
from homoca.laws import _equivariance_failure, check_step_equivariance, shift_cells
from homoca.verdict import Verdict

SPACES = bundled_spaces()


def looped_step_equivariance(ca, subgroup=None):
    """check_step_equivariance as it built each cell's window with np.unique."""
    space = ca.space
    sub = subgroup_or_whole(space, subgroup)
    q, arity = ca.states, ca.arity
    rule, nc, _ = ca.kernel
    rows = shift_cells(space, sub.members)
    first_bad = {}
    for k in generator_indices(rows):
        s = rows[k]
        witness = None
        for m in range(space.cells):
            window, placed = np.unique(np.concatenate([s[nc[m]], nc[s[m]]]), return_inverse=True)
            key = placed.tobytes()
            if key not in first_bad:
                if q ** len(window) > MAX_RULE_TABLE:
                    raise BoundError(f"{q}**{len(window)} window patterns exceed the rule table bound")
                # column 0 reads shift-then-step, column 1 step-then-shift
                reads = rule[pattern_codes(q, len(window), placed.reshape(2, arity))]
                bad = np.flatnonzero(reads[:, 0] != reads[:, 1])
                first_bad[key] = digit_matrix(q, len(window))[bad[0]] if bad.size else None
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


def outcome(check, ca):
    """The verdict, or the message of the BoundError raised instead."""
    try:
        return check(ca)
    except BoundError as e:
        return f"BoundError: {e}"


def _neighborhoods(space, rng):
    """The torus's von Neumann neighborhood, and a random closed one."""
    picked = rng.sample(range(space.num_cosets), min(2, space.num_cosets))
    return [torus_neighborhood(space), closed_neighborhood(space, picked)] if space.cells == 16 else [picked]


@pytest.mark.parametrize("states", [2, 3])
@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_random_rules_agree_with_the_per_cell_loop(name, states):
    space = SPACES[name]
    verdicts = set()
    for seed in range(4):
        rng = random.Random(seed)
        for neighborhood in _neighborhoods(space, rng):
            for symmetrize in (True, False):
                ca = random_rule_automaton(space, neighborhood, states, rng, symmetrize)
                verdict = check_step_equivariance(ca)
                assert verdict == looped_step_equivariance(ca), (seed, neighborhood, symmetrize)
                verdicts.add(verdict.ok)
    assert verdicts == {True, False} or name == "cyclic4"


def _doctored(space, row):
    """The space with two entries of one row of its action table swapped,
    away from the origin and its preimage: no longer an action."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][a], act[row][b] = act[row][b], act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


@pytest.mark.parametrize("name", ["square", "cube", "torus"])
def test_tables_that_are_not_actions_agree_with_the_per_cell_loop(name):
    space = SPACES[name]
    verdicts = set()
    for row in [g for g in space.group.elements() if g not in space.coords][:6]:
        doctored = _doctored(space, row)
        for seed in range(2):
            rng = random.Random(seed)
            neighborhood = closed_neighborhood(doctored, rng.sample(range(doctored.num_cosets), 2))
            ca = random_rule_automaton(doctored, neighborhood, 2, rng, True)
            verdict = check_step_equivariance(ca)
            assert verdict == looped_step_equivariance(ca), (row, seed)
            verdicts.add(verdict.ok)
    assert False in verdicts


def test_a_window_past_the_rule_table_bound_is_refused_as_the_loop_refuses_it(monkeypatch):
    # with the bound lowered to 2**5, the cube's 5-face cross is inside it,
    # and a doctored cube's windows of all 6 faces are past it
    for module in (laws, sys.modules[__name__]):
        monkeypatch.setattr(module, "MAX_RULE_TABLE", 2**5)
    space = SPACES["cube"]
    outcomes = []
    for row in [g for g in space.group.elements() if g not in space.coords]:
        doctored = _doctored(space, row)
        ca = random_rule_automaton(doctored, cube_cross_neighborhood(doctored), 2, random.Random(row), False)
        assert ca.arity == 5
        got = outcome(check_step_equivariance, ca)
        assert got == outcome(looped_step_equivariance, ca), row
        outcomes.append(got if isinstance(got, str) else got.ok)
    assert "BoundError: 2**6 window patterns exceed the rule table bound" in outcomes
    assert False in outcomes

