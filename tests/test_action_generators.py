"""The action check on generators against the full sweep it replaced.

`verify_action` sweeps compatibility over the magma generators of a
table that passes `verify_group`, and over every element otherwise.  The
oracle is the full sweep: every element g, a block at a time, with the
first failing (g, g2, m) in label order as the witness.  On symmetric
groups S3-S5 with seeded element and point labels and up to two damaged
action entries, and on tables that are not groups, both must give the
same verdict and witness.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoca.groups as groups
from homoca.bounds import GATHER_BLOCK
from homoca.catalog import group_from_permutations
from homoca.cli import validate_source
from homoca.errors import LawError
from homoca.groups import (
    FiniteGroup,
    LeftAction,
    magma_generators,
    require_group_action,
    verify_action,
    verify_group,
)
from homoca.serialize import load_action
from homoca.verdict import Verdict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sweep_verify_action(action: LeftAction) -> Verdict:
    """verify_action as it was: compatibility swept over every element."""
    group = action.group
    act = action.act
    mul = group.mul
    e = group.identity

    bad = np.flatnonzero(act[e] != np.arange(action.points))
    if bad.size:
        m = int(bad[0])
        return Verdict.failing("action-identity", {"point": m, "e*m": int(act[e][m])})

    block = max(1, GATHER_BLOCK // act.size)
    for start in range(0, group.order, block):
        gs = np.arange(start, min(start + block, group.order))
        left = np.take(act, mul[gs], axis=0)
        right = np.take(act[gs], act, axis=1)
        differs = left != right
        if differs.any():
            i, g2, m = map(int, np.argwhere(differs)[0])
            return Verdict.failing(
                "action-compatibility",
                {
                    "pair": [start + i, g2],
                    "point": m,
                    "(g*g2).m": int(left[i, g2, m]),
                    "g.(g2.m)": int(right[i, g2, m]),
                },
            )
    return Verdict.passing("action-axioms")


def symmetric_action(n: int) -> LeftAction:
    """S_n on n points."""
    return group_from_permutations([tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])])


SYMMETRIC = {n: symmetric_action(n) for n in (3, 4, 5)}


def relabelled(action: LeftAction, elements: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The tables with element g renamed elements[g] and point m renamed
    points[m]: mul'[σa, σb] = σ(a*b) and act'[σg, πm] = π(g.m)."""
    mul = np.empty_like(action.group.mul)
    mul[np.ix_(elements, elements)] = elements[action.group.mul]
    act = np.empty_like(action.act)
    act[np.ix_(elements, points)] = points[action.act]
    return mul, act, int(elements[action.group.identity])


@st.composite
def damaged_actions(draw):
    """S3-S5 with seeded labels and 0-2 action entries set to another point."""
    action = SYMMETRIC[draw(st.sampled_from(sorted(SYMMETRIC)))]
    order, points = action.act.shape
    elements = np.array(draw(st.permutations(range(order))))
    labels = np.array(draw(st.permutations(range(points))))
    mul, act, identity = relabelled(action, elements, labels)
    act = act.copy()
    for _ in range(draw(st.integers(0, 2))):
        g, m = draw(st.integers(0, order - 1)), draw(st.integers(0, points - 1))
        act[g, m] = draw(st.integers(0, points - 1))
    return LeftAction(FiniteGroup(order, mul, identity), points, act)


@settings(deadline=None)
@given(damaged_actions())
def test_the_generator_sweep_gives_the_full_sweeps_verdict(action):
    assert verify_group(action.group).ok
    assert verify_action(action) == sweep_verify_action(action)


@st.composite
def twisted_actions(draw):
    """S3-S5 with seeded labels, each element x acting as x.p(m) for a
    point permutation p that depends on the right coset Hx of a cyclic
    subgroup H, and is the identity on H itself.  The elements of H pass
    compatibility, (g*g2).p(m) = g.(g2.p(m)) for g in H, and most others
    fail, so the first failure need not be at the first generator."""
    action = SYMMETRIC[draw(st.sampled_from(sorted(SYMMETRIC)))]
    order, points = action.act.shape
    elements = np.array(draw(st.permutations(range(order))))
    labels = np.array(draw(st.permutations(range(points))))
    mul, act, identity = relabelled(action, elements, labels)
    h = draw(st.integers(0, order - 1))
    cyclic = [identity]
    while mul[cyclic[-1], h] != identity:
        cyclic.append(int(mul[cyclic[-1], h]))
    coset = mul[cyclic].min(axis=0)  # coset[x]: the smallest member of Hx
    twists = {int(coset[identity]): np.arange(points)}
    for c in sorted(set(coset.tolist()) - set(twists)):
        twists[c] = np.array(draw(st.permutations(range(points))))
    twisted = np.array([act[x][twists[int(coset[x])]] for x in range(order)])
    return LeftAction(FiniteGroup(order, mul, identity), points, twisted), cyclic


@settings(deadline=None)
@given(twisted_actions())
def test_the_generator_sweep_finds_the_first_element_outside_a_passing_subgroup(case):
    action, cyclic = case
    verdict = verify_action(action)
    assert verdict == sweep_verify_action(action)
    if not verdict.ok:
        assert verdict.witness["pair"][0] not in cyclic


@st.composite
def non_groups(draw):
    """S3-S4 with seeded labels, 1-2 product entries changed, and 0-1
    damaged action entries: tables that fail verify_group."""
    action = SYMMETRIC[draw(st.sampled_from([3, 4]))]
    order, points = action.act.shape
    elements = np.array(draw(st.permutations(range(order))))
    mul, act, identity = relabelled(action, elements, np.arange(points))
    mul, act = mul.copy(), act.copy()
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(0, order - 1)), draw(st.integers(0, order - 1))
        mul[a, b] = draw(st.integers(0, order - 1))
    if draw(st.booleans()):
        act[draw(st.integers(0, order - 1)), draw(st.integers(0, points - 1))] = draw(st.integers(0, points - 1))
    return LeftAction(FiniteGroup(order, mul, identity), points, act)


@settings(deadline=None)
@given(non_groups())
def test_tables_that_are_not_groups_get_the_full_sweep(action):
    if verify_group(action.group).ok:
        return  # the changed products happened to leave a group
    assert verify_action(action) == sweep_verify_action(action)


@settings(deadline=None)
@given(st.one_of(damaged_actions(), non_groups()), st.integers(1, 200))
def test_small_blocks_give_the_full_sweeps_verdict(action, entries):
    # a block of one element up to a few, the last one short: the first
    # failing block still holds the first failing (g, g2, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "GATHER_BLOCK", entries)
        assert verify_action(action) == sweep_verify_action(action)


def test_a_failure_at_a_non_generator_is_found_when_the_table_is_not_a_group():
    action = SYMMETRIC[4]
    group = action.group
    generators = magma_generators(group)
    a = max(set(range(group.order)) - set(generators) - {group.identity})
    b = next(b for b in range(group.order) if b not in (group.identity, a))
    mul = group.mul.copy()
    # another product in row a only: compatibility fails at g = a, a non-generator
    mul[a, b] = next(c for c in range(group.order) if not np.array_equal(action.act[c], action.act[mul[a, b]]))
    broken = LeftAction(FiniteGroup(group.order, mul, group.identity), action.points, action.act)
    assert not verify_group(broken.group).ok
    verdict = verify_action(broken)
    assert verdict == sweep_verify_action(broken)
    assert verdict.law == "action-compatibility" and verdict.witness["pair"][0] == a


def test_the_bundled_bad_action_gets_the_full_sweeps_verdict():
    action = load_action(str(FIXTURES / "bad_action.json"))
    verdict = verify_action(action)
    assert verdict == sweep_verify_action(action)
    assert not verdict.ok


@pytest.mark.parametrize("n", sorted(SYMMETRIC))
def test_a_true_action_passes_both_sweeps(n):
    action = SYMMETRIC[n]
    assert verify_action(action) == sweep_verify_action(action) == Verdict.passing("action-axioms")


@pytest.fixture
def group_checks(monkeypatch):
    """The groups that verify_group's sweep runs on, one entry per run."""
    calls = []
    check = groups._check_group

    def counted(group):
        calls.append(group)
        return check(group)

    monkeypatch.setattr(groups, "_check_group", counted)
    return calls


def test_the_group_verdict_is_computed_once_per_group(group_checks):
    action = symmetric_action(4)
    assert verify_group(action.group) is verify_group(action.group)
    assert verify_action(action).ok
    require_group_action(action)
    assert len(group_checks) == 1
    # a group built anew from the same table is checked anew
    copy = FiniteGroup(action.group.order, action.group.mul, action.group.identity)
    assert verify_group(copy) == verify_group(action.group)
    assert len(group_checks) == 2


def test_validate_checks_the_group_once(group_checks):
    kind, verdicts = validate_source(str(FIXTURES / "cube_or.json"))
    assert kind == "automaton" and all(v.ok for v in verdicts)
    assert len(group_checks) == 1


def test_a_failing_group_is_still_named_before_the_action():
    action = SYMMETRIC[3]
    mul = action.group.mul.copy()
    mul[1, 2], mul[1, 3] = mul[1, 3], mul[1, 2]
    broken = LeftAction(FiniteGroup(action.group.order, mul, action.group.identity), action.points, action.act)
    assert not verify_group(broken.group).ok
    with pytest.raises(LawError) as err:
        require_group_action(broken)
    assert err.value.verdict == verify_group(broken.group)
