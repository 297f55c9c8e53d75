"""Coordinate independence decided in one window search over every system.

The `coordinate-independence` suite reads each compared system's cells
off the tables (`laws.moved_reads`) and compares them with the rule's
own reads in one search (`laws.coordinate_difference`).  The oracle is
the loop it replaces, kept verbatim (`loop_coordinate_independence`):
move the automaton to each system with `change_coordinates` and compare
the steps with `step_difference`.  The systems and transporters of both
are drawn inside the symmetry scope, and the scoped variants are checked
against a scalar loop over the scope's members that, on the whole group,
is `full_variants`.  Reports, witnesses and errors must be the loop's on
every bundled space and S5, with raw and symmetrized rules, proper
scopes, tables that are not actions and seeds 0 to 20.
`change_coordinates` names the moved cosets as the search does
(`laws._moved_names`), so it is checked in turn against its form that
looks each conjugated element's coset up in a cell space
(`coset_lookup_change_coordinates`).
"""

import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homoca.cli as cli
import homoca.laws as laws
from homoca.automata import SemiCellularAutomaton, closed_neighborhood, is_cellular, step_batch, subgroup_or_whole
from homoca.catalog import coordinate_system_variants, cube_cross_neighborhood, random_rule_automaton
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import pattern_codes, weights
from homoca.errors import BoundError, InputError, LawError
from homoca.groups import FiniteGroup, LeftAction, Subgroup, require_group_action, transporter
from homoca.laws import change_coordinates, coordinate_difference, moved_reads, step_difference
from homoca.serialize import load_automaton
from homoca.verdict import Verdict
from test_decided_once import SPACES, _proper_scope, full_variants
from test_window_identities import INVARIANT, _collapsed, _doctored, _scope

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(SPACES)
# the spaces with a proper subgroup that still moves the origin everywhere
SCOPED = [name for name in NAMES if _proper_scope(name) is not None]


# ------------------------------------------------------------ the oracles


def scoped_variants(action, count, seed, members):
    """coordinate_system_variants inside a scope, one member at a time:
    each origin's default takes the smallest member carrying it to each
    cell, and the perturbations choose among the members that do."""
    rng = random.Random(seed)
    variants, seen = [], set()
    act = action.act
    transporters = {
        (origin, m): [h for h in members if act[h][origin] == m]
        for origin in range(action.points)
        for m in range(action.points)
    }
    for origin in range(action.points):
        coords = tuple(
            action.group.identity if m == origin else transporters[origin, m][0] for m in range(action.points)
        )
        if (origin, coords) not in seen:
            seen.add((origin, coords))
            variants.append(CoordinateSystem(action, origin, coords))
    total = sum(
        int(np.prod([len(transporters[origin, m]) for m in range(action.points) if m != origin]))
        for origin in range(action.points)
    )
    attempts = 0
    while len(variants) < min(count, total) and attempts < 10000:
        attempts += 1
        origin = rng.randrange(action.points)
        coords = tuple(
            action.group.identity if m == origin else rng.choice(transporters[origin, m])
            for m in range(action.points)
        )
        if (origin, coords) not in seen:
            seen.add((origin, coords))
            variants.append(CoordinateSystem(action, origin, coords))
    return variants[:count]


def loop_coordinate_independence(ca, sub, seed) -> dict:
    """The coordinate-independence suite as it moved the automaton to each
    system and compared the steps, kept verbatim but for the systems and
    the transporters, which it drew from the whole group."""
    members = sub.members if sub else tuple(ca.space.group.elements())
    out = {"verdicts": []}
    variants = [
        s
        for s in scoped_variants(ca.space.action, 6, seed, members)
        if s != ca.space.system
    ][:5]
    checked = []
    for system in variants:
        h = min(set(transporter(ca.space.action, ca.space.origin, system.origin)) & set(members))
        moved = change_coordinates(ca, system, h, sub)
        config = step_difference(ca, moved)
        if config is not None:
            out["verdicts"].append(
                Verdict.failing(
                    "coordinate-independence",
                    {"origin": system.origin, "coords": list(system.coords), "config": config},
                ).as_dict()
            )
            return out
        checked.append({"origin": system.origin, "coords": list(system.coords)})
    out["verdicts"].append(
        Verdict.passing("coordinate-independence", {"systems": checked}).as_dict()
    )
    return out


def coset_lookup_change_coordinates(ca, system2, h, subgroup=None):
    """change_coordinates as it looked each conjugated name's coset up in
    the new cell space, kept verbatim."""
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


def outcome(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (BoundError, InputError, LawError, AssertionError) as e:
        return f"{type(e).__name__}: {e}"


def _space(name, doctor, collapse):
    """The space, or a copy with two entries of one row of its action
    table swapped (or one copied onto another) when doctor picks a row
    off its coordinates: no longer an action."""
    space = SPACES[name]
    rows = [g for g in space.group.elements() if g not in space.coords]
    if doctor is None or not rows:
        return space
    return (_collapsed if collapse else _doctored)(space, rows[doctor % len(rows)])


def _automaton(space, q, rng, symmetrize, names, sub):
    neighborhood = closed_neighborhood(space, rng.sample(range(space.num_cosets), min(names, space.num_cosets)))
    return random_rule_automaton(space, neighborhood, q, rng, symmetrize, sub)


def _suite_matches_the_loop(ca, sub, seed):
    """The suite's outcome is the loop's; the outcome, for the mix."""
    got = outcome(cli._suite_coordinate_independence, ca, sub, seed)
    assert got == outcome(loop_coordinate_independence, ca, sub, seed)
    return got


# ------------------------------------------------------- against the loop


@settings(deadline=None)
@given(
    name=st.sampled_from(NAMES),
    q=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    names=st.integers(1, 3),
    doctor=st.one_of(st.none(), st.integers(0, 63)),
    collapse=st.booleans(),
    scoped=st.booleans(),
)
@example(name="torus", q=2, seed=0, symmetrize=True, names=2, doctor=None, collapse=False, scoped=True)
@example(name="square", q=2, seed=0, symmetrize=True, names=2, doctor=0, collapse=False, scoped=False)
@example(name="s5", q=3, seed=1, symmetrize=True, names=2, doctor=None, collapse=False, scoped=True)
def test_the_suite_gives_the_loops_report(name, q, seed, symmetrize, names, doctor, collapse, scoped):
    rng = random.Random(seed)
    space = _space(name, doctor, collapse)
    sub = _scope(space, rng) if scoped else None
    try:
        ca = _automaton(space, q, rng, symmetrize, names, sub)
    except InputError:
        # a symmetrized rule on a table that is not an action can leave
        # its neighborhood; there is then no automaton to compare
        return
    if is_cellular(ca, sub).ok:
        # the suite refuses other rules before it runs
        _suite_matches_the_loop(ca, sub, seed)


@pytest.mark.parametrize("name", SCOPED)
def test_proper_scopes_give_the_loops_report(name):
    space, scope = _proper_scope(name)
    for seed in range(21):
        rng = random.Random(seed)
        ca = _automaton(space, 2, rng, True, 2, scope)
        got = _suite_matches_the_loop(ca, scope, seed)
        members = set(scope.members)
        for system in got["verdicts"][0]["witness"]["systems"]:
            assert set(system["coords"]) <= members


@pytest.mark.parametrize("automaton", INVARIANT)
def test_the_fixtures_give_the_loops_report(automaton):
    ca = load_automaton(str(FIXTURES / f"{automaton}.json"))
    for seed in range(21):
        for sub in (None, _scope(ca.space, random.Random(seed))):
            _suite_matches_the_loop(ca, sub, seed)


def test_the_comparisons_see_each_outcome():
    # the comparisons above are only as good as their mix of outcomes
    seen = set()
    for name in ("square", "cube"):
        for doctor in range(8):
            for seed in range(3):
                ca = _automaton(_space(name, doctor, False), 2, random.Random(seed), True, 2, None)
                got = _suite_matches_the_loop(ca, None, seed)
                seen.add("error" if isinstance(got, str) else got["verdicts"][0]["ok"])
    assert seen == {True, False, "error"}, seen


def test_an_earlier_difference_is_reported_before_a_later_error():
    # on the doctored square the first system steps otherwise and the
    # second one is refused by change_coordinates: the loop reports the
    # first and never reaches the second, and so must the search
    space = _space("square", 0, False)
    ca = _automaton(space, 2, random.Random(0), True, 2, None)
    variants = [s for s in coordinate_system_variants(space.action, 6, 0) if s != space.system][:5]
    h = [transporter(space.action, space.origin, s.origin)[0] for s in variants]
    assert step_difference(ca, change_coordinates(ca, variants[0], h[0])) is not None
    with pytest.raises(InputError) as refused:
        change_coordinates(ca, variants[1], h[1])
    _, count = moved_reads(ca, variants, h)
    assert count == 1
    got = _suite_matches_the_loop(ca, None, 0)
    assert got["verdicts"][0]["witness"]["origin"] == variants[0].origin
    # with the refused system first, its error is raised
    with pytest.raises(InputError) as raised:
        coordinate_difference(ca, [variants[1], variants[0]])
    assert str(raised.value) == str(refused.value)


# ------------------------------------------------------------ the reads


@pytest.mark.parametrize("name, scoped", [(name, False) for name in NAMES] + [(name, True) for name in SCOPED])
def test_the_reads_step_as_the_moved_automata(name, scoped):
    space, sub = _proper_scope(name) if scoped else (SPACES[name], None)
    members = sub.members if sub else tuple(space.group.elements())
    for seed in range(4):
        rng = random.Random(seed)
        ca = _automaton(space, 2, rng, True, 3, sub)
        systems = scoped_variants(space.action, 8, seed, members)
        hs = [min(set(transporter(space.action, space.origin, s.origin)) & set(members)) for s in systems]
        reads, count = moved_reads(ca, systems, hs, sub)
        assert count == len(systems) and reads.shape == (len(systems), space.cells, ca.arity)
        configs = np.array([[rng.randrange(2) for _ in range(space.cells)] for _ in range(20)])
        w = weights(2, ca.arity)
        for system, h, cells in zip(systems, hs, reads):
            moved = change_coordinates(ca, system, h, sub)
            assert np.array_equal(ca.rule_array[configs[:, cells] @ w], step_batch(moved, configs))


@pytest.mark.parametrize("automaton", INVARIANT)
def test_the_suite_builds_no_space_or_automaton_per_system(automaton):
    ca = load_automaton(str(FIXTURES / f"{automaton}.json"))
    with mock.patch.object(CellSpace, "__init__", autospec=True, side_effect=CellSpace.__init__) as spaces:
        with mock.patch.object(
            SemiCellularAutomaton, "__init__", autospec=True, side_effect=SemiCellularAutomaton.__init__
        ) as automata:
            with mock.patch("homoca.laws.window_search", wraps=laws.window_search) as searches:
                with mock.patch("homoca.laws.change_coordinates", wraps=change_coordinates) as moves:
                    for seed in range(3):
                        cli._suite_coordinate_independence(ca, None, seed)
    assert (spaces.call_count, automata.call_count, moves.call_count) == (0, 0, 0)
    assert searches.call_count == 3


# ------------------------------------------------------ the scoped systems


@pytest.mark.parametrize("name", NAMES)
def test_the_scoped_oracle_is_the_full_loop_on_the_whole_group(name):
    action = SPACES[name].action
    for seed in range(4):
        assert scoped_variants(action, 8, seed, range(action.group.order)) == full_variants(action, 8, seed)


@pytest.mark.parametrize("name", SCOPED)
def test_scoped_variants_match_the_scalar_loop(name):
    space, scope = _proper_scope(name)
    action = space.action
    for seed in range(21):
        for count in (1, 6, 9):
            got = coordinate_system_variants(action, count, seed, scope)
            assert got == scoped_variants(action, count, seed, scope.members)


def test_the_scoped_torus_suites_all_exit_0(tmp_path, capsys):
    # the translations of the torus, the regular subgroup T of order 16,
    # as the coordinates and the scope: every suite that needs a
    # rotation-invariant rule runs in it, coordinate independence too
    translations = [0, 5, 9, 12, 17, 22, 26, 29, 33, 38, 42, 45, 50, 55, 59, 62]
    data = json.loads((FIXTURES / "torus_or.json").read_text())
    data["space"]["coords"] = translations
    path = tmp_path / "torus_or_translated.json"
    path.write_text(json.dumps(data))
    scope = ",".join(map(str, translations))
    for suite in ("coordinate-independence", "equivalence", "composition", "chl", "determination"):
        assert cli.main(["laws", str(path), "--suite", suite, "--subgroup", scope]) == cli.EXIT_PASS, suite
        report = json.loads(capsys.readouterr().out)
        if suite == "coordinate-independence":
            [verdict] = report["suites"][suite]["verdicts"]
    assert verdict["ok"] and len(verdict["witness"]["systems"]) == 5
    for system in verdict["witness"]["systems"]:
        assert set(system["coords"]) <= set(translations)


def _mul_doctored(space, a, b, value):
    """The space with the product a * b of its group table set to value:
    no longer a group, while the action table stays as it was.  None when
    the space is then refused."""
    mul = [list(r) for r in space.group.mul]
    mul[a][b] = value
    group = FiniteGroup(space.group.order, tuple(map(tuple, mul)), space.group.identity)
    action = LeftAction(group, space.cells, space.action.act)
    try:
        return CellSpace(CoordinateSystem(action, space.origin, space.coords))
    except InputError:
        return None


@pytest.mark.parametrize("name", ["square", "cube"])
def test_group_tables_with_a_wrong_product_give_the_loops_report(name):
    # one product of the group table moved: the stabilizers, their
    # closure, the names and their closure in another system can all
    # break while ca's own space still loads
    space = SPACES[name]
    rng = random.Random(name)
    outcomes = set()
    for _ in range(150):
        a, b = rng.randrange(space.group.order), rng.randrange(space.group.order)
        doctored = _mul_doctored(space, a, b, rng.randrange(space.group.order))
        if doctored is None:
            continue
        try:
            ca = _automaton(doctored, 2, rng, True, 2, None)
        except InputError:
            continue
        if is_cellular(ca).ok:
            got = _suite_matches_the_loop(ca, None, 0)
            outcomes.add(got if isinstance(got, str) else got["verdicts"][0]["ok"])
    assert True in outcomes and len(outcomes) > 2, outcomes


def test_a_window_past_the_rule_table_bound_is_refused_as_the_loop_refuses_it(monkeypatch):
    # with the bound lowered to 2**5, the cube's 5-face cross is inside it,
    # and some of a doctored cube's windows of all 6 faces are past it: the
    # systems are then compared one by one, so that a system differing
    # before the first one with such a window is still reported
    monkeypatch.setattr(laws, "MAX_RULE_TABLE", 2**5)
    space = SPACES["cube"]
    outcomes = set()
    for row in [g for g in space.group.elements() if g not in space.coords]:
        for doctored in (_doctored(space, row), _collapsed(space, row)):
            ca = random_rule_automaton(doctored, cube_cross_neighborhood(doctored), 2, random.Random(row), True)
            if is_cellular(ca).ok:
                got = _suite_matches_the_loop(ca, None, 0)
                outcomes.add(got if isinstance(got, str) else got["verdicts"][0]["ok"])
    assert "BoundError: 2**6 window patterns exceed the rule table bound" in outcomes
    assert False in outcomes, outcomes
    # on a doctored torus the first system differs on windows of 9 cells,
    # and the second reads windows of 12: past a bound of 2**9, so the
    # joint search is refused and the first system is still reported
    monkeypatch.setattr(laws, "MAX_RULE_TABLE", 2**9)
    ca = _automaton(_doctored(SPACES["torus"], 17), 2, random.Random(0), True, 2, None)
    got = _suite_matches_the_loop(ca, None, 0)
    assert not got["verdicts"][0]["ok"]


def _moved(check, ca, system, h):
    """The automaton a change of coordinates gives, as its system, names
    and rule, or what it raises."""
    got = outcome(check, ca, system, h)
    return got if isinstance(got, str) else (got.space.system, got.neighborhood, got.rule)


def test_change_coordinates_names_the_cosets_the_lookup_names():
    # every space, tables that are not actions and group tables with a
    # wrong product: the names the search shares must be the cosets'
    spaces = [SPACES[name] for name in NAMES]
    spaces += [_space(name, doctor, collapse) for name in ("square", "cube") for doctor in range(6) for collapse in (False, True)]
    rng = random.Random(3)
    for name in ("square", "cube"):
        space = SPACES[name]
        for _ in range(60):
            group = space.group.order
            spaces.append(_mul_doctored(space, rng.randrange(group), rng.randrange(group), rng.randrange(group)))
    outcomes = set()
    for space in filter(None, spaces):
        try:
            ca = _automaton(space, 2, rng, rng.random() < 0.8, 2, None)
        except InputError:
            continue
        for system in coordinate_system_variants(space.action, 8, rng.randrange(100)):
            for h in transporter(space.action, space.origin, system.origin)[:3]:
                got = _moved(change_coordinates, ca, system, h)
                assert got == _moved(coset_lookup_change_coordinates, ca, system, h)
                outcomes.add(got.split(":")[0] if isinstance(got, str) else "moved")
    assert outcomes == {"moved", "InputError", "LawError"}, outcomes
