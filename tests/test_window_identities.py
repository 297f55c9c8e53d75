"""Coordinate independence, composition, equivariance, CHL and
determination decided on windows.

`laws.window_difference` compares two maps cell by cell on the patterns of
the cells either one reads there.  The oracles are the table paths as they
were, kept verbatim: the `coordinate-independence` and `composition`
suites comparing `global_table`s, `compose` comparing the combined table
with `global_table(outer)[global_table(inner)]`, `check_equivariance` on
the step's table, and, in `table_oracles`, the `chl` suite extracting from
the step's table and the `determination` suite perturbing it.  Inside the
table bound verdicts, witnesses and errors must be the oracles', on every
bundled space and fixture with 2-3 states, raw and symmetrized rules,
symmetry scopes, and tables that are not actions.  Past it every witness
is re-stepped with `step` and `step_via_origin`.
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
from homoca.automata import SemiCellularAutomaton, closed_neighborhood, is_cellular, shift, step, step_via_origin
from homoca.catalog import (
    bundled_spaces,
    coordinate_system_variants,
    cyclic_space,
    identity_automaton,
    random_rule_automaton,
    torus_neighborhood,
)
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import decode, pattern_codes
from homoca.errors import BoundError, InputError, LawError
from homoca.groups import LeftAction, Subgroup, transporter
from homoca.laws import (
    CONFIG_TABLE_BOUND,
    GlobalMap,
    change_coordinates,
    check_determination,
    check_equivariance,
    compose,
    composition_difference,
    config_count,
    global_table,
    step_difference,
)
from homoca.serialize import detect_kind, load_automaton
from homoca.verdict import Verdict
from table_oracles import table_chl, table_determination, table_determination_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPACES = bundled_spaces()
TORUS = SPACES["torus"]
IN_BOUND = [
    (name, q) for name in sorted(SPACES) for q in (2, 3) if config_count(SPACES[name], q) <= CONFIG_TABLE_BOUND
]


# ------------------------------------------------------------ the oracles


def table_coordinate_independence(ca, sub, seed) -> dict:
    """The coordinate-independence suite as it compared global tables."""
    out = {"verdicts": []}
    reference = global_table(ca)
    variants = [
        s
        for s in coordinate_system_variants(ca.space.action, 6, seed)
        if s != ca.space.system
    ][:5]
    checked = []
    for system in variants:
        h = transporter(ca.space.action, ca.space.origin, system.origin)[0]
        moved = change_coordinates(ca, system, h, sub)
        if not np.array_equal(global_table(moved), reference):
            diff = int(np.flatnonzero(global_table(moved) != reference)[0])
            out["verdicts"].append(
                Verdict.failing(
                    "coordinate-independence",
                    {
                        "origin": system.origin,
                        "coords": list(system.coords),
                        "config": list(decode(diff, ca.states, ca.space.cells)),
                    },
                ).as_dict()
            )
            return out
        checked.append({"origin": system.origin, "coords": list(system.coords)})
    out["verdicts"].append(
        Verdict.passing("coordinate-independence", {"systems": checked}).as_dict()
    )
    return out


def table_composition(ca, sub, seed) -> dict:
    """The composition suite as it compared global tables."""
    out = {"verdicts": []}
    # the table bound is met before compose's bound on the combined rule
    table = global_table(ca)
    combined = compose(ca, ca, sub)
    expected = table[table]
    got = global_table(combined)
    if not np.array_equal(got, expected):
        diff = int(np.flatnonzero(got != expected)[0])
        out["verdicts"].append(
            Verdict.failing(
                "composition-step", {"config": list(decode(diff, ca.states, ca.space.cells))}
            ).as_dict()
        )
        return out
    out["verdicts"].append(
        Verdict.passing(
            "composition-step",
            {"neighborhood": [ca.space.coset_reps[j] for j in combined.neighborhood]},
        ).as_dict()
    )
    invariant = is_cellular(combined, sub)
    out["verdicts"].append(
        Verdict(invariant.ok, "composition-rule-invariant", invariant.witness).as_dict()
    )
    return out


def table_difference(got_table, expected_table, ca):
    """The smallest configuration on which two tables differ, or None."""
    if np.array_equal(got_table, expected_table):
        return None
    diff = int(np.flatnonzero(got_table != expected_table)[0])
    return list(decode(diff, ca.states, ca.space.cells))


def table_composition_difference(combined, outer, inner):
    """compose's check as it compared global tables."""
    return table_difference(global_table(combined), global_table(outer)[global_table(inner)], combined)


def outcome(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (BoundError, InputError, AssertionError) as e:
        return f"{type(e).__name__}: {e}"


# -------------------------------------------------------------- the spaces


def _doctored(space, row):
    """The space with two entries of one row of its action table swapped,
    away from the origin and its preimage: no longer an action."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][a], act[row][b] = act[row][b], act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


def _collapsed(space, row):
    """The space with one entry of one row of its action table copied onto
    another, away from the origin and its preimage: that shift permutes
    no configurations, as no action's does."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][b] = act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


def _space(name, doctor, collapse=False):
    """The bundled space, or a doctored or collapsed copy of it when
    doctor picks one of the rows off its coordinates."""
    space = SPACES[name]
    rows = [g for g in space.group.elements() if g not in space.coords]
    if doctor is None or not rows:
        return space
    return (_collapsed if collapse else _doctored)(space, rows[doctor % len(rows)])


def _automaton(space, q, rng, symmetrize, names):
    neighborhood = closed_neighborhood(space, rng.sample(range(space.num_cosets), min(names, space.num_cosets)))
    return random_rule_automaton(space, neighborhood, q, rng, symmetrize)


def _flipped(ca, rng, entries=1):
    """ca with a few rule entries moved to another state."""
    rule = list(ca.rule)
    for code in rng.sample(range(len(rule)), min(entries, len(rule))):
        rule[code] = (rule[code] + 1) % ca.states
    return SemiCellularAutomaton(ca.space, ca.states, ca.neighborhood, rule)


CASES = dict(
    case=st.sampled_from(IN_BOUND),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    names=st.integers(1, 3),
    doctor=st.one_of(st.none(), st.integers(0, 63)),
)


# ------------------------------------------------------ inside the bound


@settings(deadline=None)
@given(**CASES)
@example(case=("torus", 2), seed=0, symmetrize=True, names=2, doctor=None)
@example(case=("cube", 3), seed=1, symmetrize=True, names=2, doctor=3)
def test_the_suites_give_the_table_paths_reports(case, seed, symmetrize, names, doctor):
    name, q = case
    rng = random.Random(seed)
    ca = _automaton(_space(name, doctor), q, rng, symmetrize, names)
    if not is_cellular(ca).ok:
        # the suites refuse such rules before running; the windows still
        # compare their steps with any other automaton's
        other = _flipped(ca, rng, rng.randint(0, 3))
        assert step_difference(ca, other) == table_difference(global_table(other), global_table(ca), ca)
        return
    for window_path, table_path in (
        (cli._suite_coordinate_independence, table_coordinate_independence),
        (cli._suite_composition, table_composition),
    ):
        assert outcome(window_path, ca, None, seed) == outcome(table_path, ca, None, seed)


@settings(deadline=None)
@given(**CASES, entries=st.integers(0, 4))
@example(case=("torus", 2), seed=3, symmetrize=True, names=2, doctor=None, entries=1)
def test_steps_of_any_two_automata_differ_where_their_tables_do(case, seed, symmetrize, names, doctor, entries):
    name, q = case
    rng = random.Random(seed)
    space = _space(name, doctor)
    ca = _automaton(space, q, rng, symmetrize, names)
    for other in (_flipped(ca, rng, entries), _automaton(space, q, rng, symmetrize, names)):
        expected = table_difference(global_table(other), global_table(ca), ca)
        assert step_difference(ca, other) == expected
        assert step_difference(other, ca) == expected


@settings(deadline=None)
@given(**{**CASES, "names": st.integers(1, 2)}, entries=st.integers(0, 3))
def test_composition_differs_where_the_tables_do(case, seed, symmetrize, names, doctor, entries):
    # outer, inner and the combined rule are any three automata: the
    # combined rule read on its own neighbourhood, perturbed or not.  Two
    # names at most: with three, two steps on the torus read most of its
    # 16 cells, and each example costs ten times as much
    name, q = case
    rng = random.Random(seed)
    space = _space(name, doctor)
    outer, inner = (_automaton(space, q, rng, symmetrize, names) for _ in range(2))
    try:
        combined = compose(outer, inner)
    except (InputError, BoundError):
        combined = _automaton(space, q, rng, symmetrize, names)
    combined = _flipped(combined, rng, entries)
    got = outcome(composition_difference, combined, outer, inner)
    assert got == outcome(table_composition_difference, combined, outer, inner)


@settings(deadline=None)
@given(**CASES)
def test_determination_gives_the_table_paths_verdict(case, seed, symmetrize, names, doctor):
    name, q = case
    ca = _automaton(_space(name, doctor), q, random.Random(seed), symmetrize, names)
    gm = GlobalMap.from_automaton(ca)
    with mock.patch.object(laws, "check_equivariance", wraps=check_equivariance) as on_tables:
        verdict = outcome(check_determination, ca)
    on_tables.assert_not_called()
    assert verdict == outcome(table_determination, ca, gm)
    assert outcome(laws.check_step_equivariance, ca) == outcome(check_equivariance, gm)


def test_the_checks_see_differences_and_their_absence():
    # the comparisons above are only as good as their mix of verdicts
    seen = {"step": set(), "composition": set(), "coordinates": set()}
    for name, q in IN_BOUND:
        for seed in range(4):
            rng = random.Random(seed)
            ca = _automaton(SPACES[name], q, rng, True, 2)
            seen["step"].add(step_difference(ca, _flipped(ca, rng, seed % 2)) is None)
            combined = _flipped(compose(ca, ca), rng, seed % 2)
            seen["composition"].add(composition_difference(combined, ca, ca) is None)
    for doctor in range(8):
        for seed in range(3):
            ca = _automaton(_space("cube", doctor), 2, random.Random(seed), True, 2)
            suite = outcome(cli._suite_coordinate_independence, ca, None, 0)
            if isinstance(suite, dict):
                seen["coordinates"].add(suite["verdicts"][0]["ok"])
    assert all(kinds == {True, False} for kinds in seen.values()), seen


@pytest.mark.parametrize("seed", range(40))
def test_flipped_torus_entries_give_the_tables_witness(seed):
    # every torus cell places its reads alike, so one search serves them
    # all; with several differing patterns the smallest is found in each
    # cell's own code order, which differs where a window wraps the edge
    rng = random.Random(seed)
    ca = random_rule_automaton(TORUS, torus_neighborhood(TORUS), 2, rng, seed % 2 == 0)
    other = _flipped(ca, rng, 2 + seed % 4)
    witness = step_difference(ca, other)
    assert witness == table_difference(global_table(other), global_table(ca), ca)
    assert step(ca, witness) != step(other, witness)


def brute_difference(q, cells, maps):
    """The smallest configuration on which two maps given as (reads,
    rule) differ, by stepping every configuration."""
    configs = np.arange(q**cells)[:, None] // q ** np.arange(cells) % q
    (reads_a, rule_a), (reads_b, rule_b) = maps
    images = [rule[configs[:, reads] @ q ** np.arange(reads.shape[1])] for reads, rule in maps]
    differ = np.flatnonzero((images[0] != images[1]).any(axis=1))
    return list(decode(int(differ[0]), q, cells)) if differ.size else None


@settings(deadline=None)
@given(cells=st.integers(1, 7), q=st.integers(2, 3), seed=st.integers(0, 2**16))
@example(cells=5, q=2, seed=7)
def test_the_kernel_gives_the_brute_force_witness(cells, q, seed):
    # reads are translates of offsets around a cycle, so every cell shares
    # a placement and the windows of the last cells wrap, or any cells
    rng = random.Random(seed)
    translated = rng.random() < 0.7
    maps = []
    for _ in range(2):
        width = rng.randint(0, 3)
        if translated:
            offsets = [rng.randrange(cells) for _ in range(width)]
            reads = (np.arange(cells)[:, None] + np.array(offsets, dtype=np.int64)) % cells
        else:
            reads = np.array([[rng.randrange(cells) for _ in range(width)] for _ in range(cells)], dtype=np.int64)
        maps.append((reads.reshape(cells, width), np.array([rng.randrange(q) for _ in range(q**width)])))
    if maps[0][0].shape == maps[1][0].shape and rng.random() < 0.5:
        # the same reads with a few entries of the rule moved
        rule = maps[0][1].copy()
        for code in rng.sample(range(len(rule)), min(3, len(rule))):
            rule[code] = (rule[code] + 1) % q
        maps[1] = (maps[0][0], rule)
    (reads_a, rule_a), (reads_b, rule_b) = maps

    def evaluate(size, places_a, places_b):
        return rule_a[pattern_codes(q, size, places_a)], rule_b[pattern_codes(q, size, places_b)]

    assert laws.window_difference(q, reads_a, reads_b, evaluate) == brute_difference(q, cells, maps)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_rules_that_read_no_cell(states):
    space = SPACES["cyclic4"]
    same = SemiCellularAutomaton(space, states, (), (states - 1,))
    assert step_difference(same, same) is None
    if states > 1:
        other = SemiCellularAutomaton(space, states, (), (0,))
        assert step_difference(same, other) == [0, 0, 0, 0] == table_difference(
            global_table(other), global_table(same), same
        )
        assert composition_difference(other, same, same) == [0, 0, 0, 0]


# ---------------------------------------------- chl and determination


def _scope(space, rng):
    """A symmetry scope for --subgroup: the subgroup that the coordinates
    and a few random elements generate."""
    mul = np.asarray(space.group.mul)
    members = np.unique(list(space.coords) + [rng.randrange(space.group.order) for _ in range(rng.randint(0, 2))])
    while True:
        grown = np.unique(np.concatenate([members, mul[np.ix_(members, members)].ravel()]))
        if len(grown) == len(members):
            return Subgroup(space.group, tuple(grown.tolist()))
        members = grown


def _rule_suites_match_the_tables(ca, sub, seed):
    for window_path, table_path in (
        (cli._suite_chl, table_chl),
        (cli._suite_determination, table_determination_suite),
    ):
        assert outcome(window_path, ca, sub, seed) == outcome(table_path, ca, sub, seed)


@settings(deadline=None)
@given(**CASES, scoped=st.booleans(), collapse=st.booleans())
@example(case=("torus", 2), seed=0, symmetrize=True, names=2, doctor=None, scoped=False, collapse=False)
@example(case=("cube", 3), seed=5, symmetrize=False, names=2, doctor=1, scoped=True, collapse=True)
def test_chl_and_determination_give_the_table_paths_reports(case, seed, symmetrize, names, doctor, scoped, collapse):
    name, q = case
    rng = random.Random(seed)
    space = _space(name, doctor, collapse)
    ca = _automaton(space, q, rng, symmetrize, names)
    sub = _scope(space, rng) if scoped else None
    _rule_suites_match_the_tables(ca, sub, seed)
    gm = GlobalMap.from_automaton(ca)
    assert laws.origin_dependencies(ca) == np.flatnonzero(laws.dependency_matrix(gm)[space.origin]).tolist()


FIXTURE_AUTOMATA = sorted(
    path.name for path in FIXTURES.glob("*.json") if detect_kind(json.loads(path.read_text())) == "automaton"
)


@pytest.mark.parametrize("automaton", FIXTURE_AUTOMATA)
def test_chl_and_determination_on_the_fixtures_give_the_table_paths_reports(automaton):
    ca = load_automaton(str(FIXTURES / automaton), auto_close=True)
    for sub in (None, Subgroup.whole(ca.space.group), _scope(ca.space, random.Random(automaton))):
        _rule_suites_match_the_tables(ca, sub, 0)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_chl_and_determination_on_one_state_give_the_table_paths_reports(name):
    space = SPACES[name]
    for names in (1, 2):
        ca = _automaton(space, 1, random.Random(names), True, names)
        _rule_suites_match_the_tables(ca, None, 0)
        assert cli._suite_chl(ca, None, 0)["verdicts"][0]["witness"]["neighborhood"] == []


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_chl_and_determination_on_one_cell_give_the_table_paths_reports(q, seed):
    # the one shift is the identity, so even the perturbed map is equivariant
    ca = random_rule_automaton(cyclic_space(1), (0,), q, random.Random(seed), seed % 2 == 0)
    _rule_suites_match_the_tables(ca, None, 0)
    perturbed = cli._suite_determination(ca, None, 0)["verdicts"][1]["witness"]
    assert perturbed["equivariant"] and not perturbed["origin_matching"]


def test_the_rule_suites_see_both_verdicts():
    # the comparisons above are only as good as their mix of outcomes
    seen = {"chl": set(), "equivariant": set(), "dependencies": set()}
    for name, q in IN_BOUND:
        for seed in range(4):
            rng = random.Random(seed)
            ca = _automaton(SPACES[name], q, rng, seed % 2 == 0, 2)
            seen["chl"].add(cli._suite_chl(ca, None, 0)["verdicts"][0]["law"])
            window = set(ca.neighbor_cells[ca.space.origin].tolist())
            seen["dependencies"].add(set(laws.origin_dependencies(ca)) == window)
            seen["equivariant"].add(check_determination(ca).witness["equivariant"])
    assert seen["chl"] == {"extraction-roundtrip", "extraction-equivariance"}
    assert all(kinds == {True, False} for name, kinds in seen.items() if name != "chl"), seen


def test_an_extraction_that_fails_the_round_trip_raises_as_the_tables_do():
    # the square with the origin's entries of rows 1 and 3 moved: the
    # stabilizer shrinks to the identity, so eight names fall on four
    # cells.  The OR of two names steps equivariantly, but the automaton
    # read off the origin does not reproduce it, and the table is no action
    space = SPACES["square"]
    act = [list(r) for r in space.action.act]
    for g in (1, 3):
        act[g][0], act[g][2] = act[g][2], act[g][0]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    moved = CellSpace(CoordinateSystem(action, space.origin, space.coords))
    ca = SemiCellularAutomaton(moved, 2, (2, 3), (0, 1, 1, 1))
    assert laws.check_step_equivariance(ca).ok
    got = outcome(cli._suite_chl, ca, None, 0)
    assert got == outcome(table_chl, ca, None, 0)
    assert got.startswith("LawError: law action-compatibility fails")


def test_chl_on_moved_origin_entries_gives_the_table_paths_report():
    # the square with the origin's entry of one or two rows swapped with
    # another cell's: tables that are no actions, whose names can fall on
    # one cell at the origin, where extract packs a probe's digits into its
    # code and extract_step writes them into the probe.  On every automaton
    # of 2 states and at most two names the report, or the error, must be
    # the table path's, with refusals and round trips both seen
    space = SPACES["square"]
    rows = [g for g in space.group.elements() if g != space.group.identity]
    refused = passed = 0
    for moved in [(g,) for g in rows] + [(g, h) for g in rows for h in rows if g < h]:
        for x in [m for m in range(space.cells) if m != space.origin]:
            act = [list(r) for r in space.action.act]
            for g in moved:
                act[g][space.origin], act[g][x] = act[g][x], act[g][space.origin]
            action = LeftAction(space.group, space.cells, tuple(map(tuple, act)))
            try:
                doctored = CellSpace(CoordinateSystem(action, space.origin, space.coords))
            except (InputError, LawError):
                continue
            for names in [(i, j) for i in range(doctored.num_cosets) for j in range(i)]:
                neighborhood = closed_neighborhood(doctored, names)
                if len(neighborhood) > 2:
                    continue
                for code in range(16):
                    ca = SemiCellularAutomaton(doctored, 2, neighborhood, decode(code, 2, 4))
                    got = outcome(cli._suite_chl, ca, None, 0)
                    assert got == outcome(table_chl, ca, None, 0), (moved, x, names, code)
                    refused += isinstance(got, str)
                    passed += not isinstance(got, str) and got["verdicts"][0]["law"] == "extraction-roundtrip"
    assert refused and passed


# ---------------------------------------------------- without the tables


# the bundled automata whose rules are rotation-invariant
INVARIANT = (
    "cube_identity",
    "cube_or",
    "cyclic4_identity",
    "cyclic4_or",
    "cyclic4_shift",
    "square_identity",
    "square_or",
    "torus_identity",
    "torus_or",
)


@pytest.mark.parametrize("automaton", INVARIANT)
def test_inside_the_bound_the_checks_build_no_table(capsys, monkeypatch, automaton):
    def refuse(ca):
        raise AssertionError("a global table was built")

    for module in (laws, cli):
        if hasattr(module, "global_table"):
            monkeypatch.setattr(module, "global_table", refuse)
    monkeypatch.chdir(FIXTURES)
    path = f"{automaton}.json"
    for argv in (
        ["laws", path, "--suite", "coordinate-independence"],
        ["laws", path, "--suite", "composition"],
        ["laws", path, "--suite", "chl"],
        ["laws", path, "--suite", "determination"],
        ["compose", path, path],
    ):
        assert cli.main(argv) == cli.EXIT_PASS, argv
        out = capsys.readouterr().out
        assert '"ok": false' not in out and "bound_exceeded" not in out


# ---------------------------------------------------- past the table bound


def _torus3(seed, symmetrize=True):
    ca = random_rule_automaton(TORUS, torus_neighborhood(TORUS), 3, random.Random(seed), symmetrize)
    assert config_count(TORUS, 3) > CONFIG_TABLE_BOUND
    return ca


def _recheck(witness, one, other_steps):
    """`one`'s step and its step through the origin give the witness one
    image, and `other_steps` gives it another."""
    image = step(one, witness)
    assert step_via_origin(one, witness) == image
    assert image != other_steps(witness)


@pytest.mark.parametrize("seed", range(6))
def test_past_the_bound_step_witnesses_restep(seed):
    rng = random.Random(seed)
    ca = _torus3(seed, symmetrize=seed % 2 == 0)
    other = _flipped(ca, rng, 1 + seed)
    witness = step_difference(ca, other)
    _recheck(witness, other, lambda config: step_via_origin(ca, config))
    _recheck(witness, ca, lambda config: step(other, config))


@pytest.mark.parametrize("seed", range(2))
def test_past_the_bound_composition_witnesses_restep(seed):
    rng = random.Random(seed)
    ca = _torus3(seed)
    combined = compose(ca, ca)
    assert composition_difference(combined, ca, ca) is None
    wrong = _flipped(combined, rng, 1 + seed)
    witness = composition_difference(wrong, ca, ca)
    _recheck(witness, wrong, lambda config: step_via_origin(ca, step_via_origin(ca, config)))
    # and at random configurations, the right combined rule agrees
    for _ in range(20):
        config = [rng.randrange(3) for _ in range(TORUS.cells)]
        assert step(combined, config) == step_via_origin(ca, step_via_origin(ca, config))


@pytest.mark.parametrize("seed", range(3))
def test_past_the_bound_moved_coordinates_step_alike(seed):
    ca = _torus3(seed)
    rng = random.Random(seed)
    suite = cli._suite_coordinate_independence(ca, None, seed)
    [verdict] = suite["verdicts"]
    assert verdict["ok"] and len(verdict["witness"]["systems"]) == 5
    variants = coordinate_system_variants(TORUS.action, 6, seed)
    for system in verdict["witness"]["systems"]:
        variant = next(s for s in variants if {"origin": s.origin, "coords": list(s.coords)} == system)
        moved = change_coordinates(ca, variant, transporter(TORUS.action, TORUS.origin, variant.origin)[0])
        for _ in range(10):
            config = [rng.randrange(3) for _ in range(TORUS.cells)]
            assert step_via_origin(moved, config) == step(ca, config)


def test_an_identity_past_int64_codes_composes_exactly():
    # 2**64 configurations: no code of one fits int64, the windows read one cell
    ca = identity_automaton(cyclic_space(64), 2)
    assert composition_difference(compose(ca, ca), ca, ca) is None
    wrong = SemiCellularAutomaton(ca.space, 2, ca.neighborhood, (1, 1))
    witness = composition_difference(wrong, ca, ca)
    assert witness == [0] * 64
    _recheck(witness, wrong, lambda config: step_via_origin(ca, step_via_origin(ca, config)))


@pytest.mark.parametrize("seed", range(3))
def test_past_the_bound_the_recovered_automaton_steps_as_the_input(seed):
    ca = _torus3(seed)
    rng = random.Random(seed)
    [verdict] = cli._suite_chl(ca, None, seed)["verdicts"]
    assert (verdict["law"], verdict["ok"]) == ("extraction-roundtrip", True)
    recovered = laws.extract_step(ca)
    assert [TORUS.coset_reps[j] for j in recovered.neighborhood] == verdict["witness"]["neighborhood"]
    for _ in range(20):
        config = [rng.randrange(3) for _ in range(TORUS.cells)]
        assert step_via_origin(recovered, config) == step(ca, config)


@pytest.mark.parametrize("seed", range(3))
def test_past_the_bound_chl_equivariance_witnesses_restep(seed):
    ca = _torus3(seed, symmetrize=False)
    [verdict] = cli._suite_chl(ca, None, seed)["verdicts"]
    assert (verdict["law"], verdict["ok"]) == ("extraction-equivariance", False)
    w = verdict["witness"]
    assert shift(TORUS, w["element"], step_via_origin(ca, w["config"])) == tuple(w["map_then_shift"])
    assert step_via_origin(ca, shift(TORUS, w["element"], w["config"])) == tuple(w["shift_then_map"])
    assert w["map_then_shift"] != w["shift_then_map"]


@pytest.mark.parametrize("symmetrize", [True, False])
def test_past_the_bound_determination_is_exact(symmetrize):
    ca = _torus3(4, symmetrize)
    own, perturbed = cli._suite_determination(ca, None, 0)["verdicts"]
    assert own["ok"] and perturbed["ok"]
    assert own["witness"]["rule_invariant"] == own["witness"]["equivariant"] == symmetrize
    assert own["witness"]["tables_equal"] and "origin_witness" not in own["witness"]
    # the perturbed image of configuration 0, moved at the origin, which a
    # shift carrying the origin elsewhere moves
    zero = step_via_origin(ca, [0] * TORUS.cells)
    image = list(zero)
    image[TORUS.origin] = (image[TORUS.origin] + 1) % 3
    assert shift(TORUS, TORUS.coords[1], image) != tuple(image)
    assert perturbed["witness"] == {
        "rule_invariant_and_equal": False,
        "equivariant_and_origin_matching": False,
        "rule_invariant": symmetrize,
        "tables_equal": False,
        "equivariant": False,
        "origin_matching": False,
        "origin_witness": {
            "config": [0] * TORUS.cells,
            "map_origin_value": image[TORUS.origin],
            "rule_origin_value": zero[TORUS.origin],
        },
    }
