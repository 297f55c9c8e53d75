"""Facts decided once per op, against the forms that decided them again.

* `is_cellular` keeps its verdict on the automaton, by the scope's
  members: each verdict, in any order of scopes, is a fresh automaton's.
  The rule array it is read from is read-only.
* `coordinate_system_variants` returns once the per-origin defaults
  reach `count`: against the full loop, kept verbatim (`full_variants`).
* `check_step_equivariance` searches every generator's rows at once
  first: against the generator-by-generator loop, kept verbatim
  (`generator_loop_equivariance`).
* `check_uniform_continuity` reads each source's label halves: against
  the relation matrices of `relation_oracles` and the full labelings it
  read before (`labeling_continuity`, verbatim), with doctored
  dependency matrices written into the map's memo.
* a `GlobalMap` keeps its dependency matrix, inverse and continuity, so
  the `uniformity` suite, `invert` and `check_uniform_isomorphism` share
  them: against the isomorphism and the suite as they were, unaided, on
  fresh maps and with `table_inverse` called directly
  (`unaided_isomorphism`, `unaided_suite`), and with each fact decided at
  most once per map in every op that reads one.
* a step's `GlobalMap` keeps `invert`'s outcome by scope, so an op that
  inverts twice builds each step table once and extracts once: against
  `invert` on a fresh automaton.
"""

import functools
import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homoca.automata as automata_module
import homoca.cli as cli
import homoca.laws as laws
import homoca.uniformity as uniformity
from homoca.automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    generator_indices,
    is_cellular,
    step_batch,
    subgroup_or_whole,
)
from homoca.catalog import (
    bundled_spaces,
    coordinate_system_variants,
    group_from_permutations,
    random_rule_automaton,
)
from homoca.cellspace import CellSpace, CoordinateSystem, build_coordinate_system
from homoca.encoding import pattern_codes
from homoca.errors import BoundError, InputError
from homoca.groups import LeftAction, Subgroup
from homoca.laws import (
    GlobalMap,
    NotInvertible,
    check_step_equivariance,
    dependency_matrix,
    global_table,
    invert,
    inverse_map,
    shift_cells,
    spread_images,
    table_inverse,
    window_difference,
)
from homoca.serialize import detect_kind, load_automaton
from homoca.uniformity import (
    ContinuityResult,
    agreement_relation,
    check_agreement_intersection,
    check_continuity_window,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
    continuity_assignments,
    prodiscrete_base,
)
from homoca.verdict import Verdict
from plain_forms import with_dependencies
from relation_oracles import pushforward_continuity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
S5_ACTION = group_from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
SPACES = {**bundled_spaces(), "s5": CellSpace.default(S5_ACTION)}
# the spaces whose 2-state configurations fit a table; relation matrices
# are built on at most MATRIX_CELLS cells
TABLED = ("cyclic4", "square", "cube", "torus")
MATRIX_CELLS = 6


def _fixture_automata() -> dict:
    found = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if detect_kind(json.loads(path.read_text())) == "automaton":
            try:
                found[path.stem] = load_automaton(str(path))
            except Exception:  # noqa: BLE001 - fixtures that refuse to load are others' cases
                continue
    return found


FIXTURE_AUTOMATA = _fixture_automata()


@functools.cache
def _proper_scope(name):
    """A proper subgroup, generated by at most two elements, that still
    carries the origin to every cell, and the space re-coordinatized
    inside it; None when the group has no such subgroup."""
    space = SPACES[name]
    group, act, origin = space.group, space.action.act, space.origin
    for a in group.elements():
        for b in range(a, group.order):
            members = {group.identity}
            frontier = [group.identity]
            while frontier:
                frontier = [int(group.mul[e][g]) for e in frontier for g in (a, b)]
                frontier = [e for e in set(frontier) if e not in members]
                members.update(frontier)
            if len(members) == group.order or {int(act[h][origin]) for h in members} != set(range(space.cells)):
                continue
            coords = tuple(
                group.identity if m == origin else min(h for h in members if act[h][origin] == m)
                for m in range(space.cells)
            )
            return CellSpace(CoordinateSystem(space.action, origin, coords)), Subgroup(group, tuple(members))
    return None


def _fresh(ca):
    return SemiCellularAutomaton(ca.space, ca.states, ca.neighborhood, ca.rule)


def _random_automaton(space, q, rng, symmetrize, names, subgroup=None):
    picked = rng.sample(range(space.num_cosets), min(names, space.num_cosets))
    return random_rule_automaton(space, closed_neighborhood(space, picked), q, rng, symmetrize, subgroup)


# ------------------------------------------------- kept rotation verdicts


def test_the_rule_array_is_read_only(automata):
    ca = automata["square_or"]
    with pytest.raises(ValueError):
        ca.rule_array[0] = 1
    with pytest.raises(ValueError):
        ca.kernel[0][:] = 0
    assert ca.rule_array.tolist() == list(ca.rule)


def _space_name(space):
    return next(name for name, known in SPACES.items() if known.action == space.action)


@pytest.mark.parametrize("name", sorted(FIXTURE_AUTOMATA))
def test_kept_verdicts_on_fixtures_are_fresh_ones(name):
    """The fixture, over the whole group, and the same rule on the space
    re-coordinatized in a proper scope, over both."""
    ca = FIXTURE_AUTOMATA[name]
    cases = [(_fresh(ca), [None, Subgroup.whole(ca.space.group)])]
    scoped = _proper_scope(_space_name(ca.space))
    if scoped:
        space, scope = scoped
        moved = SemiCellularAutomaton(space, ca.states, ca.neighborhood, ca.rule)
        cases.append((moved, [scope, None, scope, Subgroup.whole(space.group)]))
    for kept_on, scopes in cases:
        for sub in scopes + scopes[::-1]:
            kept = is_cellular(kept_on, sub)
            assert is_cellular(kept_on, sub) is kept
            assert kept == is_cellular(_fresh(kept_on), sub)


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    q=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    symmetrize=st.sampled_from(["no", "whole", "scope"]),
    order=st.permutations(["whole", "none", "scope", "scope", "none"]),
)
@example(name="torus", q=2, seed=0, symmetrize="scope", order=["scope", "whole", "none", "scope", "none"])
@example(name="s5", q=2, seed=1, symmetrize="scope", order=["none", "scope", "whole", "scope", "none"])
def test_kept_verdicts_in_any_order_of_scopes_are_fresh_ones(name, q, seed, symmetrize, order):
    rng = random.Random(seed)
    found = _proper_scope(name)
    space, scope = found if found else (SPACES[name], None)
    ca = _random_automaton(space, q, rng, symmetrize != "no", 2 if q == 2 else 1, scope if symmetrize == "scope" else None)
    scopes = {"none": None, "whole": Subgroup.whole(space.group), "scope": scope}
    for key in order:
        kept = is_cellular(ca, scopes[key])
        assert kept == is_cellular(_fresh(ca), scopes[key])
    # None and the whole group are one scope, so one verdict
    assert is_cellular(ca) is is_cellular(ca, scopes["whole"])


def test_a_scope_and_the_whole_group_keep_their_own_verdicts():
    space, scope = _proper_scope("s5")
    rng = random.Random(3)
    names = tuple(range(space.num_cosets))
    ca = SemiCellularAutomaton(space, 2, names, [rng.randrange(2) for _ in range(2 ** len(names))])
    for _ in range(2):
        assert is_cellular(ca, scope).ok and not is_cellular(ca).ok
    assert is_cellular(_fresh(ca), scope).ok and not is_cellular(_fresh(ca)).ok
    assert len(ca._cellular) == 2


def test_a_kept_verdict_still_refuses_a_foreign_scope(automata):
    ca = automata["square_or"]
    assert is_cellular(ca).ok
    other = automata["cube_or"].space.group
    with pytest.raises(InputError, match="different group"):
        is_cellular(ca, Subgroup.whole(other))


def test_the_precondition_and_every_variant_decide_invariance_once(automata):
    ca = _fresh(automata["torus_or"])
    with mock.patch("homoca.automata._rotation_verdict", wraps=automata_module._rotation_verdict) as decide:
        for suite in cli.SUITES:
            cli._run_suite(suite, ca, None, 0)
    # the combined rule of the composition suite is another automaton's
    assert [call.args[0] for call in decide.call_args_list].count(ca) == 1


# ------------------------------------------------ coordinate system variants


def full_variants(action, count, seed=0):
    """coordinate_system_variants as it was, building every origin's
    default before it looks at count; kept verbatim."""
    rng = random.Random(seed)
    variants = []
    seen = set()

    def push(system):
        key = (system.origin, system.coords)
        if key not in seen:
            seen.add(key)
            variants.append(system)

    transporters = {}
    for origin in range(action.points):
        push(build_coordinate_system(action, origin))
        # the elements carrying origin to each point, in increasing order
        column = action.act[:, origin]
        by_point = np.argsort(column, kind="stable")
        bounds = np.searchsorted(column[by_point], np.arange(action.points + 1))
        for m in range(action.points):
            transporters[origin, m] = tuple(by_point[bounds[m] : bounds[m + 1]].tolist())

    total_available = sum(_count_systems(action, origin, transporters) for origin in range(action.points))
    attempts = 0
    while len(variants) < min(count, total_available) and attempts < 10000:
        attempts += 1
        origin = rng.randrange(action.points)
        coords = []
        for m in range(action.points):
            if m == origin:
                coords.append(action.group.identity)
            else:
                coords.append(rng.choice(transporters[origin, m]))
        push(CoordinateSystem(action, origin, tuple(coords)))
    return variants[:count]


def _count_systems(action, origin, transporters):
    total = 1
    for m in range(action.points):
        if m != origin:
            total *= len(transporters[origin, m])
    return total


@pytest.mark.parametrize("name", sorted(SPACES))
def test_variants_stop_at_their_count_as_the_full_loop_would(name):
    action = SPACES[name].action
    for seed in range(21):
        for count in range(0, 9):
            assert coordinate_system_variants(action, count, seed) == full_variants(action, count, seed)


def test_the_defaults_alone_serve_the_suites_count_on_the_torus():
    action = SPACES["torus"].action
    with mock.patch("homoca.catalog.build_coordinate_system", wraps=build_coordinate_system) as build:
        got = coordinate_system_variants(action, 6, 11)
    assert build.call_count == 6
    assert got == [build_coordinate_system(action, origin) for origin in range(6)]


# ------------------------------------------------ step equivariance, jointly


def generator_loop_equivariance(ca, subgroup=None):
    """check_step_equivariance as it was, one window search per generator;
    kept verbatim."""
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
            return laws._equivariance_failure(sub.members[k], witness, image[s].tolist(), shifted_image.tolist())
    return Verdict.passing("shift-equivariance")


def _doctored(space, row):
    """The space with two entries of one row of its action table swapped,
    away from the origin and its preimage: no longer an action."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][a], act[row][b] = act[row][b], act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


def _outcome(check, *args):
    try:
        return check(*args)
    except (BoundError, InputError) as e:
        return f"{type(e).__name__}: {e}"


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    q=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    scoped=st.booleans(),
    doctor=st.one_of(st.none(), st.integers(0, 63)),
)
@example(name="torus", q=2, seed=0, symmetrize=True, scoped=False, doctor=None)
@example(name="cube", q=3, seed=2, symmetrize=False, scoped=False, doctor=5)
def test_the_joint_search_gives_the_generator_loops_verdict(name, q, seed, symmetrize, scoped, doctor):
    rng = random.Random(seed)
    space, scope = SPACES[name], None
    if scoped and _proper_scope(name):
        space, scope = _proper_scope(name)
    rows = [g for g in space.group.elements() if g not in space.coords]
    if doctor is not None and rows:
        space = _doctored(space, rows[doctor % len(rows)])
    ca = _random_automaton(space, q, rng, symmetrize and doctor is None, 2 if q == 2 else 1)
    assert _outcome(check_step_equivariance, ca, scope) == _outcome(generator_loop_equivariance, ca, scope)


@pytest.mark.parametrize("name", sorted(FIXTURE_AUTOMATA))
def test_a_joint_search_past_the_bound_falls_back_to_the_generator_loop(name):
    """A window past the bound in the joint search hands the decision to
    the generators one by one, which report an earlier generator's
    difference, or the BoundError, as they did."""
    ca = FIXTURE_AUTOMATA[name]
    cells = ca.space.cells
    original = laws.window_search

    def refuse_joint(states, reads_a, reads_b, evaluate):
        if len(reads_a) > cells:
            raise BoundError("joint windows refused")
        return original(states, reads_a, reads_b, evaluate)

    expected = generator_loop_equivariance(ca)
    with mock.patch("homoca.laws.window_search", side_effect=refuse_joint) as searched:
        assert check_step_equivariance(ca) == expected
    generators = len(generator_indices(shift_cells(ca.space, ca.space.group.elements())))
    # the joint search, refused when it spans more than one generator, then
    # one per generator up to the first that fails
    if generators > 1:
        assert 2 <= searched.call_count <= 1 + generators
        assert searched.call_count == 1 + generators or not expected.ok


# ------------------------------------------------- continuity and isomorphism


def labeling_continuity(gm, depends):
    """check_uniform_continuity as it was, building each source's whole
    labeling to read its entries at lo = 0 and hi = 0; kept verbatim, but
    for the sources, which are read off the rows of `depends` here and
    not off any map's memo."""
    space = gm.space
    targets = tuple(((m,), tuple(np.flatnonzero(depends[m]).tolist())) for m in range(space.cells))
    spread, bits = spread_images(gm)
    width = gm.states ** (space.cells // 2)
    rows = spread.reshape(-1, width)
    columns = np.ascontiguousarray(rows.T)
    for m, (cells, source) in enumerate(targets):
        labels = agreement_relation(space, gm.states, source)
        moved = np.bitwise_or.reduce(rows.take(labels[::width] // width, axis=0) ^ rows, axis=None)
        moved |= np.bitwise_or.reduce(columns.take(labels[:width], axis=0) ^ columns, axis=None)
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


def fresh_dependencies(gm):
    """gm's dependency matrix, found on a fresh map: never a memo's."""
    return laws._dependencies(GlobalMap(gm.space, gm.states, gm.table))


def unaided_isomorphism(gm, depends=None):
    """check_uniform_isomorphism as it was called unaided: the inverse is
    table_inverse's, called here, and both directions are checked by
    `labeling_continuity` on fresh dependency matrices, the forward one on
    `depends` when given."""
    inverse = table_inverse(gm.table)
    if isinstance(inverse, tuple):
        return Verdict.failing(
            "uniform-isomorphism",
            {"reason": "not injective", "colliding_codes": list(inverse[1:])},
        )
    forward = labeling_continuity(gm, fresh_dependencies(gm) if depends is None else depends)
    results = {"forward": forward}
    if forward.verdict.ok:
        inverse_gm = GlobalMap(gm.space, gm.states, inverse)
        results["inverse"] = labeling_continuity(inverse_gm, fresh_dependencies(inverse_gm))
    witness = {}
    for name, result in results.items():
        if not result.verdict.ok:
            return Verdict.failing(
                "uniform-isomorphism",
                {"reason": f"{name} direction not uniformly continuous", "detail": result.verdict.witness},
            )
        witness[f"{name}_sources"] = [list(l) for _, l in result.assignments]
    return Verdict.passing("uniform-isomorphism", witness)


def unaided_suite(ca, sub, seed):
    """The uniformity suite as it was, with the isomorphism checked
    unaided on a fresh map of the step's table; kept verbatim otherwise."""
    space = ca.space
    gm = GlobalMap(space, ca.states, global_table(ca))
    base = prodiscrete_base(space, ca.states)
    continuity = check_uniform_continuity(gm)
    verdicts = [
        check_uniformity_base(base),
        check_agreement_intersection(base),
        continuity.verdict,
        check_continuity_window(space, ca.neighborhood, continuity.assignments),
    ]
    if is_cellular(ca, sub).ok:
        iso = unaided_isomorphism(gm)
        result = invert(ca, sub, seed=seed)
        invertible = not isinstance(result, NotInvertible)
        verdicts.append(
            Verdict(
                iso.ok == invertible,
                "isomorphism-matches-invertibility",
                {"uniform_isomorphism": iso.ok, "invertible": invertible},
            )
        )
    return {"verdicts": [v.as_dict() for v in verdicts]}


def _dropped(depends, rng):
    """depends with a few random entries cleared, or as it is."""
    doctored = depends.copy()
    on = np.argwhere(doctored)
    for i in rng.sample(range(len(on)), min(len(on), rng.randint(0, 2))):
        doctored[tuple(on[i])] = False
    return doctored


def _continuity_agrees(gm, depends):
    """The half labels, with `depends` in the map's memo, against the full
    labelings, and against the relation matrices on small spaces."""
    given = with_dependencies(gm, depends)
    got = check_uniform_continuity(given)
    assert got == labeling_continuity(gm, depends)
    if gm.space.cells <= MATRIX_CELLS and gm.states**gm.space.cells <= 256:
        assigned = continuity_assignments(given, [(m,) for m in range(gm.space.cells)])
        assert got == pushforward_continuity(gm, assigned)
    return got


def _isomorphism_agrees(gm):
    """The isomorphism against the unaided one, on fresh maps on gm's
    table with none, some or all of its facts decided before it: the
    inverse, as `invert` decides it, and the forward continuity, as the
    suite does."""
    unaided = unaided_isomorphism(gm)
    for decided in ((), (inverse_map,), (check_uniform_continuity,), (inverse_map, check_uniform_continuity)):
        fresh = GlobalMap(gm.space, gm.states, gm.table)
        for decide in decided:
            decide(fresh)
        assert check_uniform_isomorphism(fresh) == unaided
        assert check_uniform_isomorphism(fresh) == unaided
    return unaided


@pytest.mark.parametrize("name", sorted(FIXTURE_AUTOMATA))
def test_the_rewired_suite_is_the_unaided_suite_on_fixtures(name):
    ca = FIXTURE_AUTOMATA[name]
    gm = GlobalMap.from_automaton(ca)
    _continuity_agrees(gm, fresh_dependencies(gm))
    unaided = _isomorphism_agrees(gm)
    for seed in (0, 3):
        suite = cli._suite_uniformity(_fresh(ca), None, seed)
        assert suite == unaided_suite(_fresh(ca), None, seed)
        if is_cellular(ca).ok:
            assert suite["verdicts"][-1]["witness"]["uniform_isomorphism"] == unaided.ok


@settings(deadline=None)
@given(
    name=st.sampled_from(TABLED),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    scoped=st.booleans(),
    permuted=st.booleans(),
)
@example(name="torus", seed=0, symmetrize=True, scoped=False, permuted=True)
@example(name="cube", seed=4, symmetrize=True, scoped=True, permuted=True)
def test_the_rewired_suite_is_the_unaided_suite_on_random_rules(name, seed, symmetrize, scoped, permuted):
    """Random rules, and, since those are rarely invertible, rules that
    permute the states of one name, which always are."""
    rng = random.Random(seed)
    space, scope = SPACES[name], None
    if scoped and _proper_scope(name):
        space, scope = _proper_scope(name)
    q = 2 if name == "torus" else rng.randint(2, 3 if space.cells <= 4 else 2)
    if permuted:
        states = list(range(q))
        rng.shuffle(states)
        names = closed_neighborhood(space, [rng.randrange(space.num_cosets)])
        if len(names) > 1:
            names = closed_neighborhood(space, [space.coset_index(space.group.identity)])
        ca = SemiCellularAutomaton(space, q, names, states)
    else:
        ca = _random_automaton(space, q, rng, symmetrize, 1 + seed % 2, scope if symmetrize else None)
    assert cli._suite_uniformity(_fresh(ca), scope, seed) == unaided_suite(_fresh(ca), scope, seed)
    gm = GlobalMap.from_automaton(ca)
    depends = fresh_dependencies(gm)
    _continuity_agrees(gm, depends)
    _isomorphism_agrees(gm)
    _continuity_agrees(gm, _dropped(depends, rng))


@settings(deadline=None)
@given(name=st.sampled_from(TABLED), seed=st.integers(0, 2**16), bijective=st.booleans())
@example(name="torus", seed=0, bijective=True)
@example(name="cyclic4", seed=1, bijective=False)
def test_half_labels_and_the_memo_agree_on_random_tables(name, seed, bijective):
    rng = random.Random(seed)
    space = SPACES[name]
    q = 2 if space.cells > 4 else rng.randint(2, 3)
    total = q**space.cells
    table = np.random.default_rng(seed).permutation(total)
    if not bijective:
        table[rng.randrange(total)] = table[rng.randrange(total)]
    gm = GlobalMap(space, q, table)
    depends = fresh_dependencies(gm)
    _continuity_agrees(gm, depends)
    _continuity_agrees(gm, _dropped(depends, rng))
    _isomorphism_agrees(gm)
    # a forward direction that fails, as the memo holds it, is reported as
    # the unaided check reports it
    doctored = depends.copy()
    doctored[0] = False
    if depends[0].any():
        assert not _continuity_agrees(gm, doctored).verdict.ok
        given = with_dependencies(gm, doctored)
        assert check_uniform_isomorphism(given) == unaided_isomorphism(gm, doctored)


def test_the_suite_reads_the_inverse_invert_decided(automata):
    ca = _fresh(automata["torus_identity"])
    with mock.patch("homoca.laws.table_inverse", wraps=table_inverse) as inverted:
        with mock.patch("homoca.uniformity._continuity", wraps=uniformity._continuity) as continuity:
            suite = cli._suite_uniformity(ca, None, 0)
    assert suite["verdicts"][-1] == Verdict.passing(
        "isomorphism-matches-invertibility", {"uniform_isomorphism": True, "invertible": True}
    ).as_dict()
    # the table is inverted once, and each direction's continuity is checked once
    gm = GlobalMap.from_automaton(ca)
    assert [call.args[0] for call in inverted.call_args_list] == [gm.table]
    assert [call.args[0] for call in continuity.call_args_list] == [gm, inverse_map(gm)]


def test_a_map_is_its_own_memo(automata):
    ca = _fresh(automata["cube_identity"])
    gm = GlobalMap.from_automaton(ca)
    assert GlobalMap.from_automaton(ca) is gm and global_table(ca) is gm.table
    assert dependency_matrix(gm) is dependency_matrix(gm)
    assert inverse_map(gm) is inverse_map(gm)
    assert check_uniform_continuity(gm) is check_uniform_continuity(gm)
    for array in (gm.table, dependency_matrix(gm), inverse_map(gm).table):
        with pytest.raises(ValueError):
            array[0] = 1
    # a map built on a caller's array views it read-only and leaves the
    # caller's flags alone
    table = np.array(gm.table)
    mapped = GlobalMap(ca.space, ca.states, table)
    assert table.flags.writeable and not mapped.table.flags.writeable


OPS = (["laws", "--suite", "uniformity"], ["laws", "--suite", "invertibility"], ["invert"], ["laws"])


@pytest.mark.parametrize("name", sorted(FIXTURE_AUTOMATA))
def test_each_fact_is_decided_at_most_once_per_map_in_an_op(name, capsys):
    """Every op that reads a map's dependency matrix, inverse or
    continuity, on a fixture: the suites alone, `invert`, and all suites
    in one op.  The calls keep their arguments, so no two maps share an
    identity.  A step table is built once per automaton, and the inverse
    is extracted at most once: the `invertibility` and `uniformity`
    suites of one op read one outcome of `invert`."""
    path = str(FIXTURES / f"{name}.json")
    for op in OPS:
        with mock.patch("homoca.laws._dependencies", wraps=laws._dependencies) as depends:
            with mock.patch("homoca.laws.table_inverse", wraps=table_inverse) as inverted:
                with mock.patch("homoca.uniformity._continuity", wraps=uniformity._continuity) as continuity:
                    with mock.patch("homoca.laws._step_table", wraps=laws._step_table) as tabled:
                        with mock.patch("homoca.laws.extract", wraps=laws.extract) as extracted:
                            cli.main(op[:1] + [path] + op[1:])
        for decided in (depends, inverted, continuity, tabled, extracted):
            decided_on = [id(call.args[0]) for call in decided.call_args_list]
            assert len(decided_on) == len(set(decided_on)), (op, decided)
        assert extracted.call_count <= 1, op
        if op == ["laws"]:
            # the uniformity suite decides the step's continuity at least
            assert continuity.call_count >= 1
    capsys.readouterr()


@pytest.mark.parametrize("name", [name for name, ca in sorted(FIXTURE_AUTOMATA.items()) if is_cellular(_fresh(ca)).ok])
def test_invert_keeps_its_outcome_by_scope(name):
    ca = _fresh(FIXTURE_AUTOMATA[name])
    first = invert(ca)
    # no scope and the whole group are one scope, and one outcome
    assert invert(ca, Subgroup.whole(ca.space.group)) is first
    assert list(GlobalMap.from_automaton(ca)._inverted) == [tuple(ca.space.group.elements())]
    unaided = invert(_fresh(ca))
    if isinstance(first, NotInvertible):
        assert first == unaided
    else:
        assert (first.neighborhood, first.rule) == (unaided.neighborhood, unaided.rule)


@pytest.mark.parametrize("name", [name for name in TABLED if _proper_scope(name) is not None])
def test_invert_keeps_one_outcome_per_scope(name):
    # an outcome is kept for the scope it was decided in: a proper scope
    # after the whole group is decided afresh, and each is the fresh one
    space, scope = _proper_scope(name)
    whole = tuple(space.group.elements())
    for seed in range(4):
        ca = _random_automaton(space, 2, random.Random(seed), True, 2)
        first, scoped = invert(ca), invert(ca, scope)
        assert invert(ca) is first and invert(ca, scope) is scoped
        assert sorted(GlobalMap.from_automaton(ca)._inverted) == sorted([whole, scope.members])
        for got, sub in ((first, None), (scoped, scope)):
            unaided = invert(_fresh(ca), sub)
            if isinstance(got, NotInvertible):
                assert got == unaided
            else:
                assert (got.neighborhood, got.rule) == (unaided.neighborhood, unaided.rule)
