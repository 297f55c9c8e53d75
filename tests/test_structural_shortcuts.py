"""The exact structural shortcuts in the exhaustive laws, against slow oracles.

The uniformity checks hold each agreement relation as a labeling; the
relation matrices of `relation_oracles` decide the same verdicts, and
`check_uniform_continuity` must fail where the pushforward of the matrices
does.  `check_equivariance` tests generators of
the scope before scanning all members, `check_step_equivariance` decides
the same on neighbourhood windows without a table, and
`dependency_matrix` finds every dependency set from one OR per source
cell over images spread into bit fields.  In the group layer,
`verify_group` sweeps associativity over magma generators only, a
block of rows at a time (shrunk below to a few rows), and
`Subgroup` and `FiniteGroup.inv` check the table with numpy.  The
oracles below are the plain forms without those shortcuts; full verdicts,
witnesses and error messages included, must agree.
"""

import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homoca.groups as groups
from homoca.automata import SemiCellularAutomaton, closed_neighborhood
from homoca.catalog import bundled_automata, bundled_spaces, cyclic_space, random_rule_automaton
from homoca.cellspace import CellSpace, CoordinateSystem
from homoca.encoding import decode, digit_matrix
from homoca.laws import (
    CONFIG_TABLE_BOUND,
    GlobalMap,
    check_equivariance,
    check_step_equivariance,
    config_count,
    dependency_matrix,
    generator_indices,
    global_table,
    shift_cells,
    shift_code_permutation,
)
from homoca.errors import InputError
from homoca.groups import FiniteGroup, LeftAction, Subgroup, magma_generators, verify_group
from homoca.serialize import load_global_map
from homoca.uniformity import (
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
from relation_oracles import (
    Relation,
    matrix_prodiscrete_base,
    pushforward_continuity,
    scan_agreement_intersection,
    scan_uniformity_base,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPACES = bundled_spaces()
AUTOMATA = bundled_automata()


# ---------------------------------------------------------------- oracles


def member_continuity_assignments(gm, targets, depends):
    """The source set of each target, one row selection of `depends` per
    target."""
    out = []
    for cells in targets:
        cells = tuple(int(m) for m in cells)
        needed = depends[list(cells)].any(axis=0)
        out.append((cells, tuple(int(i) for i in np.flatnonzero(needed))))
    return tuple(out)


def member_continuity_window(space, neighborhood, assignments):
    """The window check one assignment at a time, with each target's
    windows gathered as a set."""
    for cells, source in assignments:
        reachable = set(space.semi_table[np.ix_(cells, neighborhood)].ravel().tolist())
        if not set(source) <= reachable:
            witness = {"target_cells": list(cells), "source": list(source)}
            return Verdict.failing("continuity-inside-window", witness)
    return Verdict.passing("continuity-inside-window")


def scan_equivariance(gm, members):
    """Commutation with every member's shift, in member order."""
    space, q, table = gm.space, gm.states, gm.table
    for h in members:
        perm = shift_code_permutation(space, h, q)
        bad = np.flatnonzero(table[perm] != perm[table])
        if bad.size:
            code = int(bad[0])
            return Verdict.failing(
                "shift-equivariance",
                {
                    "element": int(h),
                    "config": list(decode(code, q, space.cells)),
                    "map_then_shift": list(decode(int(perm[table][code]), q, space.cells)),
                    "shift_then_map": list(decode(int(table[perm][code]), q, space.cells)),
                },
            )
    return Verdict.passing("shift-equivariance")


def scan_dependency_cells(gm, target):
    """Cells whose single-site change can move the image at `target`,
    one target at a time."""
    q = gm.states
    codes = np.arange(config_count(gm.space, q), dtype=np.int64)
    out_digit = (gm.table // q**target) % q
    deps = []
    for i in range(gm.space.cells):
        wi = q**i
        base = codes - ((codes // wi) % q) * wi
        reference = out_digit[base]
        for v in range(1, q):
            if not np.array_equal(out_digit[base + v * wi], reference):
                deps.append(i)
                break
    return tuple(deps)


def reshape_dependency_matrix(gm):
    """deps[target, source] from the image digits of every configuration,
    one reshape per source cell."""
    q, n = gm.states, gm.space.cells
    image = digit_matrix(q, n)[gm.table]
    deps = np.zeros((n, n), dtype=bool)
    for i in range(n):
        blocks = image.reshape(q ** (n - 1 - i), q, q**i, n)
        deps[:, i] = (blocks[:, 1:] != blocks[:, :1]).any(axis=(0, 1, 2))
    return deps


def brute_closure(rows, cells):
    """Every composite of the rows, the identity included, unrestricted."""
    identity = tuple(range(cells))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for e in frontier:
            for r in rows:
                p = tuple(e[x] for x in r)
                if p not in seen:
                    seen.add(p)
                    grown.append(p)
        frontier = grown
    return seen


def sweep_verify_group(group):
    """The group axioms in plain loops over the tuple table; associativity
    as the sweep over every triple in (a, b, c) order."""
    mul, e, n = group.mul, group.identity, group.order
    for a in range(n):
        if mul[e][a] != a or mul[a][e] != a:
            return Verdict.failing(
                "group-identity", {"element": a, "e*a": mul[e][a], "a*e": mul[a][e]}
            )
    for a in range(n):
        if not any(mul[a][b] == e and mul[b][a] == e for b in range(n)):
            return Verdict.failing("group-inverses", {"element": a})
    for a in range(n):
        row_a = mul[a]
        for b in range(n):
            row_ab, row_b = mul[row_a[b]], mul[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    left, right = row_ab[c], row_a[row_b[c]]
                    witness = {"triple": [a, b, c], "(a*b)*c": left, "a*(b*c)": right}
                    return Verdict.failing("group-associativity", witness)
    return Verdict.passing("group-axioms")


def scan_inverses(group):
    """The first two-sided inverse of each element, or the error for the
    first element without one."""
    mul, e, n = group.mul, group.identity, group.order
    out = []
    for a in range(n):
        b = next((b for b in range(n) if mul[a][b] == e and mul[b][a] == e), None)
        if b is None:
            return f"element {a} has no two-sided inverse"
        out.append(b)
    return tuple(out)


def scan_subgroup(group, members):
    """The error Subgroup raises for `members`, from plain loops; None for a subgroup."""
    mul, e, n = group.mul, group.identity, group.order
    members = sorted(set(members))
    if e not in members:
        return "subgroup must contain the identity"
    for x in members:
        if not 0 <= x < n:
            return f"subgroup member {x} out of range 0..{n - 1}"
    inside = set(members)
    for a in members:
        for b in members:
            if mul[a][b] not in inside:
                return f"subgroup not closed: {a}*{b} = {mul[a][b]} escapes"
    for a in members:
        if not any(mul[a][b] == e for b in members):
            return f"subgroup member {a} has no inverse inside"
    return None


def left_normed_words(group, gens):
    """Every (...((e*g1)*g2)...)*gm with the g's drawn from gens."""
    mul = group.mul
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        grown = []
        for w in frontier:
            for g in gens:
                if mul[w][g] not in seen:
                    seen.add(mul[w][g])
                    grown.append(mul[w][g])
        frontier = grown
    return seen


# ------------------------------------- labelings against the relation oracle

# (space, states) whose configurations fit relation matrices of 256 x 256 at most
ORACLE_SPACES = {**SPACES, **{f"cyclic{n}": cyclic_space(n) for n in (1, 2, 3)}}
ORACLE_CASES = [
    (name, q) for name, space in ORACLE_SPACES.items() for q in (2, 3, 5) if config_count(space, q) <= 256
]


def _kernel(labels):
    return Relation(len(labels), labels[:, None] == labels[None, :])


def _singletons(gm, depends):
    return continuity_assignments(gm, [(m,) for m in range(gm.space.cells)], depends)


def _agrees_with_the_relation_oracle(gm, depends):
    """check_uniform_continuity against the pushforward of the matrices on
    the same singleton sources; when it passes, the sources of every
    member of the base pass the pushforward too."""
    result = check_uniform_continuity(gm, depends)
    assert result == pushforward_continuity(gm, _singletons(gm, depends))
    if result.verdict.ok:
        members = matrix_prodiscrete_base(gm.space, gm.states).labels
        assert pushforward_continuity(gm, continuity_assignments(gm, members, depends)).verdict.ok
    return result


def _dropped(depends, rng, count):
    """depends with one dependency cell dropped at each of `count` target
    cells, or fewer when fewer cells have any."""
    doctored = depends.copy()
    targets = np.flatnonzero(depends.any(axis=1))
    for m in rng.choice(targets, min(count, len(targets)), replace=False):
        doctored[m, rng.choice(np.flatnonzero(depends[m]))] = False
    return doctored


@pytest.mark.parametrize("name, states", ORACLE_CASES)
def test_labelings_equal_the_relation_oracle(name, states):
    space = ORACLE_SPACES[name]
    family = matrix_prodiscrete_base(space, states)
    for cells, relation in zip(family.labels, family.relations):
        assert _kernel(agreement_relation(space, states, cells)) == relation, cells
    base = prodiscrete_base(space, states)
    assert check_uniformity_base(base) == scan_uniformity_base(family) == Verdict.passing("uniformity-base")
    intersection = check_agreement_intersection(base)
    assert intersection == scan_agreement_intersection(family) == Verdict.passing("agreement-intersection")


# the cases with 2 and 3 states, on which the random rules are drawn
RULE_CASES = [case for case in ORACLE_CASES if case[1] < 5]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("name, states", RULE_CASES)
def test_continuity_equals_the_relation_oracle_on_random_rules(name, states, symmetrize, seed):
    gm = GlobalMap.from_automaton(_random_rule(ORACLE_SPACES[name], states, seed, symmetrize))
    assert _agrees_with_the_relation_oracle(gm, dependency_matrix(gm)).verdict.ok


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name, states", RULE_CASES)
def test_dropped_dependencies_fail_as_in_the_relation_oracle(name, states, seed):
    # a dependency cell left out of a source admits a pair whose images
    # split there; both paths fail at the first doctored cell
    gm = GlobalMap.from_automaton(_random_rule(ORACLE_SPACES[name], states, seed, False))
    depends = dependency_matrix(gm)
    for m, c in np.argwhere(depends):
        doctored = depends.copy()
        doctored[m, c] = False
        result = _agrees_with_the_relation_oracle(gm, doctored)
        assert result.verdict.witness["target_cells"] == [m]
    rng = np.random.default_rng(seed)
    for count in (2, 3):
        doctored = _dropped(depends, rng, count)
        result = _agrees_with_the_relation_oracle(gm, doctored)
        first = int(np.flatnonzero((doctored != depends).any(axis=1))[0])
        assert result.verdict.witness["target_cells"] == [first]


@pytest.mark.parametrize(
    "cells, states", [(1, 2), (1, 5), (2, 3), (3, 2), (3, 5), (4, 2), (4, 3), (5, 2), (6, 2)]
)
def test_random_tables_agree_with_the_relation_oracle(cells, states):
    # tables that are no step, bijective or not; a bijection's inverse
    # sources pass the pushforward of the inverse table
    space = cyclic_space(cells)
    rng = np.random.default_rng(cells * 10 + states)
    total = states**cells
    for table in (np.arange(total), rng.permutation(total), rng.integers(0, total, total)):
        gm = GlobalMap(space, states, table)
        depends = dependency_matrix(gm)
        assert _agrees_with_the_relation_oracle(gm, depends).verdict.ok
        if depends.any():
            assert not _agrees_with_the_relation_oracle(gm, _dropped(depends, rng, 1)).verdict.ok
        iso = check_uniform_isomorphism(gm)
        if len(set(table.tolist())) == total:
            inverse = GlobalMap(space, states, np.argsort(table))
            want = pushforward_continuity(inverse, _singletons(inverse, None))
            assert want.verdict.ok
            assert iso.witness["inverse_sources"] == [list(source) for _, source in want.assignments]
        else:
            assert not iso.ok


@settings(deadline=None)
@given(
    case=st.sampled_from(RULE_CASES),
    seed=st.integers(0, 2**32 - 1),
    symmetrize=st.booleans(),
    dropped=st.integers(0, 2),
)
def test_drawn_rules_agree_with_the_relation_oracle(case, seed, symmetrize, dropped):
    name, states = case
    gm = GlobalMap.from_automaton(_random_rule(ORACLE_SPACES[name], states, seed, symmetrize))
    depends = dependency_matrix(gm)
    result = _agrees_with_the_relation_oracle(gm, _dropped(depends, np.random.default_rng(seed), dropped))
    assert result.verdict.ok == (not dropped or not depends.any())


def _target_sets(cells, rng):
    """Every single cell, the empty set, all cells, and random sets, some
    unsorted and some with repeats."""
    sets = [(c,) for c in range(cells)] + [(), tuple(range(cells))[::-1]]
    for _ in range(20):
        sets.append(tuple(int(c) for c in rng.integers(0, cells, int(rng.integers(1, 4)))))
    return sets


@pytest.mark.parametrize("name", sorted(AUTOMATA))
def test_assignments_and_windows_equal_the_member_loops(name):
    ca = AUTOMATA[name]
    gm = GlobalMap.from_automaton(ca)
    depends = dependency_matrix(gm)
    rng = np.random.default_rng(len(name))
    targets = _target_sets(ca.space.cells, rng)
    assignments = continuity_assignments(gm, targets, depends)
    assert assignments == member_continuity_assignments(gm, targets, depends)
    window = check_continuity_window(ca.space, ca.neighborhood, assignments)
    assert window == member_continuity_window(ca.space, ca.neighborhood, assignments)
    assert window.ok
    # sources moved off the targets' windows: the first such assignment is the witness
    failures = 0
    for _ in range(10):
        moved = [
            (cells, tuple(sorted(set(rng.integers(0, ca.space.cells, len(source) + 1).tolist()))))
            for cells, source in assignments
        ]
        verdict = check_continuity_window(ca.space, ca.neighborhood, moved)
        assert verdict == member_continuity_window(ca.space, ca.neighborhood, moved)
        failures += not verdict.ok
    assert failures or len(ca.neighborhood) == ca.space.cells


# ------------------------------------------------------------ equivariance


def _random_rule(space, states, seed, symmetrize):
    rng = random.Random(seed)
    picked = rng.sample(range(space.num_cosets), min(2, space.num_cosets))
    return random_rule_automaton(space, closed_neighborhood(space, picked), states, rng, symmetrize)


def _proper_scope(space):
    """A proper subgroup, generated by at most two elements, that still
    carries the origin to every cell, and the space re-coordinatized
    inside it; None when the group has no such subgroup.

    A scope must contain every coordinate, so the origin stabilizer cannot
    be one; a proper transitive subgroup is the smaller scope instead.
    """
    group, act, origin = space.group, space.action.act, space.origin
    for a in group.elements():
        for b in range(a, group.order):
            members = {group.identity}
            frontier = [group.identity]
            while frontier:
                frontier = [group.mul[e][g] for e in frontier for g in (a, b)]
                frontier = [e for e in set(frontier) if e not in members]
                members.update(frontier)
            if len(members) == group.order:
                continue
            if {act[h][origin] for h in members} != set(range(space.cells)):
                continue
            coords = tuple(
                group.identity if m == origin else min(h for h in members if act[h][origin] == m)
                for m in range(space.cells)
            )
            scoped = CellSpace(CoordinateSystem(space.action, origin, coords))
            return scoped, Subgroup(group, tuple(members))
    return None


def _cases(name):
    """(space, scope) pairs: the whole group, and a proper subgroup."""
    space = SPACES[name]
    scoped = _proper_scope(space)
    return [(space, None)] + ([scoped] if scoped else [])


def _members(space, sub):
    return space.group.elements() if sub is None else sub.members


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_exhaustive_equivariance_agrees_with_the_member_scan(name, symmetrize):
    for space, sub in _cases(name):
        for seed in range(2 if name == "torus" else 6):
            ca = _random_rule(space, 2, seed, symmetrize)
            gm = GlobalMap.from_automaton(ca)
            verdict = check_equivariance(gm, sub)
            assert verdict == scan_equivariance(gm, _members(space, sub)), (sub, seed)
            assert check_step_equivariance(ca, sub) == verdict, (sub, seed)
            if symmetrize:
                assert verdict.ok


def test_some_cases_have_a_proper_scope():
    assert [name for name in SPACES if len(_cases(name)) == 2] == ["square", "cube", "torus"]


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_window_check_agrees_with_the_table_on_three_states(name):
    failing = 0
    for space, sub in _cases(name):
        for seed in range(8):
            for symmetrize in (True, False):
                ca = _random_rule(space, 3, seed, symmetrize)
                verdict = check_equivariance(GlobalMap.from_automaton(ca), sub)
                assert check_step_equivariance(ca, sub) == verdict, (sub, seed)
                failing += not verdict.ok
    assert failing or name == "cyclic4"


def _doctored_space(space, row):
    """The space with two entries of one row of its action table swapped,
    away from the origin and its preimage: no longer an action, but every
    law the loader checks still holds."""
    act = [list(r) for r in space.action.act]
    a, b = [x for x in range(space.cells) if space.origin not in (x, act[row][x])][:2]
    act[row][a], act[row][b] = act[row][b], act[row][a]
    action = LeftAction(space.group, space.cells, tuple(tuple(r) for r in act))
    return CellSpace(CoordinateSystem(action, space.origin, space.coords))


@pytest.mark.parametrize("name", ["square", "cube"])
def test_window_check_agrees_with_the_table_on_doctored_actions(name):
    space = SPACES[name]
    outcomes, wider = set(), False
    for row in space.group.elements():
        if row in space.coords:
            continue
        doctored = _doctored_space(space, row)
        rows = shift_cells(doctored, doctored.group.elements())
        for seed in range(3):
            ca = _random_rule(doctored, 2, seed, True)
            verdict = check_equivariance(GlobalMap.from_automaton(ca))
            assert check_step_equivariance(ca) == verdict, (row, seed)
            outcomes.add(verdict.ok)
            nc = ca.neighbor_cells
            for g in generator_indices(rows):
                s = rows[g]
                wider |= any(len(set(s[nc[m]]) | set(nc[s[m]])) > ca.arity for m in range(doctored.cells))
    assert outcomes == {True, False} and wider


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_doctored_tables_agree_with_the_member_scan(name):
    rng = random.Random(5)
    for space, sub in _cases(name):
        true = global_table(_random_rule(space, 2, 1, True))
        total = len(true)
        for _ in range(8):
            table = true.copy()
            table[rng.randrange(total)] = rng.randrange(total)
            gm = GlobalMap(space, 2, table)
            assert check_equivariance(gm, sub) == scan_equivariance(gm, _members(space, sub))
        gm = GlobalMap(space, 2, rng.sample(range(total), total))
        assert check_equivariance(gm, sub) == scan_equivariance(gm, _members(space, sub))


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_shift_maps_agree_with_the_member_scan(name):
    # the shift by a generator commutes with that generator; on the
    # non-abelian groups it fails on another one, so checking fewer
    # generators than chosen would pass it
    space = SPACES[name]
    rows = shift_cells(space, space.group.elements())
    w = 2 ** np.arange(space.cells)
    failing = 0
    for g in generator_indices(rows):
        table = digit_matrix(2, space.cells)[:, rows[g]].astype(np.int64) @ w
        gm = GlobalMap(space, 2, table)
        verdict = check_equivariance(gm)
        assert verdict == scan_equivariance(gm, space.group.elements()), g
        failing += not verdict.ok
    assert failing == {"cyclic4": 0, "square": 2, "cube": 4, "torus": 3}[name]


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_generators_span_the_scope_and_none_is_redundant(name):
    for space, sub in _cases(name):
        rows = shift_cells(space, _members(space, sub))
        gens = generator_indices(rows)
        closure = brute_closure([tuple(rows[g]) for g in gens], space.cells)
        assert {tuple(r) for r in rows} <= closure
        for n, g in enumerate(gens):
            earlier = [tuple(rows[h]) for h in gens[:n]]
            assert tuple(rows[g]) not in brute_closure(earlier, space.cells)


@settings(max_examples=80, deadline=None)
@given(cells=st.integers(1, 4), data=st.data())
def test_generators_of_arbitrary_cell_maps_span_them(cells, data):
    # loaded tables need not form a group, so the rows may be any maps
    count = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, cells - 1), min_size=cells, max_size=cells)
    rows = np.array([data.draw(row) for _ in range(count)], dtype=np.int64)
    gens = generator_indices(rows)
    assert {tuple(r) for r in rows} <= brute_closure([tuple(rows[g]) for g in gens], cells)


# ------------------------------------------------------- dependency matrix


def _fixture_maps():
    maps = {name: GlobalMap.from_automaton(ca) for name, ca in AUTOMATA.items()}
    for name in ("cyclic4_shift_globalmap", "cyclic4_broken_globalmap"):
        maps[name] = load_global_map(str(FIXTURES / f"{name}.json"))
    return maps


@pytest.mark.parametrize("name", sorted(_fixture_maps()))
def test_dependency_rows_match_the_per_target_scan_on_fixtures(name):
    gm = _fixture_maps()[name]
    deps = dependency_matrix(gm)
    assert deps.shape == (gm.space.cells, gm.space.cells)
    for target in range(gm.space.cells):
        assert tuple(np.flatnonzero(deps[target]).tolist()) == scan_dependency_cells(gm, target)


@pytest.mark.parametrize("symmetrize", [True, False])
@pytest.mark.parametrize("name", ["square", "cyclic4"])
def test_dependency_rows_match_the_per_target_scan_on_three_states(name, symmetrize):
    space = SPACES[name]
    rules = [_random_rule(space, 3, seed, symmetrize) for seed in range(6)]
    # "is the first neighbour in state 2": only the change 0 -> 2 moves the image
    nb = closed_neighborhood(space, rules[0].neighborhood[-1:])
    delta = [int(decode(code, 3, len(nb))[0] == 2) for code in range(3 ** len(nb))]
    rules.append(SemiCellularAutomaton(space, 3, nb, delta))
    for ca in rules:
        gm = GlobalMap.from_automaton(ca)
        deps = dependency_matrix(gm)
        assert deps.any()
        for target in range(space.cells):
            assert tuple(np.flatnonzero(deps[target])) == scan_dependency_cells(gm, target)


@pytest.mark.parametrize(
    "name, states",
    [(name, q) for name in SPACES for q in (2, 3) if config_count(SPACES[name], q) <= CONFIG_TABLE_BOUND],
)
def test_dependency_rows_match_the_per_target_scan_on_random_rules(name, states):
    space = SPACES[name]
    for seed in range(3):
        for symmetrize in (True, False):
            gm = GlobalMap.from_automaton(_random_rule(space, states, seed, symmetrize))
            deps = dependency_matrix(gm)
            for target in range(space.cells):
                assert tuple(np.flatnonzero(deps[target]).tolist()) == scan_dependency_cells(gm, target)


# the bundled spaces and cyclic spaces of odd size, whose halves differ in
# width, with states 2 to 5 inside the table bound
DEPENDENCY_SPACES = {**SPACES, **{f"cyclic{n}": cyclic_space(n) for n in (1, 3, 5)}}


@pytest.mark.parametrize(
    "name, states",
    [
        (name, q)
        for name, space in DEPENDENCY_SPACES.items()
        for q in (2, 3, 4, 5)
        if config_count(space, q) <= CONFIG_TABLE_BOUND
    ],
)
def test_dependency_matrix_equals_the_reshape_form(name, states):
    """On random rules, which depend on few cells, and on random tables,
    which depend on nearly all of them."""
    space = DEPENDENCY_SPACES[name]
    rng = random.Random(97 * states + space.cells)
    maps = [GlobalMap.from_automaton(_random_rule(space, states, seed, seed % 2 == 0)) for seed in range(3)]
    total = config_count(space, states)
    maps += [GlobalMap(space, states, [rng.randrange(total) for _ in range(total)]) for _ in range(2)]
    # the identity, except that the top cell copies cell 0
    codes = np.arange(total)
    top = states ** (space.cells - 1)
    copied = GlobalMap(space, states, codes - codes // top * top + codes % states * top)
    expected = np.eye(space.cells, dtype=bool)
    expected[-1] = np.arange(space.cells) == 0
    assert np.array_equal(dependency_matrix(copied), expected)
    for gm in maps + [copied]:
        deps = dependency_matrix(gm)
        assert deps.dtype == bool and deps.shape == (space.cells, space.cells)
        assert np.array_equal(deps, reshape_dependency_matrix(gm))


# ------------------------------------------------------------ group layer


def _relabel(group, seed):
    """The same group under a seeded relabelling; the identity moves too."""
    perm = list(range(group.order))
    random.Random(seed).shuffle(perm)
    mul = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            mul[perm[a]][perm[b]] = perm[group.mul[a][b]]
    return FiniteGroup(group.order, mul, perm[group.identity])


def _elementary_abelian(k):
    """Z2^k as bit vectors under xor; it needs k generators."""
    n = 1 << k
    return FiniteGroup(n, [[a ^ b for b in range(n)] for a in range(n)], 0)


def _symmetric(points):
    perms = sorted(itertools.permutations(range(points)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[q[i]] for i in range(points))] for q in perms] for p in perms]
    return FiniteGroup(len(perms), mul, index[tuple(range(points))])


def _loop(group, seed, swaps):
    """A Latin square with the group's identity and two-sided inverses:
    swap intercalates (x*u = y*v, x*v = y*u) away from the identity's row,
    column and entries.  Usually not associative."""
    rng = random.Random(seed)
    mul = [list(row) for row in group.mul]
    e, n = group.identity, group.order
    for _ in range(swaps):
        quads = [
            (x, y, u, v)
            for x, y in itertools.combinations(range(n), 2)
            for u, v in itertools.combinations(range(n), 2)
            if e not in (x, y, u, v, mul[x][u], mul[x][v])
            and mul[x][u] == mul[y][v]
            and mul[x][v] == mul[y][u]
        ]
        x, y, u, v = rng.choice(quads)
        mul[x][u], mul[x][v] = mul[x][v], mul[x][u]
        mul[y][u], mul[y][v] = mul[y][v], mul[y][u]
    return FiniteGroup(n, mul, e)


def _groups():
    out = {}
    for name, space in SPACES.items():
        for seed in range(2):
            out[f"{name}-{seed}"] = _relabel(space.group, seed)
    for k in range(1, 6):
        out[f"z2^{k}"] = _elementary_abelian(k)
    out["s4"] = _relabel(_symmetric(4), 0)
    out["s5"] = _relabel(_symmetric(5), 1)
    return out


GROUPS = _groups()


def _loops():
    bases = [_elementary_abelian(3), _elementary_abelian(4), _relabel(SPACES["square"].group, 2)]
    bases.append(_relabel(_symmetric(4), 3))
    return [
        _relabel(_loop(base, seed, swaps), seed)
        for base in bases
        for seed in range(4)
        for swaps in (1, 2)
    ]


LOOPS = _loops()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_groups_agree_with_the_triple_sweep(name):
    group = GROUPS[name]
    assert verify_group(group) == sweep_verify_group(group) == Verdict.passing("group-axioms")
    assert group.inv == scan_inverses(group)


@pytest.mark.parametrize("k", range(1, 6))
def test_z2_power_needs_every_generator(k):
    group = _elementary_abelian(k)
    assert len(magma_generators(group)) == k


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_magma_generators_reach_every_element_and_none_is_redundant(name):
    group = GROUPS[name]
    gens = magma_generators(group)
    assert left_normed_words(group, gens) == set(range(group.order))
    for n, g in enumerate(gens):
        assert g not in left_normed_words(group, gens[:n])


def test_non_associative_loops_agree_with_the_triple_sweep():
    for loop in LOOPS:
        expected = sweep_verify_group(loop)
        assert verify_group(loop) == expected
        assert loop.inv == scan_inverses(loop)
        if not expected.ok:
            assert expected.law == "group-associativity"
            # the first a with a failing (a, b, c) is always a generator:
            # elements a with (a*b)*c == a*(b*c) for all b, c are closed
            # under products, and the greedy choice is in label order
            assert expected.witness["triple"][0] in magma_generators(loop)
    assert sum(not sweep_verify_group(loop).ok for loop in LOOPS) >= len(LOOPS) // 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_arbitrary_tables_agree_with_the_triple_sweep(n, data):
    # identity rows kept or not, inverses and associativity left to chance
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    mul = data.draw(st.lists(row, min_size=n, max_size=n))
    e = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        for a in range(n):
            mul[e][a] = mul[a][e] = a
    group = FiniteGroup(n, mul, e)
    assert verify_group(group) == sweep_verify_group(group)
    expected = scan_inverses(group)
    if isinstance(expected, str):
        with pytest.raises(InputError, match=f"^{expected}$"):
            group.inv
    else:
        assert group.inv == expected


def _fresh(group):
    """An equal group with nothing cached, so verify_group sweeps again."""
    return FiniteGroup(group.order, group.mul, group.identity)


# entries per block: one row b at a time, then blocks of a few rows, the
# last one short
BLOCKS = [1, 17, 50]


@pytest.mark.parametrize("entries", BLOCKS)
def test_small_blocks_agree_with_the_triple_sweep_on_loops(monkeypatch, entries):
    monkeypatch.setattr(groups, "GATHER_BLOCK", entries)
    past_the_first_block = 0
    for loop in LOOPS:
        expected = sweep_verify_group(loop)
        assert verify_group(_fresh(loop)) == expected
        if not expected.ok:
            rows = max(1, entries // loop.order)
            past_the_first_block += expected.witness["triple"][1] >= rows
    assert past_the_first_block


@pytest.mark.parametrize("entries", BLOCKS)
def test_groups_in_small_blocks_agree_with_the_triple_sweep(monkeypatch, entries):
    monkeypatch.setattr(groups, "GATHER_BLOCK", entries)
    for group in GROUPS.values():
        assert verify_group(_fresh(group)) == Verdict.passing("group-axioms")


@settings(deadline=None)
@given(n=st.integers(1, 5), entries=st.integers(1, 30), data=st.data())
def test_arbitrary_tables_in_small_blocks_agree_with_the_triple_sweep(n, entries, data):
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    mul = data.draw(st.lists(row, min_size=n, max_size=n))
    e = data.draw(st.integers(0, n - 1))
    for a in range(n):
        mul[e][a] = mul[a][e] = a
    group = FiniteGroup(n, mul, e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "GATHER_BLOCK", entries)
        assert verify_group(group) == sweep_verify_group(group)


def test_verify_group_takes_less_memory_than_the_table():
    n = 1024
    group = FiniteGroup(n, (np.arange(n)[:, None] + np.arange(n)) % n, 0)
    tracemalloc.start()
    try:
        verdict = verify_group(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.ok
    # the int32 table is 4 MiB; the inverse check's two n x n bools take
    # 2 MiB, and each associativity block about 1 MiB
    assert peak < group.mul.nbytes


def test_inverses_are_the_first_two_sided_ones():
    # 2*1 = e but 1*2 != e: 1 is only a left inverse of 2, and 2 is its own
    group = FiniteGroup(3, [[0, 1, 2], [1, 0, 1], [2, 0, 0]], 0)
    assert group.inv == scan_inverses(group) == (0, 1, 2)
    # 1 and 2 have right inverses only, and 1 comes first
    group = FiniteGroup(3, [[0, 1, 2], [1, 1, 0], [2, 2, 1]], 0)
    assert scan_inverses(group) == "element 1 has no two-sided inverse"
    with pytest.raises(InputError, match="^element 1 has no two-sided inverse$"):
        group.inv


def _subgroup_error(group, members):
    try:
        Subgroup(group, members)
    except InputError as err:
        return str(err)
    return None


def _generated(group, gens):
    """The smallest subset holding the identity and gens that is closed under
    products (in a loop, left-normed words alone need not be)."""
    mul = group.mul
    closed = {group.identity, *gens}
    while True:
        grown = closed | {mul[a][b] for a in closed for b in closed}
        if grown == closed:
            return closed
        closed = grown


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_subsets_agree_with_the_closure_scan(data):
    tables = [GROUPS[k] for k in ("square-1", "cube-0", "s4", "z2^4")] + LOOPS[:4]
    group = data.draw(st.sampled_from(tables))
    element = st.integers(0, group.order - 1)
    members = _generated(group, data.draw(st.lists(element, max_size=3)))
    assert scan_subgroup(group, members) is None
    added = data.draw(st.lists(element, max_size=2))
    removed = data.draw(st.lists(element, max_size=2))
    drawn = (members | set(added)) - set(removed)
    assert _subgroup_error(group, drawn) == scan_subgroup(group, drawn)
    assert _subgroup_error(group, members) is None


def test_random_subsets_report_the_first_failure():
    group = GROUPS["s4"]
    rng = random.Random(0)
    for _ in range(40):
        members = rng.sample(range(group.order), rng.randint(1, group.order))
        members.append(group.identity)
        assert _subgroup_error(group, members) == scan_subgroup(group, members)
    assert _subgroup_error(group, range(group.order)) is None
    # a magma whose idempotent 2 never reaches the identity: closed, no inverse
    magma = FiniteGroup(3, [[0, 1, 2], [1, 0, 2], [2, 2, 2]], 0)
    assert _subgroup_error(magma, [0, 1, 2]) == "subgroup member 2 has no inverse inside"
    assert scan_subgroup(magma, [0, 1, 2]) == "subgroup member 2 has no inverse inside"
    # 2*1 = e, so 1 has a left inverse but no right one, and 2 the reverse
    magma = FiniteGroup(3, [[0, 1, 2], [1, 1, 1], [2, 0, 2]], 0)
    assert _subgroup_error(magma, [0, 1, 2]) == "subgroup member 1 has no inverse inside"
    assert scan_subgroup(magma, [0, 1, 2]) == "subgroup member 1 has no inverse inside"


@pytest.mark.parametrize("members", [[0, 99], [0, -1], [-3, -1, 0, 64], list(range(64)) + [-1]])
def test_subgroup_members_outside_the_group_are_refused(members):
    group = SPACES["torus"].group
    assert group.order == 64 and group.identity == 0
    assert _subgroup_error(group, members) == scan_subgroup(group, members)
    assert "out of range 0..63" in _subgroup_error(group, members)
