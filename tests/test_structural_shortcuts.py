"""The exact structural shortcuts in the exhaustive laws, against slow oracles.

`check_uniformity_base` tries the member a prodiscrete base predicts before
scanning, `check_equivariance` tests generators of the scope before
scanning all members, `check_step_equivariance` decides the same on
neighbourhood windows without a table, and `dependency_matrix` finds every
dependency set in one pass over the table.  In the group layer,
`verify_group` sweeps associativity over magma generators only, and
`Subgroup` and `FiniteGroup.inv` check the table with numpy.  The
oracles below are the plain forms without those shortcuts; full verdicts,
witnesses and error messages included, must agree.
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dependency_cells,
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
    EntourageBase,
    Relation,
    check_uniformity_base,
    prodiscrete_base,
    rel_compose,
)
from homoca.verdict import Verdict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPACES = bundled_spaces()
AUTOMATA = bundled_automata()


# ---------------------------------------------------------------- oracles


def scan_uniformity_base(base):
    """Every condition as a scan over all members."""
    rels = base.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    for i, r in enumerate(rels):
        if not r.contains_diagonal():
            x = int(np.flatnonzero(~r.pairs.diagonal())[0])
            return Verdict.failing("base-reflexive", {"relation": i, "missing_pair": [x, x]})
    for i, r in enumerate(rels):
        for k, r2 in enumerate(rels):
            meet = r.intersect(r2)
            if not any(cand.issubset(meet) for cand in rels):
                return Verdict.failing("base-meet", {"relations": [i, k]})
    for i, r in enumerate(rels):
        rinv = r.inverse()
        if not any(cand.issubset(rinv) for cand in rels):
            return Verdict.failing("base-inverse", {"relation": i})
    for i, r in enumerate(rels):
        if not any(rel_compose(cand, cand).issubset(r) for cand in rels):
            return Verdict.failing("base-square-root", {"relation": i})
    return Verdict.passing("uniformity-base")


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


# ------------------------------------------------------- uniformity base


def _doctored(base, kind, index):
    rels = list(base.relations)
    size = rels[0].size
    if kind == "drop":
        del rels[index]
    else:
        # reflexive, and either asymmetric or symmetric but not transitive
        pairs = np.eye(size, dtype=bool)
        pairs[0, 1] = True
        if kind == "non-transitive":
            pairs[1, 0] = pairs[1, 2] = pairs[2, 1] = True
        rels.insert(index, Relation(size, pairs))
    return EntourageBase(tuple(rels))


@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5, 6])
def test_prodiscrete_bases_agree_with_the_scan(cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    verdict = check_uniformity_base(base)
    assert verdict == scan_uniformity_base(base) == Verdict.passing("uniformity-base")


@pytest.mark.parametrize("kind", ["drop", "asymmetric", "non-transitive"])
@pytest.mark.parametrize("cells", [2, 3])
def test_doctored_bases_agree_with_the_scan(kind, cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    for index in range(len(base.relations)):
        doctored = _doctored(base, kind, index)
        assert check_uniformity_base(doctored) == scan_uniformity_base(doctored), index


def test_doctored_bases_reach_the_scan_and_its_failures():
    base = prodiscrete_base(cyclic_space(3), 2)
    # the predicted member is missing, yet the diagonal still bounds each
    # condition, so the scan must run and pass
    for kind, index in (("drop", 3), ("asymmetric", 1), ("non-transitive", 2)):
        assert check_uniformity_base(_doctored(base, kind, index)).ok
    # without the diagonal E(all cells), the meet of two complements escapes
    verdict = check_uniformity_base(_doctored(base, "drop", len(base.relations) - 1))
    assert verdict == Verdict.failing("base-meet", {"relations": [1, 6]})


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 4),
    data=st.data(),
)
def test_random_reflexive_families_agree_with_the_scan(size, data):
    count = data.draw(st.integers(1, 4))
    rels = []
    for _ in range(count):
        bits = data.draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
        pairs = np.array(bits, dtype=bool).reshape(size, size) | np.eye(size, dtype=bool)
        rels.append(Relation(size, pairs))
    base = EntourageBase(tuple(rels))
    assert check_uniformity_base(base) == scan_uniformity_base(base)


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
        assert dependency_cells(gm, target) == tuple(np.flatnonzero(deps[target]).tolist())
        assert dependency_cells(gm, target) == scan_dependency_cells(gm, target)


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
def test_dependency_cells_is_the_matrix_row_on_random_rules(name, states):
    """dependency_cells reads one target's image digits, the matrix all of them."""
    space = SPACES[name]
    for seed in range(3):
        for symmetrize in (True, False):
            gm = GlobalMap.from_automaton(_random_rule(space, states, seed, symmetrize))
            deps = dependency_matrix(gm)
            for target in range(space.cells):
                assert dependency_cells(gm, target) == tuple(np.flatnonzero(deps[target]).tolist())


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
