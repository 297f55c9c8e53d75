"""The exact structural shortcuts in the exhaustive laws, against slow oracles.

`check_uniformity_base` tries the member a prodiscrete base predicts before
scanning, on packed bit rows; `check_agreement_intersection` compares those
rows, and `check_uniform_continuity` re-verifies each member through its
pullback along the table.  `check_equivariance` tests generators of
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
    ContinuityResult,
    EntourageBase,
    Relation,
    agreement_relation,
    check_agreement_intersection,
    check_continuity_window,
    check_uniform_continuity,
    check_uniformity_base,
    continuity_assignments,
    image_relation,
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


def lookup_uniformity_base(base):
    """The base conditions a row at a time: each meet of a packed row with
    the rows from its own onwards looked up among the members by its
    bytes, inverses from one transpose of the stack, squares one member
    at a time; a scan over all members only for what is not a member."""
    rels = base.relations
    if not rels:
        return Verdict.failing("base-nonempty", {"relations": 0})
    for i, r in enumerate(rels):
        if not r.contains_diagonal():
            x = int(np.flatnonzero(~r.pairs.diagonal())[0])
            return Verdict.failing("base-reflexive", {"relation": i, "missing_pair": [x, x]})
    if any(r.size != rels[0].size for r in rels):
        raise InputError("relations live on different universes")
    stack = np.stack([r.pairs for r in rels])

    def pack(matrices):
        return np.packbits(matrices.reshape(len(matrices), -1), axis=1)

    def keys(rows):
        return [row.tobytes() for row in rows]

    def inside(rows, row):
        return not (rows & ~row).any(axis=1).all()

    packed = pack(stack)
    members = {}
    for i, key in enumerate(keys(packed)):
        members.setdefault(key, i)
    for i in range(len(rels)):
        meets = packed[i] & packed[i:]
        for k, key in enumerate(keys(meets)):
            if key not in members and not inside(packed, meets[k]):
                return Verdict.failing("base-meet", {"relations": [i, i + k]})
    inverses = pack(stack.transpose(0, 2, 1))
    for i, key in enumerate(keys(inverses)):
        if key not in members and not inside(packed, inverses[i]):
            return Verdict.failing("base-inverse", {"relation": i})
    squares = np.empty_like(packed)
    for i, pairs in enumerate(stack):
        weights = pairs.astype(np.float32)
        squares[i] = np.packbits(weights @ weights > 0)
    for i in np.flatnonzero((squares & ~packed).any(axis=1)):
        if not inside(squares, packed[i]):
            return Verdict.failing("base-square-root", {"relation": int(i)})
    return Verdict.passing("uniformity-base")


def member_prodiscrete_base(space, states):
    """E(K) for every cell set K, one agreement_relation per member,
    member m labeled with the cells of the bits of m."""
    labels, relations = [], []
    for mask in range(1 << space.cells):
        cells = tuple(c for c in range(space.cells) if mask >> c & 1)
        labels.append(cells)
        relations.append(agreement_relation(space, states, cells))
    return EntourageBase(tuple(relations), tuple(labels))


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


# ------------------------------------------------------- uniformity base


def _doctored(base, kind, index):
    rels = list(base.relations)
    size = rels[0].size
    if kind == "drop":
        del rels[index]
    elif kind == "irreflexive":
        pairs = rels[index].pairs.copy()
        pairs[index % size, index % size] = False
        rels[index] = Relation(size, pairs)
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


def _random_family(size, rng):
    """Reflexive members of four kinds: partitions (symmetric and
    transitive), symmetric, transitive closures, and plain reflexive ones;
    sometimes with the diagonal, which bounds every condition."""
    eye = np.eye(size, dtype=bool)
    rels = []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(4))
        if kind == 0:
            blocks = rng.integers(0, int(rng.integers(1, size + 1)), size)
            pairs = blocks[:, None] == blocks[None, :]
        else:
            pairs = (rng.random((size, size)) < rng.random()) | eye
            if kind == 1:
                pairs |= pairs.T
            elif kind == 2:
                for _ in range(size):
                    pairs |= (pairs.astype(np.int32) @ pairs.astype(np.int32)) > 0
        rels.append(Relation(size, pairs))
    if rng.random() < 0.3:
        rels.insert(int(rng.integers(len(rels) + 1)), Relation.diagonal(size))
    return EntourageBase(tuple(rels))


@pytest.mark.parametrize("size", [3, 5, 7])
def test_sizes_with_padded_bit_rows_agree_with_the_scan(size):
    # N*N is not a multiple of 8, so every packed row ends in padding bits
    base = prodiscrete_base(cyclic_space(1), size)
    assert check_uniformity_base(base) == scan_uniformity_base(base) == Verdict.passing("uniformity-base")
    rng = np.random.default_rng(size)
    laws = set()
    for _ in range(100):
        base = _random_family(size, rng)
        verdict = check_uniformity_base(base)
        assert verdict == scan_uniformity_base(base)
        laws.add(verdict.law)
    assert laws == {"uniformity-base", "base-meet", "base-inverse", "base-square-root"}


@pytest.mark.parametrize("cells", [2, 3])
def test_duplicated_members_agree_with_the_scan(cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    rels, labels = base.relations, base.labels
    escaping = _doctored(base, "drop", len(rels) - 1)
    for index in range(len(rels)):
        twice = EntourageBase(rels[: index + 1] + rels[index:], labels[: index + 1] + labels[index:])
        assert check_uniformity_base(twice) == scan_uniformity_base(twice) == Verdict.passing("uniformity-base")
        assert check_agreement_intersection(twice) == scan_agreement_intersection(twice)
        if index < len(escaping.relations):
            doctored = EntourageBase(escaping.relations + (escaping.relations[index],))
            assert check_uniformity_base(doctored) == scan_uniformity_base(doctored), index


@pytest.mark.parametrize("cells", [2, 3])
def test_unlabeled_bases_agree_with_the_scan(cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    unlabeled = EntourageBase(base.relations)
    assert check_uniformity_base(unlabeled) == scan_uniformity_base(unlabeled) == check_uniformity_base(base)
    for kind in ("drop", "asymmetric", "non-transitive"):
        for index in range(len(base.relations)):
            doctored = _doctored(base, kind, index)
            assert doctored.labels is None
            assert check_uniformity_base(doctored) == scan_uniformity_base(doctored)
    gm = GlobalMap(cyclic_space(cells), 2, np.arange(2**cells))
    with pytest.raises(InputError, match="agreement-labeled"):
        check_agreement_intersection(unlabeled)
    with pytest.raises(InputError, match="agreement-labeled"):
        check_uniform_continuity(gm, unlabeled)


def test_mixed_sizes_raise_after_the_reflexivity_check():
    mixed = EntourageBase((Relation.diagonal(3), Relation.full(3), Relation.diagonal(4)))
    for check in (check_uniformity_base, scan_uniformity_base):
        with pytest.raises(InputError, match="different universes"):
            check(mixed)
    # a member missing a diagonal pair is reported first, whatever the sizes
    lacking = np.eye(4, dtype=bool)
    lacking[2, 2] = False
    for tail in ((Relation(4, lacking),), (Relation(4, lacking), Relation.diagonal(5))):
        bad = EntourageBase(mixed.relations[:2] + tail)
        want = Verdict.failing("base-reflexive", {"relation": 2, "missing_pair": [2, 2]})
        assert check_uniformity_base(bad) == scan_uniformity_base(bad) == want
    labeled = EntourageBase(mixed.relations, ((0,), (), (0, 1)))
    with pytest.raises(InputError, match="different universes"):
        check_agreement_intersection(labeled)


# ------------------------------------- stacked base against member loops


def _positions(count):
    """The first, a middle and the last index of `count` members."""
    return sorted({0, count // 2, count - 1})


def _doctored_labeled(base, kind, index):
    """_doctored with labels kept along: a dropped member takes its label
    with it, and an inserted one repeats the label of the member it
    displaces."""
    labels = list(base.labels)
    if kind == "drop":
        del labels[index]
    elif kind != "irreflexive":
        labels.insert(index, labels[index])
    return EntourageBase(_doctored(base, kind, index).relations, tuple(labels))


@pytest.mark.parametrize(
    "space, states",
    [(1, 1), (8, 1), (1, 2), (3, 2), (5, 2), (2, 3), (3, 3), (1, 7), ("cyclic4", 2), ("square", 3), ("cube", 2)],
)
def test_stacked_prodiscrete_bases_equal_the_member_loop(space, states):
    space = SPACES[space] if isinstance(space, str) else cyclic_space(space)
    base = prodiscrete_base(space, states)
    want = member_prodiscrete_base(space, states)
    assert base == want
    assert np.array_equal(base.stack, np.stack([r.pairs for r in want.relations]))
    # the members are read-only views of the stack the checks read
    assert not any(r.pairs.flags.writeable for r in base.relations)


@pytest.mark.parametrize("space, states", [("cyclic4", 2), ("square", 2), ("cube", 2), (3, 3), (4, 1)])
def test_stacked_checks_agree_with_the_oracles_on_prodiscrete_bases(space, states):
    space = SPACES[space] if isinstance(space, str) else cyclic_space(space)
    base = prodiscrete_base(space, states)
    passing = Verdict.passing("uniformity-base")
    assert check_uniformity_base(base) == lookup_uniformity_base(base) == passing
    assert check_uniformity_base(EntourageBase(base.relations)) == passing
    intersection = check_agreement_intersection(base)
    assert intersection == scan_agreement_intersection(base) == Verdict.passing("agreement-intersection")
    assert len(base.meet_misses) == 0


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
@pytest.mark.parametrize("kind", ["irreflexive", "drop", "asymmetric", "non-transitive"])
def test_stacked_checks_agree_with_the_oracles_on_doctored_bases(name, kind):
    base = prodiscrete_base(SPACES[name], 2)
    for index in _positions(len(base.relations)):
        labeled = _doctored_labeled(base, kind, index)
        unlabeled = EntourageBase(labeled.relations)
        want = lookup_uniformity_base(unlabeled)
        if len(base.relations) <= 16:
            assert want == scan_uniformity_base(unlabeled)
        assert check_uniformity_base(labeled) == check_uniformity_base(unlabeled) == want, index
        assert check_agreement_intersection(labeled) == scan_agreement_intersection(labeled), index
        assert labeled.meet_misses.tolist() == loop_meet_misses(labeled), index
        if kind == "irreflexive":
            x = index % base.relations[0].size
            assert want == Verdict.failing("base-reflexive", {"relation": index, "missing_pair": [x, x]})
    if kind == "irreflexive":
        # every position doctored at once: the first one is the witness
        rels = list(base.relations)
        for index in _positions(len(rels)):
            rels[index] = _doctored(base, kind, index).relations[index]
        doctored = EntourageBase(tuple(rels))
        assert check_uniformity_base(doctored) == lookup_uniformity_base(doctored)
        assert check_uniformity_base(doctored).witness["relation"] == 0


def _culprit_family(kind, position, labeled):
    """E(K) for the four cell sets K of cyclic_space(3) that leave out
    cell 0, at 3 states, with one more member at `position`.  Without the
    diagonal E(0, 1, 2) the smallest of them is E(1, 2), whose pairs
    differ at cell 0 alone.  The culprit lies inside E(1, 2), so each of
    its meets with the others is itself, and it fails the condition its
    kind names: codes 0, 1 and 2 differ at cell 0 alone, and 0 and 3 at
    cell 1."""
    base = prodiscrete_base(cyclic_space(3), 3)
    keep = [i for i, label in enumerate(base.labels) if 0 not in label]
    rels = [base.relations[i] for i in keep]
    labels = [base.labels[i] for i in keep]
    pairs = np.eye(27, dtype=bool)
    if kind == "base-reflexive":
        pairs = base.relations[keep[-1]].pairs.copy()
        pairs[1, 1] = False
    elif kind == "base-meet":
        pairs[0, 3] = pairs[3, 0] = True
    elif kind == "base-inverse":
        pairs[0, 1] = True
    elif kind == "base-square-root":
        pairs[0, 1] = pairs[1, 0] = pairs[1, 2] = pairs[2, 1] = True
    rels.insert(position, Relation(27, pairs))
    labels.insert(position, (0,))
    return EntourageBase(tuple(rels), tuple(labels) if labeled else None)


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("kind", ["base-reflexive", "base-meet", "base-inverse", "base-square-root"])
def test_stacked_checks_find_each_failure_kind_where_the_scan_does(kind, labeled):
    for position in _positions(5):
        family = _culprit_family(kind, position, labeled)
        verdict = check_uniformity_base(family)
        assert verdict == scan_uniformity_base(family) == lookup_uniformity_base(family), position
        assert verdict.law == kind
        if kind != "base-meet":
            assert verdict.witness["relation"] == position
    # without a culprit the four members are a base
    family = EntourageBase(_culprit_family(kind, 0, labeled).relations[1:])
    assert check_uniformity_base(family) == Verdict.passing("uniformity-base")


@settings(deadline=None)
@given(size=st.integers(2, 4), data=st.data())
def test_stacked_checks_agree_on_random_labeled_families(size, data):
    # members drawn fresh, repeated, or as meets of earlier ones, and
    # labels over a few cells, not always sorted or without repeats, so
    # that predicted members both hit and miss
    rels, labels = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        how = data.draw(st.integers(0, 2 if len(rels) > 1 else 0))
        if how == 0:
            bits = data.draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
            rels.append(Relation(size, np.array(bits, dtype=bool).reshape(size, size) | np.eye(size, dtype=bool)))
        elif how == 1:
            rels.append(data.draw(st.sampled_from(rels)))
        else:
            first, second = data.draw(st.lists(st.sampled_from(rels), min_size=2, max_size=2))
            rels.append(first.intersect(second))
        labels.append(tuple(data.draw(st.lists(st.integers(0, 2), max_size=3))))
    base = EntourageBase(tuple(rels), tuple(labels))
    assert check_uniformity_base(base) == scan_uniformity_base(base)
    assert check_agreement_intersection(base) == scan_agreement_intersection(base)
    assert base.meet_misses.tolist() == loop_meet_misses(base)


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_stacked_continuity_builds_the_sources_that_label_no_member(name):
    # E(K) replaced by the diagonal and the member labeled with its source
    # set L dropped: E(L) must be built, as the pushforward builds it
    space = SPACES[name]
    base = prodiscrete_base(space, 2)
    failures = 0
    for seed in range(2):
        gm = GlobalMap.from_automaton(_random_rule(space, 2, seed, symmetrize=False))
        for index, (cells, source) in enumerate(continuity_assignments(gm, base.labels)):
            if source == cells:
                continue
            rels, labels = list(base.relations), list(base.labels)
            rels[index] = Relation.diagonal(rels[index].size)
            dropped = labels.index(source)
            del rels[dropped], labels[dropped]
            doctored = EntourageBase(tuple(rels), tuple(labels))
            want = pushforward_continuity(gm, doctored)
            assert check_uniform_continuity(gm, doctored) == want
            failures += not want.verdict.ok
    assert failures


def _target_sets(cells, rng):
    """Every single cell, the empty set, all cells, and random sets, some
    unsorted and some with repeats."""
    sets = [(c,) for c in range(cells)] + [(), tuple(range(cells))[::-1]]
    for _ in range(20):
        sets.append(tuple(int(c) for c in rng.integers(0, cells, int(rng.integers(1, 4)))))
    return sets


@pytest.mark.parametrize("name", sorted(AUTOMATA))
def test_stacked_assignments_and_windows_equal_the_member_loops(name):
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


def test_stacked_checks_take_less_memory_than_the_member_stacks():
    # the in-bound worst case: 256 members of 256 x 256 pairs.  The stack
    # itself is 16 MiB; the checks gathered about as much again, and the
    # row-at-a-time form peaked at 54.1 MiB over these four calls
    space = cyclic_space(8)
    gm = GlobalMap(space, 2, np.arange(256)[::-1].copy())
    depends = dependency_matrix(gm)
    tracemalloc.start()
    try:
        base = prodiscrete_base(space, 2)
        verdicts = [check_uniformity_base(base), check_agreement_intersection(base)]
        verdicts.append(check_uniform_continuity(gm, base, depends).verdict)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.ok for v in verdicts)
    assert peak <= 2 * base.stack.nbytes


# ------------------------------------------------ agreement intersection


def scan_agreement_intersection(base):
    """E(K) & E(K') against the member labeled K | K', pair by pair; a
    union that labels no member fails."""
    labels = base.labels
    for i, k1 in enumerate(labels):
        for j, k2 in enumerate(labels):
            merged = tuple(sorted(set(k1) | set(k2)))
            if merged not in labels or (
                base.relations[i].intersect(base.relations[j]) != base.relations[labels.index(merged)]
            ):
                return Verdict.failing("agreement-intersection", {"first": list(k1), "second": list(k2)})
    return Verdict.passing("agreement-intersection")


def loop_meet_misses(base):
    """The pairs (i, k), i <= k, in row-major order, whose meet is not
    the member labeled with the sorted union of their labels."""
    labels, rels = base.labels, base.relations
    misses = []
    for i in range(len(rels)):
        for k in range(i, len(rels)):
            merged = tuple(sorted(set(labels[i]) | set(labels[k])))
            if merged not in labels or rels[i].intersect(rels[k]) != rels[labels.index(merged)]:
                misses.append([i, k])
    return misses


def _relabeled(base, relations=None, labels=None):
    return EntourageBase(
        tuple(base.relations if relations is None else relations),
        tuple(base.labels if labels is None else labels),
    )


@pytest.mark.parametrize("cells", [1, 2, 3, 4])
def test_agreement_intersection_matches_the_scalar_loop(cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    assert check_agreement_intersection(base) == scan_agreement_intersection(base)
    assert check_agreement_intersection(base).ok
    rels, labels = list(base.relations), list(base.labels)
    size = rels[0].size
    asymmetric = np.eye(size, dtype=bool)
    asymmetric[0, -1] = True
    doctored = []
    for index in range(len(rels)):
        for replacement in (Relation.diagonal(size), Relation.full(size), Relation(size, asymmetric)):
            doctored.append(_relabeled(base, relations=rels[:index] + [replacement] + rels[index + 1 :]))
        # a dropped member leaves unions that label nothing
        doctored.append(_relabeled(base, rels[:index] + rels[index + 1 :], labels[:index] + labels[index + 1 :]))
        # a label that is not sorted never equals a union
        if len(labels[index]) > 1:
            reversed_label = labels[:index] + [labels[index][::-1]] + labels[index + 1 :]
            doctored.append(_relabeled(base, labels=reversed_label))
        # two labels swapped, or a member appended again under its label
        other = (index * 5 + 1) % len(rels)
        swapped = list(labels)
        swapped[index], swapped[other] = swapped[other], swapped[index]
        doctored.append(_relabeled(base, labels=swapped))
        doctored.append(_relabeled(base, rels + [rels[index]], labels + [labels[index]]))
    failures = 0
    for candidate in doctored:
        verdict = check_agreement_intersection(candidate)
        assert verdict == scan_agreement_intersection(candidate), candidate.labels
        failures += not verdict.ok
    assert failures


def test_agreement_intersection_reports_the_first_failing_pair():
    base = prodiscrete_base(cyclic_space(3), 2)
    assert base.labels[:4] == ((), (0,), (1,), (0, 1))
    rels = list(base.relations)
    rels[1] = Relation.diagonal(rels[1].size)
    # E(()) & E(0) is the doctored member itself; E(0) & E(1) is not E(0, 1)
    verdict = check_agreement_intersection(_relabeled(base, relations=rels))
    assert verdict == Verdict.failing("agreement-intersection", {"first": [0], "second": [1]})
    # with E(0, 1) dropped, the union of (0,) and (1,) labels nothing
    rels, labels = base.relations, base.labels
    verdict = check_agreement_intersection(_relabeled(base, rels[:3] + rels[4:], labels[:3] + labels[4:]))
    assert verdict == Verdict.failing("agreement-intersection", {"first": [0], "second": [1]})


# ------------------------------------------------------------ continuity


def pushforward_continuity(gm, base):
    """image_relation(E(L)) inside E(K), one labeled member at a time,
    with E(L) built by agreement_relation."""
    assignments = []
    for (cells, source), rel in zip(continuity_assignments(gm, base.labels), base.relations):
        if not image_relation(gm, agreement_relation(gm.space, gm.states, source)).issubset(rel):
            witness = {"target_cells": list(cells), "candidate_source": list(source)}
            return ContinuityResult(Verdict.failing("uniform-continuity", witness), tuple(assignments))
        assignments.append((cells, source))
    witness = {"assignments": [[list(k), list(l)] for k, l in assignments]}
    return ContinuityResult(Verdict.passing("uniform-continuity", witness), tuple(assignments))


@pytest.mark.parametrize(
    "cells, states", [(1, 2), (1, 5), (2, 3), (3, 2), (3, 5), (4, 2), (4, 3), (5, 2), (6, 2)]
)
def test_continuity_matches_the_pushforward_on_random_tables(cells, states):
    space = cyclic_space(cells)
    base = prodiscrete_base(space, states)
    rng = np.random.default_rng(cells * 10 + states)
    total = states**cells
    for table in (np.arange(total), rng.permutation(total), rng.integers(0, total, total)):
        gm = GlobalMap(space, states, table)
        result = check_uniform_continuity(gm, base)
        assert result == pushforward_continuity(gm, base)
        assert result.verdict.ok


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube"])
def test_doctored_bases_fail_continuity_as_the_pushforward_does(name):
    # E(K) replaced by the diagonal: under a local rule the source set L of
    # K is seldom every cell, and agreement on L then seldom fixes the
    # whole image.  The check reads E(L) from the base, so K = L is skipped.
    space = SPACES[name]
    base = prodiscrete_base(space, 2)
    failures = 0
    for seed in range(3):
        gm = GlobalMap.from_automaton(_random_rule(space, 2, seed, symmetrize=False))
        assert check_uniform_continuity(gm, base) == pushforward_continuity(gm, base)
        for index, (cells, source) in enumerate(continuity_assignments(gm, base.labels)):
            if source == cells:
                continue
            rels = list(base.relations)
            rels[index] = Relation.diagonal(rels[index].size)
            doctored = _relabeled(base, relations=rels)
            want = pushforward_continuity(gm, doctored)
            assert check_uniform_continuity(gm, doctored) == want
            failures += not want.verdict.ok
    assert failures


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
