"""Entourage relations over packed configurations and their base axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homoca.catalog import cyclic_space, identity_automaton, or_automaton
from homoca.errors import BoundError, InputError
from homoca.laws import GlobalMap, NotInvertible, dependency_matrix, invert
from homoca.uniformity import (
    RELATION_UNIVERSE_BOUND,
    EntourageBase,
    Relation,
    agreement_relation,
    check_continuity_window,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
    continuity_assignments,
    image_relation,
    prodiscrete_base,
    rel_compose,
)
from homoca.verdict import Verdict

# ----------------------------------------------------------------- algebra


def naive_compose(first, second):
    n = first.size
    out = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            if first.pairs[x, y]:
                for z in range(n):
                    if second.pairs[y, z]:
                        out[x, z] = True
    return Relation(n, out)


small_relations = arrays(bool, (5, 5)).map(lambda m: Relation(5, m))


@given(r=small_relations, s=small_relations)
@settings(max_examples=60, deadline=None)
def test_relation_composition_matches_the_naive_oracle(r, s):
    assert rel_compose(r, s) == naive_compose(r, s)


@given(r=small_relations, s=small_relations, t=small_relations)
@settings(max_examples=60, deadline=None)
def test_relation_composition_is_associative(r, s, t):
    assert rel_compose(rel_compose(r, s), t) == rel_compose(r, rel_compose(s, t))


@given(r=small_relations, s=small_relations)
@settings(max_examples=60, deadline=None)
def test_inverse_reverses_composition(r, s):
    assert rel_compose(r, s).inverse() == rel_compose(s.inverse(), r.inverse())
    assert r.inverse().inverse() == r


@given(r=small_relations, s=small_relations)
@settings(max_examples=60, deadline=None)
def test_intersection_is_a_lower_bound(r, s):
    meet = r.intersect(s)
    assert meet.issubset(r) and meet.issubset(s)
    assert meet == s.intersect(r)


def test_relation_shape_is_validated():
    with pytest.raises(InputError):
        Relation(3, np.zeros((3, 4), dtype=bool))
    with pytest.raises(InputError):
        Relation(3, np.zeros((3, 3), dtype=bool)).intersect(Relation(2, np.zeros((2, 2), dtype=bool)))


def test_diagonal_and_full_relations():
    d = Relation.diagonal(4)
    f = Relation.full(4)
    assert d.contains_diagonal() and f.contains_diagonal()
    assert d.issubset(f) and not f.issubset(d)
    assert rel_compose(d, f) == f
    assert rel_compose(d, d) == d


# -------------------------------------------------------------- agreement


def test_agreement_relations_on_two_cells_frozen():
    space = cyclic_space(2)
    full = agreement_relation(space, 2, ())
    assert full == Relation.full(4)
    everything = agreement_relation(space, 2, (0, 1))
    assert everything == Relation.diagonal(4)
    # agreement on cell 0 alone: codes sharing their low bit
    low = agreement_relation(space, 2, (0,))
    expected = np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool
    )
    assert low == Relation(4, expected)


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_prodiscrete_base_passes_the_axioms(cells):
    space = cyclic_space(cells)
    base = prodiscrete_base(space, 2)
    assert len(base.relations) == 2**cells
    assert base.labels[0] == ()
    assert base.labels[-1] == tuple(range(cells))
    assert check_uniformity_base(base).ok


@pytest.mark.parametrize("cells", [2, 3])
def test_agreement_intersection_is_agreement_on_the_union(cells):
    space = cyclic_space(cells)
    base = prodiscrete_base(space, 2)
    lookup = dict(zip(base.labels, base.relations))
    for k1, r1 in lookup.items():
        for k2, r2 in lookup.items():
            merged = tuple(sorted(set(k1) | set(k2)))
            assert r1.intersect(r2) == lookup[merged]


def test_one_state_bases_past_the_bound_are_refused_before_any_member():
    # one configuration, but 2**cells members: 256 fit the bound, 512 do not
    assert len(prodiscrete_base(cyclic_space(8), 1).relations) == RELATION_UNIVERSE_BOUND
    with pytest.raises(BoundError, match="^512 agreement relations exceed the relation bound$"):
        prodiscrete_base(cyclic_space(9), 1)
    # with two states the configurations outnumber the members and are named first
    with pytest.raises(BoundError, match="^512 configurations exceed the relation bound$"):
        prodiscrete_base(cyclic_space(9), 2)
    verdict = check_uniform_isomorphism(GlobalMap.from_automaton(identity_automaton(cyclic_space(9), 1)))
    assert verdict.ok
    assert verdict.witness["relationally_verified"] is False


def test_agreement_relations_are_equivalences():
    base = prodiscrete_base(cyclic_space(3), 2)
    for rel in base.relations:
        assert rel.contains_diagonal()
        assert rel == rel.inverse()
        assert rel_compose(rel, rel) == rel


def test_base_axioms_fail_with_witnesses():
    # not reflexive
    hollow = Relation(3, np.zeros((3, 3), dtype=bool))
    verdict = check_uniformity_base(EntourageBase((hollow,)))
    assert not verdict.ok and verdict.law == "base-reflexive"
    # meets escape the family
    space = cyclic_space(2)
    base = EntourageBase(
        (agreement_relation(space, 2, (0,)), agreement_relation(space, 2, (1,)))
    )
    verdict = check_uniformity_base(base)
    assert not verdict.ok and verdict.law == "base-meet"
    # asymmetric member with no inverse bound in the family
    chain = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    verdict = check_uniformity_base(EntourageBase((chain,)))
    assert not verdict.ok and verdict.law == "base-inverse"
    # symmetric but not transitive: composing with itself escapes
    path = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])
    verdict = check_uniformity_base(EntourageBase((path,)))
    assert not verdict.ok and verdict.law == "base-square-root"
    # empty family
    assert check_uniformity_base(EntourageBase(())).law == "base-nonempty"


def test_pushing_relations_through_a_map():
    space = cyclic_space(2)
    gm = GlobalMap(space, 2, [3, 2, 1, 0])  # an involution
    assert image_relation(gm, Relation.diagonal(4)) == Relation.diagonal(4)
    assert image_relation(gm, Relation.full(4)) == Relation.full(4)
    one_pair = Relation.from_pairs(4, [(0, 1)])
    pushed = image_relation(gm, one_pair)
    assert pushed == Relation.from_pairs(4, [(3, 2)])


# -------------------------------------------------------------- continuity


def test_identity_needs_exactly_its_own_cells():
    space = cyclic_space(3)
    gm = GlobalMap.from_automaton(identity_automaton(space))
    base = prodiscrete_base(space, 2)
    result = check_uniform_continuity(gm, base)
    assert result.verdict.ok
    for cells, source in result.assignments:
        assert source == cells


def test_global_or_needs_every_cell():
    space = cyclic_space(3)
    gm = GlobalMap.from_automaton(or_automaton(space))
    base = prodiscrete_base(space, 2)
    result = check_uniform_continuity(gm, base)
    assert result.verdict.ok
    for cells, source in result.assignments:
        assert source == (() if not cells else (0, 1, 2))


def test_assignments_are_the_dependency_unions(automata):
    gm = GlobalMap.from_automaton(automata["square_or"])
    base = prodiscrete_base(gm.space, 2)
    result = check_uniform_continuity(gm, base)
    assert result.verdict.ok
    deps = dependency_matrix(gm)
    depends = {m: set(np.flatnonzero(deps[m]).tolist()) for m in range(4)}
    for cells, source in result.assignments:
        want = set()
        for m in cells:
            want |= depends[m]
        assert source == tuple(sorted(want))


def test_assignments_without_relations_match_the_relational_ones(automata):
    gm = GlobalMap.from_automaton(automata["cube_or"])
    base = prodiscrete_base(gm.space, 2)
    relational = check_uniform_continuity(gm, base).assignments
    direct = continuity_assignments(gm, base.labels)
    assert direct == relational


@pytest.mark.parametrize("cell", [-1, 6])
def test_continuity_refuses_a_cell_out_of_range(automata, cell):
    # the cube has cells 0..5; -1 was read as cell 5, and 6 past the end
    ca = automata["cube_or"]
    gm = GlobalMap.from_automaton(ca)
    message = f"cell {cell} out of range"
    with pytest.raises(InputError, match=message):
        agreement_relation(gm.space, 2, [cell])
    with pytest.raises(InputError, match=message):
        continuity_assignments(gm, [(0,), (cell,)])
    for assignments in ([((cell,), (0,))], [((0,), (1, cell))]):
        with pytest.raises(InputError, match=message):
            check_continuity_window(gm.space, ca.neighborhood, assignments)


def test_torus_assignments_stay_inside_the_observation_window(automata):
    # the relation bound excludes the torus, but the dependency route works
    ca = automata["torus_or"]
    gm = GlobalMap.from_automaton(ca)
    singletons = [(m,) for m in range(16)]
    for (m,), source in continuity_assignments(gm, singletons):
        window = {int(c) for c in ca.neighbor_cells[m]}
        assert set(source) == window


# ------------------------------------------------------------ isomorphism


def test_shift_is_a_uniform_isomorphism(automata):
    verdict = check_uniform_isomorphism(GlobalMap.from_automaton(automata["cyclic4_shift"]))
    assert verdict.ok
    assert verdict.witness["relationally_verified"]
    assert verdict.witness["forward_sources"] == [[1], [2], [3], [0]]
    assert verdict.witness["inverse_sources"] == [[3], [0], [1], [2]]


def test_or_is_not_a_uniform_isomorphism(automata):
    gm = GlobalMap.from_automaton(automata["square_or"])
    verdict = check_uniform_isomorphism(gm)
    assert not verdict.ok
    a, b = verdict.witness["colliding_codes"]
    assert a != b and int(gm.table[a]) == int(gm.table[b])


def test_isomorphism_beyond_the_relation_bound_skips_matrix_checks(automata):
    verdict = check_uniform_isomorphism(GlobalMap.from_automaton(automata["torus_identity"]))
    assert verdict.ok
    assert verdict.witness["relationally_verified"] is False


AUTOMATA = [
    "cyclic4_identity",
    "cyclic4_shift",
    "cyclic4_or",
    "square_identity",
    "square_or",
    "cube_identity",
    "cube_or",
    "torus_identity",
    "torus_or",
]


@pytest.mark.parametrize("name", AUTOMATA)
def test_a_given_base_and_dependency_matrix_change_nothing(name, automata):
    gm = GlobalMap.from_automaton(automata[name])
    depends = dependency_matrix(gm)
    singletons = [(m,) for m in range(gm.space.cells)]
    assert continuity_assignments(gm, singletons, depends) == continuity_assignments(gm, singletons)
    base = None
    if gm.table.size <= RELATION_UNIVERSE_BOUND:
        base = prodiscrete_base(gm.space, 2)
        assert check_uniform_continuity(gm, base, depends) == check_uniform_continuity(gm, base)
    assert check_uniform_isomorphism(gm, base, depends) == check_uniform_isomorphism(gm)


def test_isomorphism_reverifies_on_the_given_base(automata):
    # E(0) replaced by the diagonal: agreeing on cell 1 no longer forces the
    # shifted images into E(0), so the forward direction fails
    gm = GlobalMap.from_automaton(automata["cyclic4_shift"])
    base = prodiscrete_base(gm.space, 2)
    rels = list(base.relations)
    rels[base.labels.index((0,))] = Relation.diagonal(16)
    doctored = EntourageBase(tuple(rels), base.labels)
    continuity = check_uniform_continuity(gm, doctored)
    assert continuity.verdict.witness == {"target_cells": [0], "candidate_source": [1]}
    assert check_uniform_isomorphism(gm, doctored) == Verdict.failing(
        "uniform-isomorphism",
        {"reason": "forward direction not uniformly continuous", "detail": continuity.verdict.witness},
    )


@pytest.mark.parametrize("name", AUTOMATA)
def test_isomorphism_agrees_with_invertibility(name, automata):
    ca = automata[name]
    iso = check_uniform_isomorphism(GlobalMap.from_automaton(ca))
    invertible = not isinstance(invert(ca), NotInvertible)
    assert iso.ok == invertible
