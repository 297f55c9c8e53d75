"""Agreement relations held as labelings, their base axioms, continuity
and isomorphism; the relation matrices of `relation_oracles` as the
oracle."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from homoca.catalog import cyclic_space, identity_automaton, or_automaton, torus_space
from homoca.errors import BoundError, InputError
from homoca.laws import GlobalMap, NotInvertible, dependency_matrix, invert
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
from plain_forms import with_dependencies
from relation_oracles import (
    Relation,
    RelationFamily,
    agreement_matrix,
    image_relation,
    rel_compose,
    scan_uniformity_base,
)

# ------------------------------------------------------- oracle algebra


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


def kernel(labels):
    """The relation 'equal labels' on the configurations."""
    return Relation(len(labels), labels[:, None] == labels[None, :])


def test_agreement_labelings_on_two_cells_frozen():
    space = cyclic_space(2)
    assert agreement_relation(space, 2, ()).tolist() == [0, 0, 0, 0]
    assert agreement_relation(space, 2, (0, 1)).tolist() == [0, 1, 2, 3]
    # agreement on cell 0 alone: codes sharing their low bit
    low = agreement_relation(space, 2, (0,))
    assert low.tolist() == [0, 1, 0, 1]
    expected = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool)
    assert kernel(low) == Relation(4, expected) == agreement_matrix(space, 2, (0,))
    assert kernel(agreement_relation(space, 2, ())) == Relation.full(4)
    assert kernel(agreement_relation(space, 2, (1, 0, 1))) == Relation.diagonal(4)


def test_labels_are_the_codes_of_the_projected_configurations():
    # label x is x with the digits off K set to 0, in the code type
    space = cyclic_space(3)
    labels = agreement_relation(space, 3, (0, 2))
    assert labels.dtype == np.uint8
    codes = np.arange(27)
    assert np.array_equal(labels, codes - (codes // 3 % 3) * 3)


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_prodiscrete_base_passes_the_axioms(cells):
    base = prodiscrete_base(cyclic_space(cells), 2)
    assert check_uniformity_base(base) == Verdict.passing("uniformity-base")
    assert check_agreement_intersection(base) == Verdict.passing("agreement-intersection")


@pytest.mark.parametrize("cells", [2, 3])
def test_agreement_intersection_is_agreement_on_the_union(cells):
    space = cyclic_space(cells)
    sets = [tuple(c for c in range(cells) if mask >> c & 1) for mask in range(1 << cells)]
    for k1 in sets:
        for k2 in sets:
            meet = kernel(agreement_relation(space, 2, k1)).intersect(kernel(agreement_relation(space, 2, k2)))
            assert meet == kernel(agreement_relation(space, 2, k1 + k2))


def test_agreement_relations_are_equivalences():
    space = cyclic_space(3)
    for mask in range(8):
        rel = kernel(agreement_relation(space, 2, [c for c in range(3) if mask >> c & 1]))
        assert rel.contains_diagonal()
        assert rel == rel.inverse()
        assert rel_compose(rel, rel) == rel


def test_labelings_past_the_table_bound_are_refused():
    with pytest.raises(BoundError, match="^43046721 configurations exceed the table bound$"):
        agreement_relation(torus_space(), 3, (0,))


def test_one_state_bases_of_any_size_are_exact_and_quick():
    # one configuration, but 2**30 agreement relations: no member is built
    # until a check reads it, and continuity reads thirty labelings of one entry
    start = time.perf_counter()
    space = cyclic_space(30)
    base = prodiscrete_base(space, 1)
    assert check_uniformity_base(base).ok and check_agreement_intersection(base).ok
    gm = GlobalMap.from_automaton(identity_automaton(space, 1))
    result = check_uniform_continuity(gm)
    assert result.verdict.ok
    assert result.assignments == tuple(((m,), ()) for m in range(30))
    verdict = check_uniform_isomorphism(gm)
    assert verdict.ok and verdict.witness["inverse_sources"] == [[]] * 30
    assert time.perf_counter() - start < 1.0


def test_base_axioms_fail_with_witnesses_in_the_oracle():
    # the scan over relation matrices finds each failing condition
    hollow = Relation(3, np.zeros((3, 3), dtype=bool))
    verdict = scan_uniformity_base(RelationFamily((hollow,)))
    assert not verdict.ok and verdict.law == "base-reflexive"
    # meets escape the family
    space = cyclic_space(2)
    family = RelationFamily((agreement_matrix(space, 2, (0,)), agreement_matrix(space, 2, (1,))))
    verdict = scan_uniformity_base(family)
    assert not verdict.ok and verdict.law == "base-meet"
    # asymmetric member with no inverse bound in the family
    chain = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    verdict = scan_uniformity_base(RelationFamily((chain,)))
    assert not verdict.ok and verdict.law == "base-inverse"
    # symmetric but not transitive: composing with itself escapes
    path = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])
    verdict = scan_uniformity_base(RelationFamily((path,)))
    assert not verdict.ok and verdict.law == "base-square-root"
    # empty family
    assert scan_uniformity_base(RelationFamily(())).law == "base-nonempty"


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
    result = check_uniform_continuity(gm)
    assert result.verdict.ok
    assert result.assignments == (((0,), (0,)), ((1,), (1,)), ((2,), (2,)))
    assert result.verdict.witness == {"assignments": [[[0], [0]], [[1], [1]], [[2], [2]]]}


def test_global_or_needs_every_cell():
    space = cyclic_space(3)
    gm = GlobalMap.from_automaton(or_automaton(space))
    result = check_uniform_continuity(gm)
    assert result.verdict.ok
    for cells, source in result.assignments:
        assert source == (0, 1, 2)


def test_assignments_are_the_dependency_unions(automata):
    gm = GlobalMap.from_automaton(automata["square_or"])
    result = check_uniform_continuity(gm)
    assert result.verdict.ok
    deps = dependency_matrix(gm)
    depends = {m: tuple(np.flatnonzero(deps[m]).tolist()) for m in range(4)}
    assert result.assignments == tuple(((m,), depends[m]) for m in range(4))
    # every other target's source is the union of its cells' sources
    for cells, source in continuity_assignments(gm, [(), (0, 2), (3, 1, 3), (0, 1, 2, 3)]):
        assert set(source) == set().union(*(depends[m] for m in cells))


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


def test_torus_sources_are_checked_and_stay_inside_the_observation_window(automata):
    # 65536 configurations, past what relation matrices could hold
    ca = automata["torus_or"]
    gm = GlobalMap.from_automaton(ca)
    result = check_uniform_continuity(gm)
    assert result.verdict.ok
    for (m,), source in result.assignments:
        assert set(source) == {int(c) for c in ca.neighbor_cells[m]}
    assert check_continuity_window(ca.space, ca.neighborhood, result.assignments).ok


def test_a_dropped_dependency_fails_at_its_cell(automata):
    gm = GlobalMap.from_automaton(automata["torus_or"])
    depends = dependency_matrix(gm)
    doctored = depends.copy()
    doctored[5, int(np.flatnonzero(depends[5])[-1])] = False
    result = check_uniform_continuity(with_dependencies(gm, doctored))
    source = [int(c) for c in np.flatnonzero(doctored[5])]
    assert result.verdict == Verdict.failing(
        "uniform-continuity", {"target_cells": [5], "candidate_source": source}
    )
    assert len(result.assignments) == 5


# ------------------------------------------------------------ isomorphism


def test_shift_is_a_uniform_isomorphism(automata):
    verdict = check_uniform_isomorphism(GlobalMap.from_automaton(automata["cyclic4_shift"]))
    assert verdict == Verdict.passing(
        "uniform-isomorphism",
        {"forward_sources": [[1], [2], [3], [0]], "inverse_sources": [[3], [0], [1], [2]]},
    )


def test_or_is_not_a_uniform_isomorphism(automata):
    gm = GlobalMap.from_automaton(automata["square_or"])
    verdict = check_uniform_isomorphism(gm)
    assert not verdict.ok
    a, b = verdict.witness["colliding_codes"]
    assert a != b and int(gm.table[a]) == int(gm.table[b])


def test_torus_identity_is_checked_in_both_directions(automata):
    verdict = check_uniform_isomorphism(GlobalMap.from_automaton(automata["torus_identity"]))
    singletons = [[m] for m in range(16)]
    assert verdict == Verdict.passing(
        "uniform-isomorphism", {"forward_sources": singletons, "inverse_sources": singletons}
    )


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
def test_a_given_dependency_matrix_changes_nothing(name, automata):
    # the automaton's map, its facts decided, against a fresh map given
    # a copy of its dependency matrix
    gm = GlobalMap.from_automaton(automata[name])
    given = with_dependencies(gm, dependency_matrix(gm).copy())
    singletons = [(m,) for m in range(gm.space.cells)]
    assert continuity_assignments(given, singletons) == continuity_assignments(gm, singletons)
    assert check_uniform_continuity(given) == check_uniform_continuity(gm)
    assert check_uniform_isomorphism(given) == check_uniform_isomorphism(gm)


def test_isomorphism_reports_a_direction_that_fails(automata):
    # cell 0 of the shift reads cell 1; with that dependency dropped, the
    # forward direction fails at cell 0
    gm = GlobalMap.from_automaton(automata["cyclic4_shift"])
    doctored = dependency_matrix(gm).copy()
    doctored[0, 1] = False
    given = with_dependencies(gm, doctored)
    continuity = check_uniform_continuity(given)
    assert continuity.verdict.witness == {"target_cells": [0], "candidate_source": []}
    assert check_uniform_isomorphism(given) == Verdict.failing(
        "uniform-isomorphism",
        {"reason": "forward direction not uniformly continuous", "detail": continuity.verdict.witness},
    )


@pytest.mark.parametrize("name", AUTOMATA)
def test_isomorphism_agrees_with_invertibility(name, automata):
    ca = automata[name]
    iso = check_uniform_isomorphism(GlobalMap.from_automaton(ca))
    invertible = not isinstance(invert(ca), NotInvertible)
    assert iso.ok == invertible
