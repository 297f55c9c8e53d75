"""The batched step kernel against the independent slow oracles.

`step_via_origin` computes the step the other way around (pull back to the
origin, apply the origin form of the rule), and the reference loops below
are the scalar, one-configuration-at-a-time forms of the sampled checks, so
neither can share a bug with the batched gather they check.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca import laws
from homoca.automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    iterate,
    shift,
    step,
    step_batch,
    step_via_origin,
)
from homoca.catalog import bundled_spaces, random_rule_automaton, torus_neighborhood
from homoca.encoding import decode, encode
from homoca.errors import BoundError, InputError
from homoca.laws import (
    GlobalMap,
    NotInvertible,
    check_equivariance,
    config_count,
    global_table,
    invert,
)

SPACES = bundled_spaces()


def _rule(space, states, seed, symmetrize, seeds=2):
    """A random rule over the closure of a few seeded coset indices."""
    rng = random.Random(seed)
    picked = rng.sample(range(space.num_cosets), min(seeds, space.num_cosets))
    return random_rule_automaton(space, closed_neighborhood(space, picked), states, rng, symmetrize)


# ------------------------------------------------------------ kernel


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    states=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    rows=st.integers(1, 12),
)
def test_step_batch_rows_equal_the_origin_form(name, states, seed, symmetrize, rows):
    # the torus with 3 states is past the table bound, where only sampling runs
    ca = _rule(SPACES[name], states, seed, symmetrize)
    rng = random.Random(seed + 1)
    configs = [tuple(rng.randrange(states) for _ in range(ca.space.cells)) for _ in range(rows)]
    out = step_batch(ca, configs)
    assert out.shape == (rows, ca.space.cells)
    for config, row in zip(configs, out.tolist()):
        assert tuple(row) == step_via_origin(ca, config)


def test_step_batch_accepts_no_rows_and_narrow_dtypes():
    ca = _rule(SPACES["square"], 3, 4, True)
    assert step_batch(ca, np.zeros((0, 4), dtype=np.int64)).shape == (0, 4)
    configs = np.array([[0, 1, 2, 1], [2, 2, 0, 1]], dtype=np.uint8)
    assert step_batch(ca, configs).tolist() == [list(step(ca, tuple(c))) for c in configs.tolist()]


@pytest.mark.parametrize(
    "configs",
    [
        [(0, 1, 0)],  # a cell short
        [(0, 1, 0, 3)],  # a state past the range
        [(0, -1, 0, 0)],  # a negative state
        [(0, 1, 0, 10**30)],  # too large for any integer dtype
        [(0, 1, 0, 0.5)],  # not an integer
        [(0, 1, 0, 0), (0, 1)],  # ragged
        (0, 1, 0, 0),  # one configuration, not a batch
    ],
)
def test_step_batch_rejects_malformed_configurations(configs):
    ca = _rule(SPACES["square"], 3, 4, True)
    with pytest.raises(InputError):
        step_batch(ca, configs)


def test_iterate_matches_repeated_steps():
    ca = _rule(SPACES["torus"], 3, 9, False)
    rng = random.Random(2)
    config = tuple(rng.randrange(3) for _ in range(16))
    trace = iterate(ca, config, 20).tolist()
    assert trace[0] == list(config)
    for before, after in zip(trace, trace[1:]):
        assert tuple(after) == step_via_origin(ca, tuple(before))
    assert iterate(ca, config, 0).tolist() == [list(config)]


def test_the_empty_neighborhood_steps_to_a_constant():
    space = SPACES["cube"]
    ca = SemiCellularAutomaton(space, 3, (), (2,))
    assert step_batch(ca, [(0,) * 6, (1, 2, 0, 1, 2, 0)]).tolist() == [[2] * 6] * 2


# ------------------------------------------------------- global table


@pytest.mark.parametrize("name", ["cyclic4", "square", "cube", "torus"])
def test_global_table_does_not_depend_on_the_chunk_size(name, monkeypatch):
    states = 3 if name != "torus" else 2
    ca = _rule(SPACES[name], states, 11, False)
    whole = global_table(ca)
    monkeypatch.setattr(laws, "GATHER_ROWS", 7)
    assert np.array_equal(global_table(ca), whole)


def test_global_table_rows_are_steps():
    ca = _rule(SPACES["cube"], 3, 5, False)
    table = global_table(ca)
    for code in random.Random(0).sample(range(len(table)), 50):
        config = decode(code, 3, 6)
        assert int(table[code]) == encode(step_via_origin(ca, config), 3)


# ------------------------------------------------- sampled references


def reference_equivariance(ca, members, samples, seed):
    """The scalar form: one sample at a time, one shift at a time."""
    space = ca.space
    rng = random.Random(seed)
    total = config_count(space, ca.states)
    for _ in range(samples):
        config = decode(rng.randrange(total), ca.states, space.cells)
        image = step(ca, config)
        for h in members:
            left = step(ca, shift(space, h, config))
            right = shift(space, h, image)
            if left != right:
                return {
                    "element": h,
                    "config": list(config),
                    "map_then_shift": list(right),
                    "shift_then_map": list(left),
                }
    return None


def reference_collision(ca, samples, seed):
    space = ca.space
    rng = random.Random(seed)
    total = config_count(space, ca.states)
    seen = {}
    for _ in range(samples):
        config = decode(rng.randrange(total), ca.states, space.cells)
        image = encode(step(ca, config), ca.states)
        if image in seen and seen[image] != config:
            return {
                "colliding": [list(seen[image]), list(config)],
                "image": list(decode(image, ca.states, space.cells)),
            }
        seen[image] = config
    return None


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_sampled_equivariance_witness_equals_the_scalar_loop(seed):
    ca = _rule(SPACES["torus"], 3, 100 + seed, False)
    verdict = check_equivariance(GlobalMap.from_automaton(ca), seed=seed)
    assert verdict.sampled and not verdict.ok
    members = ca.space.group.elements()
    assert verdict.witness == reference_equivariance(ca, members, laws.SAMPLE_COUNT, seed)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_sampled_equivariance_pass_equals_the_scalar_loop(seed, monkeypatch):
    # a few samples per chunk, so that the chunk boundaries are crossed
    monkeypatch.setattr(laws, "GATHER_ROWS", 3 * 65)
    ca = _rule(SPACES["torus"], 3, seed, True)
    verdict = check_equivariance(GlobalMap.from_automaton(ca), samples=10, seed=seed)
    assert verdict.ok and verdict.sampled
    assert reference_equivariance(ca, ca.space.group.elements(), 10, seed) is None


@pytest.mark.parametrize("rows", [1, 512])
@pytest.mark.parametrize("seed", [0, 4, 9])
def test_sampled_equivariance_with_a_late_failure(seed, rows, monkeypatch):
    # a rule that breaks rotation invariance on one rare local pattern, so
    # the first failing sample is not the first one: it lies in a later
    # chunk of one sample each, or inside the first chunk of several
    monkeypatch.setattr(laws, "GATHER_ROWS", rows)
    space = SPACES["torus"]
    neighborhood = torus_neighborhood(space)
    rule = [0] * 3 ** len(neighborhood)
    rule[encode((2, 2, 1, 0, 0), 3)] = 1
    ca = SemiCellularAutomaton(space, 3, neighborhood, rule)
    verdict = check_equivariance(GlobalMap(space, 3, automaton=ca), samples=200, seed=seed)
    expected = reference_equivariance(ca, space.group.elements(), 200, seed)
    assert verdict.sampled and not verdict.ok
    assert verdict.witness == expected


def _max_rule(space, states):
    """max over the von Neumann neighbourhood: rotation-invariant, and
    far from injective, so random samples collide quickly."""
    neighborhood = torus_neighborhood(space)
    width = len(neighborhood)
    rule = [max(decode(code, states, width)) for code in range(states**width)]
    return SemiCellularAutomaton(space, states, neighborhood, rule)


@pytest.mark.parametrize("seed", [0, 1, 5, 99])
def test_sampled_collision_witness_equals_the_scalar_loop(seed):
    ca = _max_rule(SPACES["torus"], 3)
    result = invert(ca, seed=seed)
    assert isinstance(result, NotInvertible) and result.sampled
    assert result.witness == reference_collision(ca, laws.SAMPLE_COUNT, seed)


@pytest.mark.parametrize("seed", [0, 2])
def test_collision_search_without_a_collision_refuses_like_the_scalar_loop(seed):
    ca = _rule(SPACES["torus"], 3, 40 + seed, True, seeds=4)
    assert reference_collision(ca, laws.SAMPLE_COUNT, seed) is None
    with pytest.raises(BoundError):
        invert(ca, seed=seed)


# ---------------------------------------------------------- GlobalMap


def test_an_automaton_backed_map_applies_through_the_kernel():
    ca = _rule(SPACES["torus"], 3, 6, False)
    gm = GlobalMap.from_automaton(ca)
    assert not gm.exhaustive and gm.automaton is ca
    config = decode(12345, 3, 16)
    assert gm.apply(config) == step_via_origin(ca, config)
    assert gm.apply_code(12345) == encode(step_via_origin(ca, config), 3)


def test_a_global_map_needs_exactly_one_source():
    ca = _rule(SPACES["cyclic4"], 2, 1, False)
    with pytest.raises(InputError):
        GlobalMap(ca.space, 2, table=global_table(ca), automaton=ca)
    with pytest.raises(InputError):
        GlobalMap(ca.space, 3, automaton=ca)
    with pytest.raises(InputError):
        GlobalMap(SPACES["square"], 2, automaton=ca)
