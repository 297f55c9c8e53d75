"""The batched step kernel against the independent slow oracles.

`step_via_origin` computes the step the other way around (pull back to the
origin, apply the origin form of the rule), and the reference loop below
is the scalar, one-configuration-at-a-time form of the sampled collision
search, so neither can share a bug with the batched gather they check.
Past the table bound, equivariance witnesses are re-checked with `shift`
and `step_via_origin`.
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
    check_invariance_equivalence,
    check_step_equivariance,
    config_count,
    global_table,
    invert,
    sampled_collision,
    window_collision,
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
    # the torus with 3 states is past the table bound, where no table is built
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


def test_global_table_rows_are_steps():
    ca = _rule(SPACES["cube"], 3, 5, False)
    table = global_table(ca)
    for code in random.Random(0).sample(range(len(table)), 50):
        config = decode(code, 3, 6)
        assert int(table[code]) == encode(step_via_origin(ca, config), 3)


# ------------------------------------------------- sampled references


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
    result = sampled_collision(ca, seed=seed)
    assert isinstance(result, NotInvertible) and result.sampled
    assert result.witness == reference_collision(ca, laws.SAMPLE_COUNT, seed)


@pytest.mark.parametrize("seed", [0, 2])
def test_collision_search_without_a_collision_refuses_like_the_scalar_loop(seed):
    ca = _rule(SPACES["torus"], 3, 40 + seed, True, seeds=4)
    assert reference_collision(ca, laws.SAMPLE_COUNT, seed) is None
    with pytest.raises(BoundError):
        sampled_collision(ca, seed=seed)


def test_invert_refutes_exactly_where_the_samples_found_no_collision():
    # the rule of the refusal above at seed 0: two configurations that
    # differ at the origin alone collide, which 1024 samples missed
    ca = _rule(SPACES["torus"], 3, 40, True, seeds=4)
    result = invert(ca, seed=0)
    assert isinstance(result, NotInvertible) and not result.sampled
    first = [0, 0, 2, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    second = [2, 0, 2, 0, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert result.witness["colliding"] == [first, second] == list(window_collision(ca))
    assert step_via_origin(ca, first) == step_via_origin(ca, second) == tuple(result.witness["image"])


# ------------------------------------- window equivariance past the bound


def recheck_equivariance_witness(ca, witness):
    """The witness, re-stepped by the origin form: shifting and stepping
    in the two orders differ on its configuration as reported."""
    space, h = ca.space, witness["element"]
    config = tuple(witness["config"])
    assert step_via_origin(ca, shift(space, h, config)) == tuple(witness["shift_then_map"])
    assert shift(space, h, step_via_origin(ca, config)) == tuple(witness["map_then_shift"])
    assert witness["shift_then_map"] != witness["map_then_shift"]


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_raw_rules_past_the_bound_fail_with_a_checked_witness(seed):
    ca = _rule(SPACES["torus"], 3, 100 + seed, False)
    assert config_count(ca.space, 3) > laws.CONFIG_TABLE_BOUND
    verdict = check_step_equivariance(ca)
    assert not verdict.ok and not verdict.sampled
    recheck_equivariance_witness(ca, verdict.witness)


def test_a_rare_failure_past_the_bound_is_found_and_checked():
    # the rule breaks rotation invariance on one rare local pattern only,
    # so few configurations fail equivariance
    space = SPACES["torus"]
    neighborhood = torus_neighborhood(space)
    rule = [0] * 3 ** len(neighborhood)
    rule[encode((2, 2, 1, 0, 0), 3)] = 1
    ca = SemiCellularAutomaton(space, 3, neighborhood, rule)
    verdict = check_step_equivariance(ca)
    assert not verdict.ok and not verdict.sampled
    recheck_equivariance_witness(ca, verdict.witness)
    # the smallest failing configuration is zero off one cell's window
    assert sum(1 for x in verdict.witness["config"] if x) <= len(ca.neighborhood)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_symmetrized_rules_past_the_bound_pass_exactly(seed):
    ca = _rule(SPACES["torus"], 3, seed, True)
    verdict = check_step_equivariance(ca)
    assert verdict.ok and not verdict.sampled
    equivalence = check_invariance_equivalence(ca)
    assert equivalence.ok and not equivalence.sampled
    assert equivalence.witness["step_equivariant"] and equivalence.witness["rule_invariant"]


def test_a_global_map_past_the_bound_is_refused():
    ca = _rule(SPACES["torus"], 3, 6, False)
    with pytest.raises(BoundError):
        GlobalMap.from_automaton(ca)


@pytest.mark.parametrize("config", [(0.0, 1, 0, 0), (0, 1, 0), (0, 1, 0, 3), (0, -1, 0, 0)])
def test_step_and_its_origin_form_refuse_the_same_configurations(config):
    ca = _rule(SPACES["square"], 3, 4, True)
    with pytest.raises(InputError):
        step(ca, config)
    with pytest.raises(InputError):
        step_via_origin(ca, config)


def test_iterate_refuses_negative_steps():
    ca = _rule(SPACES["square"], 3, 4, True)
    with pytest.raises(InputError):
        iterate(ca, (0, 1, 2, 1), -3)
