"""The sampled collision search of `invert`, past the table bound.

The search decodes its seeded sample codes in one broadcast, steps them
in one batch and takes the first collision from `np.unique`.  The oracle
is the loop it replaced, kept verbatim: a dict from image to the last
configuration seen with it, walked in sample order.  The witness, or the
refusal when no collision turns up, must be the loop's.
"""

import random

import numpy as np
import pytest

from homoca.automata import SemiCellularAutomaton, step_batch
from homoca.catalog import bundled_spaces, cyclic_space, random_rule_automaton, torus_neighborhood
from homoca.encoding import decode
from homoca.errors import BoundError
from homoca.laws import CONFIG_TABLE_BOUND, SAMPLE_COUNT, NotInvertible, config_count, invert

TORUS = bundled_spaces()["torus"]


def looped_collision(ca, seed):
    """invert's search past the bound as a dict loop over the samples."""
    space, q = ca.space, ca.states
    total = config_count(space, q)
    rng = random.Random(seed)
    configs = [decode(rng.randrange(total), q, space.cells) for _ in range(SAMPLE_COUNT)]
    images = step_batch(ca, configs).tolist()
    seen = {}
    for config, image in zip(configs, map(tuple, images)):
        if image in seen and seen[image] != config:
            return NotInvertible(
                {"colliding": [list(seen[image]), list(config)], "image": list(image)},
                sampled=True,
            )
        seen[image] = config
    return "BoundError"


def outcome(ca, seed):
    try:
        return invert(ca, seed=seed)
    except BoundError:
        return "BoundError"


def _torus_rules(seed):
    """Symmetrized 3-state torus rules, each output folded onto fewer
    states so that samples collide at different rates, and the projection
    onto the cell itself, which never collides."""
    neighborhood = torus_neighborhood(TORUS)
    sym = random_rule_automaton(TORUS, neighborhood, 3, random.Random(seed), True)
    rules = [sym.rule_array, np.minimum(sym.rule_array, 1), sym.rule_array // 2]
    rules.append([decode(code, 3, len(neighborhood))[0] for code in range(3 ** len(neighborhood))])
    return [SemiCellularAutomaton(TORUS, 3, neighborhood, rule) for rule in rules]


@pytest.mark.parametrize("seed", range(6))
def test_torus_searches_agree_with_the_dict_loop(seed):
    assert config_count(TORUS, 3) > CONFIG_TABLE_BOUND
    for ca in _torus_rules(seed):
        for sample_seed in (seed, 1000 + seed):
            assert outcome(ca, sample_seed) == looped_collision(ca, sample_seed)


def test_the_torus_cases_both_collide_and_come_up_empty():
    kinds = {type(outcome(ca, seed)) for seed in range(3) for ca in _torus_rules(seed)}
    assert kinds == {NotInvertible, str}


@pytest.mark.parametrize("rule", [(0, 0, 0, 0), (0, 0, 1, 1)])
def test_codes_past_int64_decode_as_the_dict_loop_does(rule):
    # 2**64 configurations: the codes are Python ints in an object array
    space = cyclic_space(64)
    assert config_count(space, 2) > np.iinfo(np.int64).max
    ca = SemiCellularAutomaton(space, 2, (0, 1), rule)
    got = outcome(ca, 3)
    assert got == looped_collision(ca, 3)
    assert isinstance(got, NotInvertible) == (rule == (0, 0, 0, 0))
