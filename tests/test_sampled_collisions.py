"""The sampled collision search of `invert`, past the table bound.

The search decodes its seeded sample codes in one broadcast, steps them
in one batch and groups the images with `first_alike`: one packed code
per image when states**cells fits int64, several codes per image
otherwise, sorted stably.  The oracles are the loop the batch replaced, a
dict from image to the last configuration seen with it, walked in sample
order, and the row grouping that `first_alike` replaced, `np.unique` over
the image rows; both are kept verbatim.  The witness, or the refusal when
no collision turns up, must be the loop's, and the first equal row of
every image the row grouping's.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoca.automata import SemiCellularAutomaton, step_batch
from homoca.catalog import bundled_spaces, cyclic_space, random_rule_automaton, torus_neighborhood
from homoca.encoding import decode
from homoca.errors import BoundError
from homoca.laws import CONFIG_TABLE_BOUND, SAMPLE_COUNT, NotInvertible, config_count, first_alike, invert

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


def row_grouping(images):
    """first_alike as the search grouped its images, with np.unique over rows."""
    _, first, label = np.unique(images, axis=0, return_index=True, return_inverse=True)
    return first[label.ravel()]


@st.composite
def image_batches(draw):
    """Rows of digits, many of them repeats of earlier rows, some wide
    enough that states**cells is past int64."""
    states = draw(st.integers(2, 5))
    cells = draw(st.sampled_from([1, 2, 16, 39, 40, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.integers(0, states, size=(draw(st.integers(1, 64)), cells))
    repeats = rng.integers(0, len(images), size=len(images) // 2)
    images[rng.permutation(len(images))[: len(repeats)]] = images[repeats]
    return images, states


@settings(deadline=None)
@given(image_batches())
@example((np.array([[1, 0], [0, 1], [1, 0], [0, 1]]), 2))
@example((np.zeros((3, 64), dtype=np.int64), 2))
@example((np.eye(70, dtype=np.int64)[[0, 5, 0, 69, 5]], 2))
# equal on their first 63 cells, interleaved: only the second code tells them apart
@example((np.eye(70, dtype=np.int64)[[69, 68, 69, 68]], 2))
# 2**64 in base 3 and 0: one code of 41 digits would wrap them to one int64
@example((np.array([list(decode(2**64, 3, 41)), [0] * 41, list(decode(2**64, 3, 41))]), 3))
def test_packed_grouping_finds_what_the_row_grouping_found(batch):
    images, states = batch
    assert np.array_equal(first_alike(images, states), row_grouping(images))


def unique_row_search(ca, seed):
    """invert's search past the bound as it grouped the images with np.unique."""
    space, q = ca.space, ca.states
    total = config_count(space, q)
    rng = random.Random(seed)
    dtype = np.int64 if total <= np.iinfo(np.int64).max else object
    codes = np.array([rng.randrange(total) for _ in range(SAMPLE_COUNT)], dtype=dtype)
    place = np.array([q**i for i in range(space.cells)], dtype=dtype)
    configs = (codes[:, None] // place % q).astype(np.int64)
    images = step_batch(ca, configs)
    _, first, label = np.unique(images, axis=0, return_index=True, return_inverse=True)
    earlier = first[label.ravel()]
    colliding = np.flatnonzero(codes != codes[earlier])
    if colliding.size:
        i = int(colliding[0])
        return NotInvertible(
            {"colliding": [configs[earlier[i]].tolist(), configs[i].tolist()], "image": images[i].tolist()},
            sampled=True,
        )
    return "BoundError"


@pytest.mark.parametrize("seed", range(3))
def test_searches_on_one_and_on_several_codes_agree_with_the_row_grouping(seed):
    # 3**16 fits int64, one code per image; 2**64 does not, two codes
    wide = cyclic_space(64)
    assert config_count(wide, 2) > np.iinfo(np.int64).max
    cases = _torus_rules(seed) + [
        SemiCellularAutomaton(wide, 2, (0, 1), rule) for rule in ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0))
    ]
    for ca in cases:
        assert outcome(ca, seed) == unique_row_search(ca, seed)
