"""`iterate` and its period shortcut against the scalar oracles.

The step is deterministic on a finite set of configurations, so `iterate`
stops at the first repeated row and copies the rest of the trace from the
cycle.  Every trace here is checked row by row against `step_via_origin`
and against repeated scalar `step`, neither of which knows about periods.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoca import automata
from homoca.automata import (
    SemiCellularAutomaton,
    closed_neighborhood,
    iterate,
    step,
    step_via_origin,
)
from homoca.catalog import bundled_automata, bundled_spaces, identity_automaton, random_rule_automaton
from homoca.errors import BoundError, InputError

SPACES = bundled_spaces()
AUTOMATA = bundled_automata()


def _rule(space, states, seed, symmetrize):
    rng = random.Random(seed)
    picked = rng.sample(range(space.num_cosets), min(2, space.num_cosets))
    return random_rule_automaton(space, closed_neighborhood(space, picked), states, rng, symmetrize)


def orbit_shape(ca, config):
    """(transient, period) of the orbit of config, by repeated scalar steps."""
    seen = {}
    row = tuple(config)
    while row not in seen:
        seen[row] = len(seen)
        row = step(ca, row)
    return seen[row], len(seen) - seen[row]


def assert_trace_is_the_orbit(ca, config, steps, trace):
    assert trace.shape == (steps + 1, ca.space.cells)
    rows = [tuple(r) for r in trace.tolist()]
    assert rows[0] == tuple(config)
    for before, after in zip(rows, rows[1:]):
        assert after == step_via_origin(ca, before)
    row = tuple(config)
    for after in rows[1:]:
        row = step(ca, row)
        assert after == row


def counted_iterate(monkeypatch, ca, config, steps):
    """iterate's trace and the number of times it evaluated the step kernel."""
    calls = []
    kernel = automata._apply

    def counted(arrays, configs):
        calls.append(1)
        return kernel(arrays, configs)

    with monkeypatch.context() as patched:
        patched.setattr(automata, "_apply", counted)
        trace = iterate(ca, config, steps)
    return trace, len(calls)


# ------------------------------------------------------------ property


@settings(deadline=None)
@given(
    name=st.sampled_from(sorted(SPACES)),
    states=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**16),
    symmetrize=st.booleans(),
    steps=st.integers(0, 40),
)
def test_iterate_rows_are_scalar_steps(name, states, seed, symmetrize, steps):
    ca = _rule(SPACES[name], states, seed, symmetrize)
    rng = random.Random(seed + 1)
    config = tuple(rng.randrange(states) for _ in range(ca.space.cells))
    assert_trace_is_the_orbit(ca, config, steps, iterate(ca, config, steps))


# ------------------------------------------------------- orbit shapes


def _transient_then_cycle():
    """A rule on the 4-cycle and a configuration whose orbit has a
    transient of at least one step before a cycle of at least two."""
    for seed in range(200):
        ca = _rule(SPACES["cyclic4"], 3, seed, False)
        rng = random.Random(seed)
        config = tuple(rng.randrange(3) for _ in range(4))
        transient, period = orbit_shape(ca, config)
        if transient >= 1 and period >= 2:
            return ca, config, transient, period
    raise AssertionError("no seed gives a transient followed by a cycle")


def test_a_fixed_point_has_period_one(monkeypatch):
    ca = identity_automaton(SPACES["square"], 3)
    config = (2, 0, 1, 1)
    assert orbit_shape(ca, config) == (0, 1)
    trace, evaluated = counted_iterate(monkeypatch, ca, config, 50)
    assert_trace_is_the_orbit(ca, config, 50, trace)
    assert evaluated == 1


def test_the_shift_cycles_back_to_the_first_row(monkeypatch):
    ca = AUTOMATA["cyclic4_shift"]
    config = (1, 0, 0, 0)
    assert orbit_shape(ca, config) == (0, 4)
    trace, evaluated = counted_iterate(monkeypatch, ca, config, 10)
    assert_trace_is_the_orbit(ca, config, 10, trace)
    assert trace.tolist()[:5] == [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert evaluated == 4


def test_a_long_shift_run_evaluates_one_period(monkeypatch):
    ca = AUTOMATA["cyclic4_shift"]
    transient, period = orbit_shape(ca, (1, 0, 0, 0))
    steps = 100_001
    trace, evaluated = counted_iterate(monkeypatch, ca, (1, 0, 0, 0), steps)
    assert evaluated <= transient + period
    assert np.array_equal(trace, trace[np.arange(steps + 1) % 4])
    assert trace[steps].tolist() == list(step(ca, (1, 0, 0, 0)))


@pytest.mark.parametrize("extra", [-1, 0, 1, 2, 37])
def test_a_transient_followed_by_a_cycle(monkeypatch, extra):
    # extra == 0 puts the first repeat on the very last step, extra == -1
    # stops one step before it, so no row repeats
    ca, config, transient, period = _transient_then_cycle()
    steps = transient + period + extra
    trace, evaluated = counted_iterate(monkeypatch, ca, config, steps)
    assert_trace_is_the_orbit(ca, config, steps, trace)
    assert evaluated == min(steps, transient + period)
    if extra >= 0:
        assert trace[transient + period].tolist() == trace[transient].tolist()


@pytest.mark.parametrize("steps", [0, 1])
def test_zero_and_one_steps(monkeypatch, steps):
    ca, config, _, _ = _transient_then_cycle()
    trace, evaluated = counted_iterate(monkeypatch, ca, config, steps)
    assert_trace_is_the_orbit(ca, config, steps, trace)
    assert evaluated == steps


@pytest.mark.parametrize("steps", [0, 1, 2, 9])
def test_the_empty_neighborhood_reaches_its_constant_at_once(monkeypatch, steps):
    ca = SemiCellularAutomaton(SPACES["cube"], 3, (), (2,))
    config = (0, 1, 2, 0, 1, 2)
    trace, evaluated = counted_iterate(monkeypatch, ca, config, steps)
    assert_trace_is_the_orbit(ca, config, steps, trace)
    assert trace[1:].tolist() == [[2] * 6] * steps
    assert evaluated == min(steps, 2)


@pytest.mark.parametrize("name", sorted(AUTOMATA))
def test_bundled_automata_runs_match_the_scalar_steps(name):
    ca = AUTOMATA[name]
    rng = random.Random(name)
    config = tuple(rng.randrange(ca.states) for _ in range(ca.space.cells))
    assert_trace_is_the_orbit(ca, config, 30, iterate(ca, config, 30))


# --------------------------------------------------------------- bound


@pytest.mark.parametrize("steps", [10**18, 10**20])
def test_a_trace_past_the_bound_is_refused_before_it_is_allocated(steps):
    ca = AUTOMATA["cyclic4_shift"]
    tracemalloc.start()
    try:
        with pytest.raises(BoundError):
            iterate(ca, (1, 0, 0, 0), steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_trace_bound_counts_steps_plus_one_rows(monkeypatch):
    ca = AUTOMATA["cyclic4_shift"]
    monkeypatch.setattr(automata, "MAX_TRACE", 12)
    assert iterate(ca, (1, 0, 0, 0), 2).shape == (3, 4)
    with pytest.raises(BoundError):
        iterate(ca, (1, 0, 0, 0), 3)


def test_negative_steps_are_malformed_even_past_the_bound():
    with pytest.raises(InputError):
        iterate(AUTOMATA["cyclic4_shift"], (1, 0, 0, 0), -(10**20))
