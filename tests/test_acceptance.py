"""End-to-end acceptance gate.

One test per headline guarantee of the package, each printing a single
[PASS]/[FAIL] line naming the guarantee it certifies.  Everything here is
either exhaustive or explicitly seeded, and the whole gate has to fit
comfortably inside a minute on an ordinary machine.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from homoca.automata import is_cellular, shift, step, step_via_origin
from homoca.catalog import (
    coordinate_system_variants,
    cube_cross_neighborhood,
    cyclic_space,
    random_rule_automaton,
    torus_neighborhood,
)
from homoca.cellspace import (
    check_free_transitive,
    commutation_defect,
    defect,
    identify,
)
from homoca.cli import main as cli_main
from homoca.encoding import decode
from homoca.errors import EquivarianceError
from homoca.groups import stabilizer, transporter
from homoca.laws import (
    GlobalMap,
    NotInvertible,
    change_coordinates,
    check_invariance_equivalence,
    compose,
    config_count,
    extract,
    global_table,
    invert,
)
from homoca.uniformity import (
    agreement_relation,
    check_agreement_intersection,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
    prodiscrete_base,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_MODULE_START = time.perf_counter()


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_semi_action_laws_exhaustive_on_all_spaces(spaces):
    started = time.perf_counter()
    with criterion("semi-action laws: unit, freeness, transitivity, defects, identification"):
        for space in spaces.values():
            group = space.group
            mul, inv, act = group.mul, group.inv, space.action.act
            stab = set(stabilizer(space.action, space.origin).members)
            unit = space.coset_index(group.identity)

            for m in range(space.cells):
                assert space.semi_cell(m, unit) == m

            assert check_free_transitive(space).ok

            for m in range(space.cells):
                for h in range(group.order):
                    h0 = defect(space, m, h)
                    assert h0 in stab
                    mid = space.semi_cell(m, space.coset_index(h))
                    c0 = commutation_defect(space, m, h)
                    assert c0 in stab
                    moved = act[h][m]
                    for t in range(space.num_cosets):
                        rep = space.coset_reps[t]
                        # m <| (h * t)  ==  (m <| coset(h)) <| (h0 * t)
                        assert space.semi_cell(m, space.coset_index(mul[h][rep])) == space.semi_cell(
                            mid, space.coset_index(mul[h0][rep])
                        )
                        # (h . m) <| t  ==  h . (m <| c0 * t)
                        assert space.semi_cell(moved, t) == act[h][
                            space.semi_cell(m, space.coset_index(mul[c0][rep]))
                        ]

            assert identify(space).verdict.ok
    assert time.perf_counter() - started < 10.0


def test_step_agrees_with_origin_resolved_step(automata):
    with criterion("global step == origin-resolved step, exhaustive small / sampled torus"):
        for ca in automata.values():
            total = config_count(ca.space, ca.states)
            if total <= 4096:
                codes = range(total)
            else:
                rng = random.Random(0)
                codes = [rng.randrange(total) for _ in range(1000)]
            for code in codes:
                config = decode(code, ca.states, ca.space.cells)
                assert step(ca, config) == step_via_origin(ca, config)


def test_rule_invariance_is_step_equivariance(spaces):
    with criterion("rule invariance ⟺ step equivariance, 20+ random rules per space"):
        neighborhoods = {
            "cyclic4": tuple(range(spaces["cyclic4"].num_cosets)),
            "square": tuple(range(spaces["square"].num_cosets)),
            "cube": cube_cross_neighborhood(spaces["cube"]),
            "torus": torus_neighborhood(spaces["torus"]),
        }
        for name, space in spaces.items():
            rng = random.Random(0)
            nontrivial_stab = len(stabilizer(space.action, space.origin).members) > 1

            for _ in range(10):
                ca = random_rule_automaton(space, neighborhoods[name], 2, rng, symmetrize=True)
                verdict = check_invariance_equivalence(ca)
                assert verdict.ok and not verdict.sampled
                assert verdict.witness["rule_invariant"]

            # A free action leaves nothing to break: every rule on it is
            # rotation-invariant, so the non-invariant half of the quota
            # only exists on spaces with a nontrivial origin stabilizer.
            non_invariant = 0
            quota = 10 if nontrivial_stab else 0
            for _ in range(60):
                if non_invariant >= quota and _ >= 10:
                    break
                ca = random_rule_automaton(space, neighborhoods[name], 2, rng, symmetrize=False)
                verdict = check_invariance_equivalence(ca)
                assert verdict.ok and not verdict.sampled
                non_invariant += not verdict.witness["rule_invariant"]
            assert non_invariant >= quota


def test_coordinate_independence(automata):
    with criterion("alternate coordinate systems leave the global step unchanged"):
        small = [ca for ca in automata.values() if ca.space.cells <= 4]
        assert small
        for ca in small:
            space = ca.space
            reference = global_table(ca)
            variants = coordinate_system_variants(space.action, 8, seed=3)
            alternates = [
                v for v in variants if (v.origin, v.coords) != (space.origin, space.coords)
            ]
            free = len(stabilizer(space.action, space.origin).members) == 1
            if free:
                # one transporter per pair of points: exactly |M| systems
                # exist in total, and we exercise every one of them
                assert len(alternates) == space.cells - 1
            else:
                assert len(alternates) >= 5
            for system in alternates:
                h = transporter(space.action, space.origin, system.origin)[0]
                moved = change_coordinates(ca, system, h)
                assert np.array_equal(global_table(moved), reference)


def test_composition_is_function_composition(spaces):
    with criterion("step(compose(A, B)) == step(A) ∘ step(B), composed rule invariant"):
        for space in spaces.values():
            if space.cells > 4:
                continue
            rng = random.Random(7)
            full = tuple(range(space.num_cosets))
            for _ in range(10):
                outer = random_rule_automaton(space, full, 2, rng, symmetrize=True)
                inner = random_rule_automaton(space, full, 2, rng, symmetrize=True)
                combined = compose(outer, inner)
                assert is_cellular(combined).ok
                assert np.array_equal(
                    global_table(combined), global_table(outer)[global_table(inner)]
                )


def test_extraction_round_trip(automata):
    with criterion("extraction reproduces every bundled step; doctored maps are refused"):
        for ca in automata.values():
            gm = GlobalMap.from_automaton(ca)
            recovered = extract(gm)
            assert np.array_equal(global_table(recovered), gm.table)

        shift_ca = automata["cyclic4_shift"]
        space = shift_ca.space
        table = global_table(shift_ca).copy()
        table[1], table[2] = table[2], table[1]
        doctored = GlobalMap(space, 2, table=table)
        with pytest.raises(EquivarianceError) as excinfo:
            extract(doctored)
        witness = excinfo.value.witness
        config = tuple(witness["config"])
        h = witness["element"]
        assert doctored.apply(shift(space, h, config)) != shift(space, h, doctored.apply(config))


def test_invertibility(automata):
    with criterion("two-sided inverse, checked refusal, isomorphism agreement"):
        shift_ca = automata["cyclic4_shift"]
        inverse = invert(shift_ca)
        assert not isinstance(inverse, NotInvertible)
        for code in range(16):
            config = decode(code, 2, 4)
            assert step(inverse, step(shift_ca, config)) == config
            assert step(shift_ca, step(inverse, config)) == config

        refused = invert(automata["square_or"])
        assert isinstance(refused, NotInvertible)
        first, second = (tuple(c) for c in refused.witness["colliding"])
        assert first != second
        assert step(automata["square_or"], first) == step(automata["square_or"], second)

        for ca in automata.values():
            iso = check_uniform_isomorphism(GlobalMap.from_automaton(ca))
            assert iso.ok == (not isinstance(invert(ca), NotInvertible))


def test_prodiscrete_uniformity(automata):
    with criterion("entourage base axioms, intersection law, continuity windows"):
        for cells in (1, 2, 3):
            space = cyclic_space(cells)
            base = prodiscrete_base(space, 2)
            assert check_uniformity_base(base).ok and check_agreement_intersection(base).ok
            sets = [tuple(c for c in range(cells) if mask >> c & 1) for mask in range(1 << cells)]
            labels = {k: agreement_relation(space, 2, k) for k in sets}
            for k1, l1 in labels.items():
                for k2, l2 in labels.items():
                    union = tuple(sorted(set(k1) | set(k2)))
                    meet = (l1[:, None] == l1) & (l2[:, None] == l2)
                    assert np.array_equal(meet, labels[union][:, None] == labels[union])

        for ca in automata.values():
            gm = GlobalMap.from_automaton(ca)
            space = ca.space
            window = [set(int(c) for c in ca.neighbor_cells[m]) for m in range(space.cells)]
            # singleton sources checked on the table; with the union law
            # they cover every K, and the sweep below checks all 2^|M|
            result = check_uniform_continuity(gm)
            assert result.verdict.ok
            dep_mask = [0] * space.cells
            win_mask = [0] * space.cells
            for m, (target, source) in enumerate(result.assignments):
                assert target == (m,)
                assert set(source) <= window[m]
                dep_mask[m] = sum(1 << c for c in source)
                win_mask[m] = sum(1 << c for c in window[m])
            for k_mask in range(1 << space.cells):
                needed = reachable = 0
                remaining = k_mask
                while remaining:
                    low = remaining & -remaining
                    m = low.bit_length() - 1
                    needed |= dep_mask[m]
                    reachable |= win_mask[m]
                    remaining ^= low
                assert needed & ~reachable == 0


def test_reports_are_deterministic_and_the_gate_is_fast(capsys):
    with criterion("byte-identical reports at a fixed seed; gate under budget"):
        argv = ["laws", str(FIXTURES / "square_or.json"), "--seed", "0"]
        first_code = cli_main(list(argv))
        first = capsys.readouterr().out
        second_code = cli_main(list(argv))
        second = capsys.readouterr().out
        assert first_code == second_code == 0
        assert first == second

        argv = ["laws", str(FIXTURES / "torus_or.json"), "--suite", "uniformity", "--seed", "0"]
        codes = []
        outs = []
        for _ in range(2):
            codes.append(cli_main(list(argv)))
            outs.append(capsys.readouterr().out)
        assert codes[0] == codes[1] == 0  # exact on labelings at 2^16 configurations
        assert outs[0] == outs[1]

    assert time.perf_counter() - _MODULE_START < 45.0
