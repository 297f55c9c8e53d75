#!/usr/bin/env python3
"""Census of random rules: how often does symmetry come for free?

For each bundled space, draws random rule tables on the standard
neighborhood and tallies

  * how many unsymmetrized tables happen to be rotation-invariant
    (on a free action: all of them; otherwise roughly the orbit count
    of local configurations decides the odds),
  * that the invariance/equivariance equivalence never once splits,
  * how many symmetrized rules have invertible steps,
  * how much of the declared neighborhood is essential.

Everything is seeded; rerunning with the same arguments reproduces the
numbers exactly.
"""

import argparse
import os
import random
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homoca.automata import essential_positions, is_cellular
from homoca.catalog import (
    bundled_spaces,
    cube_cross_neighborhood,
    random_rule_automaton,
    torus_neighborhood,
)
from homoca.groups import stabilizer
from homoca.laws import NotInvertible, check_invariance_equivalence, invert


@dataclass
class CensusConfig:
    rules: int = 100
    states: int = 2
    seed: int = 0
    spaces: tuple[str, ...] = ("cyclic4", "square", "cube", "torus")


@dataclass
class CensusRow:
    space: str
    stabilizer_order: int
    rules: int = 0
    invariant_unsymmetrized: int = 0
    equivalence_splits: int = 0
    invertible_symmetrized: int = 0
    essential_ratio_sum: float = 0.0


def standard_neighborhood(name, space):
    if name == "cube":
        return cube_cross_neighborhood(space)
    if name == "torus":
        return torus_neighborhood(space)
    return tuple(range(space.num_cosets))


def census_space(name, space, cfg: CensusConfig) -> CensusRow:
    rng = random.Random(cfg.seed)
    neighborhood = standard_neighborhood(name, space)
    row = CensusRow(name, len(stabilizer(space.action, space.origin).members))
    for _ in range(cfg.rules):
        row.rules += 1

        raw = random_rule_automaton(space, neighborhood, cfg.states, rng, symmetrize=False)
        verdict = check_invariance_equivalence(raw)
        row.invariant_unsymmetrized += verdict.witness["rule_invariant"]
        row.equivalence_splits += not verdict.ok

        sym = random_rule_automaton(space, neighborhood, cfg.states, rng, symmetrize=True)
        outcome = invert(sym)
        row.invertible_symmetrized += not isinstance(outcome, NotInvertible)
        row.essential_ratio_sum += len(essential_positions(sym)) / sym.arity
        assert is_cellular(sym).ok
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", type=int, default=100, help="rules drawn per space")
    parser.add_argument("--states", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--space",
        action="append",
        choices=("cyclic4", "square", "cube", "torus"),
        help="restrict to one or more spaces (repeatable)",
    )
    args = parser.parse_args(argv)
    cfg = CensusConfig(
        rules=args.rules,
        states=args.states,
        seed=args.seed,
        spaces=tuple(args.space) if args.space else CensusConfig.spaces,
    )

    spaces = bundled_spaces()
    print(f"{cfg.rules} rules per space, {cfg.states} states, seed {cfg.seed}\n")
    header = (
        f"{'space':<10} {'|stab|':>6} {'inv (raw)':>10} {'equiv splits':>13} "
        f"{'invertible (sym)':>17} {'essential':>10}"
    )
    print(header)
    print("-" * len(header))
    splits = 0
    for name in cfg.spaces:
        row = census_space(name, spaces[name], cfg)
        splits += row.equivalence_splits
        print(
            f"{row.space:<10} {row.stabilizer_order:>6} "
            f"{row.invariant_unsymmetrized:>6}/{row.rules:<3} "
            f"{row.equivalence_splits:>13} "
            f"{row.invertible_symmetrized:>13}/{row.rules:<3} "
            f"{row.essential_ratio_sum / row.rules:>10.3f}"
        )
    print()
    if splits:
        print(f"equivalence SPLIT {splits} times — this should be impossible")
        return 1
    print("invariance and equivariance never split.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
