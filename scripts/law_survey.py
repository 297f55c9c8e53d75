#!/usr/bin/env python3
"""Survey every law checker across the bundled automata.

Prints one row per automaton: rule shape, invariance and equivariance
verdicts, invertibility, uniform-isomorphism status, and how tight the
continuity windows come out (the largest dependency set against the
largest neighborhood resolution).  A quick way to eyeball that the whole
tower of checks behaves across spaces of different symmetry.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homoca.automata import essential_neighborhood, is_cellular
from homoca.catalog import bundled_automata
from homoca.laws import GlobalMap, NotInvertible, check_equivariance, invert
from homoca.uniformity import check_uniform_isomorphism, continuity_assignments


@dataclass
class SurveyRow:
    name: str
    cells: int
    states: int
    neighborhood: int
    essential: int
    invariant: bool
    equivariant: bool
    invertible: bool
    isomorphism: bool
    max_dependency: int
    max_window: int


def survey_automaton(name, ca) -> SurveyRow:
    gm = GlobalMap.from_automaton(ca)
    equi = check_equivariance(gm)
    inverse = invert(ca)
    iso = check_uniform_isomorphism(gm)
    singles = continuity_assignments(gm, [(m,) for m in range(ca.space.cells)])
    max_dep = max((len(source) for _, source in singles), default=0)
    max_win = max(len(set(int(c) for c in ca.neighbor_cells[m])) for m in range(ca.space.cells))
    return SurveyRow(
        name=name,
        cells=ca.space.cells,
        states=ca.states,
        neighborhood=ca.arity,
        essential=len(essential_neighborhood(ca)),
        invariant=is_cellular(ca).ok,
        equivariant=equi.ok,
        invertible=not isinstance(inverse, NotInvertible),
        isomorphism=iso.ok,
        max_dependency=max_dep,
        max_window=max_win,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit rows as JSON instead of a table")
    args = parser.parse_args(argv)

    rows = [survey_automaton(name, ca) for name, ca in bundled_automata().items()]

    if args.json:
        json.dump([asdict(r) for r in rows], sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    header = f"{'automaton':<18} {'|M|':>4} {'|Q|':>4} {'|N|':>4} {'ess':>4}  {'inv':>3} {'equiv':>6} {'invert':>6} {'iso':>3}  {'dep/win':>7}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r.name:<18} {r.cells:>4} {r.states:>4} {r.neighborhood:>4} {r.essential:>4}  "
            f"{'yes' if r.invariant else 'no':>3} {'yes' if r.equivariant else 'no':>6} "
            f"{'yes' if r.invertible else 'no':>6} {'yes' if r.isomorphism else 'no':>3}  "
            f"{r.max_dependency:>3}/{r.max_window:<3}"
        )
    print("\ndep/win compares the largest per-cell dependency set with the")
    print("largest resolved neighborhood.")

    for r in rows:
        if r.invertible != r.isomorphism:
            print(f"DISAGREEMENT on {r.name}: invert={r.invertible} iso={r.isomorphism}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
