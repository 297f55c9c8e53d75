#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/ from the catalog.

The fixtures are committed; rerun this after changing the catalog so the
files and the code stay in step.  `--out DIR` writes them to DIR instead,
to compare with the committed ones.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from homoca import catalog, laws
from homoca.serialize import (
    dump_action,
    dump_automaton,
    dump_global_map,
    dump_group,
    dump_space,
    write_json,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=FIXTURES, help="directory to write to (default: fixtures/)")
    out = parser.parse_args(argv).out
    os.makedirs(out, exist_ok=True)
    spaces = catalog.bundled_spaces()
    for name, space in spaces.items():
        write_json(f"{out}/{name}_group.json", dump_group(space.group))
        write_json(f"{out}/{name}_action.json", dump_action(space.action))
        write_json(f"{out}/{name}_space.json", dump_space(space))

    for name, ca in catalog.bundled_automata().items():
        write_json(f"{out}/{name}.json", dump_automaton(ca))

    # a non-invariant rule: copies one rotating neighbor of the square
    projection = catalog.projection_automaton(spaces["square"], position=1)
    write_json(f"{out}/square_projection.json", dump_automaton(projection))

    # the shift's step as a bare global map, for extraction from a table
    shift = catalog.cyclic_shift_automaton()
    write_json(
        f"{out}/cyclic4_shift_globalmap.json",
        dump_global_map(laws.GlobalMap.from_automaton(shift)),
    )

    # an equivariance violation: overwrite one image entry
    table = laws.global_table(shift).copy()
    table[1] = table[1] ^ 1
    write_json(
        f"{out}/cyclic4_broken_globalmap.json",
        dump_global_map(laws.GlobalMap(shift.space, 2, table=table)),
    )

    # deliberately broken inputs for the validator
    bad_group = dump_group(spaces["cyclic4"].group)
    bad_group["mul"][1][2] = 0
    bad_group["mul"][1][3] = 0
    write_json(f"{out}/bad_group.json", bad_group)

    bad_action = dump_action(spaces["cyclic4"].action)
    bad_action["act"][0] = [1, 0, 2, 3]  # identity no longer fixes points
    write_json(f"{out}/bad_action.json", bad_action)

    bad_automaton = dump_automaton(catalog.or_automaton(spaces["square"]))
    bad_automaton["neighborhood"] = [0, 2]  # drops half of a rotation orbit
    bad_automaton["delta"] = [0, 1, 1, 1]
    write_json(f"{out}/square_unclosed_neighborhood.json", bad_automaton)

    print(f"wrote fixtures to {os.path.abspath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
