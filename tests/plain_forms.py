"""Forms of homoca's objects that only the tests use.

Each is a few lines over the package's own tables: the configuration
that shows a pattern at a cell, the quotient set of a subgroup with its
left-multiplication action, the coset label of every point of an
action, and a map whose memo holds a given dependency matrix.
"""

from dataclasses import dataclass
from typing import Sequence

from homoca.errors import InputError
from homoca.groups import (
    Coset,
    FiniteGroup,
    LeftAction,
    Subgroup,
    coset_labels,
    first_transporters,
    require_transitive,
    stabilizer,
)
from homoca.laws import GlobalMap


def configuration_observing(ca, local: Sequence[int], m: int, default: int = 0) -> tuple[int, ...]:
    """A configuration that realizes `local` at cell m and is `default`
    elsewhere; freeness of the semi-action makes the writes collision-free."""
    config = [default] * ca.space.cells
    for i, cell in enumerate(ca.neighbor_cells[m]):
        config[int(cell)] = int(local[i])
    return tuple(config)


@dataclass(frozen=True)
class QuotientSet:
    """Left cosets of a subgroup with the left-multiplication action on them."""

    cosets: tuple[Coset, ...]
    action: LeftAction


def quotient_set(group: FiniteGroup, sub: Subgroup) -> QuotientSet:
    if sub.parent is not group and sub.parent != group:
        raise InputError("subgroup belongs to a different group")
    reps, label = coset_labels(group, sub)
    cosets = tuple(Coset(sub, r) for r in reps.tolist())
    # g maps the coset of r to the coset of g*r
    return QuotientSet(cosets, LeftAction(group, len(reps), label[group.mul[:, reps]]))


def point_coset_labels(action: LeftAction, origin: int) -> tuple[Coset, ...]:
    """Label each point with the coset of elements carrying the origin to it.

    The action must be transitive; the labeling is then a bijection onto
    the cosets of the origin stabilizer and intertwines the action with
    left multiplication.
    """
    require_transitive(action, origin)
    sub = stabilizer(action, origin)
    return tuple(Coset(sub, rep) for rep in first_transporters(action, origin).tolist())


def with_dependencies(gm: GlobalMap, depends) -> GlobalMap:
    """A fresh map on gm's table whose memo holds `depends` as its
    dependency matrix, doctored or not: every check on the map reads it
    as it reads one it decided itself."""
    given = GlobalMap(gm.space, gm.states, gm.table)
    given._depends = depends
    return given
