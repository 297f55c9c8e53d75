"""Finite groups and left actions as explicit lookup tables.

Group elements are integers 0..order-1 and points 0..points-1.  The
multiplication and action tables are read-only integer numpy arrays from
load onwards, the only copy of each table; instances compare and hash by
their sizes, identity and table bytes.  Constructors only validate shape
and size, so an invalid table is still representable: the verify_*
checkers examine the axioms and report violations with witnesses instead
of raising.  A self-check that only such a table can fail calls
`require_group_action` before it raises, so the error names the broken
axiom.

Every check works on whole rows and columns of the tables.
`verify_group` sweeps associativity over magma generators of the table
only, O(n^2 * generators) instead of O(n^3), with the same first failing
triple, and its verdict is computed once per group.  `verify_action`
sweeps compatibility over the same generators when the table is a
group: the elements compatible with every g2 and m are closed under
products, so the first failing element is a generator and the witness
is the full sweep's.  Both sweeps compare their gathers a block of
about GATHER_BLOCK entries at a time.  `Subgroup` checks closure on its
block of the table, and the whole group as a subgroup is built and
checked once per group; `inv` finds all inverses in one pass, and
orbits, stabilizers, transporters and cosets are read off a column or a
block of the tables.
Results leave as Python ints, so reports and files never see numpy
scalars.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import GATHER_BLOCK, MAX_GROUP_ORDER, MAX_POINTS
from .errors import InputError, LawError
from .verdict import Verdict


def _two_sided_inverses(mul: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """two_sided[a, b] = (a*b == e and b*a == e), and the elements with no such b."""
    hits = mul == e
    two_sided = hits & hits.T
    return two_sided, np.flatnonzero(~two_sided.any(axis=1))


def _frozen(table) -> np.ndarray:
    """An int32 read-only copy: every entry is below MAX_GROUP_ORDER or MAX_POINTS."""
    out = np.array(table, dtype=np.int32)
    out.setflags(write=False)
    return out


def _as_table(rows, height: int, width: int, bound: int, what: str) -> np.ndarray:
    """Rows of integers in 0..bound-1; floats and strings are refused, not truncated.

    One array conversion decides the usual input, and none is needed when
    the loader has already decoded a compact table to an array: an integer
    array of the right shape with every entry in range, checked before the
    narrowing cast, is the table.  Anything else (ragged or deeper nesting,
    non-integer entries, integers too large for int64, a wrong size or an
    entry out of range) goes through the row scan, which raises the
    message naming the first fault or accepts what it accepted before,
    such as a table of bools.
    """
    try:
        table = np.asarray(rows)
    except (ValueError, TypeError, OverflowError):
        table = None
    if (
        table is not None
        and table.dtype.kind in "iu"
        and table.shape == (height, width)
        and table.min() >= 0
        and table.max() < bound
    ):
        return _frozen(table)
    return _frozen(_scan_table(rows, height, width, bound, what))


def _scan_table(rows, height: int, width: int, bound: int, what: str) -> list[tuple[int, ...]]:
    try:
        rows = [tuple(map(operator.index, row)) for row in rows]
    except TypeError:
        raise InputError(f"{what}: expected a list of rows of integers") from None
    if len(rows) != height:
        raise InputError(f"{what}: expected {height} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{what}: row {i} has length {len(row)}, expected {width}")
        if min(row) < 0 or max(row) >= bound:
            x = next(x for x in row if not 0 <= x < bound)
            raise InputError(f"{what}: entry {x} in row {i} out of range")
    return rows


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    mul: np.ndarray
    identity: int

    def __post_init__(self):
        if not 1 <= self.order <= MAX_GROUP_ORDER:
            raise InputError(f"group order {self.order} outside 1..{MAX_GROUP_ORDER}")
        object.__setattr__(
            self, "mul", _as_table(self.mul, self.order, self.order, self.order, "mul table")
        )
        if not 0 <= self.identity < self.order:
            raise InputError(f"identity {self.identity} out of range")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (
            self.order == other.order
            and self.identity == other.identity
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self) -> int:
        return hash((self.order, self.identity, self.mul.tobytes()))

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """Two-sided inverses, the smallest one where there are several;
        raises for the first element that has none."""
        two_sided, missing = _two_sided_inverses(self.mul, self.identity)
        if missing.size:
            raise InputError(f"element {int(missing[0])} has no two-sided inverse")
        return tuple(two_sided.argmax(axis=1).tolist())

    @cached_property
    def checked(self) -> tuple[Verdict, tuple[int, ...]]:
        """verify_group's verdict, computed on first use, and the magma
        generators its associativity sweep read: empty when an earlier
        axiom failed.  Tables are read-only, so neither goes stale."""
        return _check_group(self)

    @cached_property
    def whole(self) -> "Subgroup":
        """The group as a subgroup of itself, built and closure-checked on
        first use; raises, and caches nothing, when the check fails."""
        return Subgroup(self, range(self.order))

    def elements(self) -> range:
        return range(self.order)


@dataclass(frozen=True, eq=False)
class LeftAction:
    group: FiniteGroup
    points: int
    act: np.ndarray

    def __post_init__(self):
        if not 1 <= self.points <= MAX_POINTS:
            raise InputError(f"point count {self.points} outside 1..{MAX_POINTS}")
        table = _as_table(self.act, self.group.order, self.points, self.points, "act table")
        object.__setattr__(self, "act", table)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LeftAction):
            return NotImplemented
        return (
            self.points == other.points
            and self.group == other.group
            and np.array_equal(self.act, other.act)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.points, self.act.tobytes()))


def _sorted_members(members) -> tuple[int, ...]:
    """Distinct members in increasing order.  A sequence of integers
    becomes Python ints in one conversion; anything else goes through
    int() one member at a time."""
    h = np.array(members)
    if h.ndim == 1 and h.dtype.kind in "iu":
        return tuple(sorted(set(h.tolist())))
    return tuple(sorted(set(int(x) for x in members)))


@dataclass(frozen=True)
class Subgroup:
    """A subset of a group, kept sorted; closure is validated up front.

    Members must be elements of the parent, 0..order-1: negative labels
    are refused rather than wrapped round.  Closure is checked on the
    |H|x|H| block of the table at once, and the first escaping product in
    row-major order over the sorted members is reported, then the first
    member without a right inverse inside.
    """

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        members = _sorted_members(self.members)
        object.__setattr__(self, "members", members)
        n = self.parent.order
        e = self.parent.identity
        if e not in members:
            raise InputError("subgroup must contain the identity")
        if members[0] < 0 or members[-1] >= n:
            x = next(x for x in members if not 0 <= x < n)
            raise InputError(f"subgroup member {x} out of range 0..{n - 1}")
        h = np.array(members, dtype=np.int64)
        if len(h) == n:
            block = self.parent.mul  # the whole group: every product is inside
        else:
            inside = np.zeros(n, dtype=bool)
            inside[h] = True
            block = self.parent.mul[h[:, None], h]  # block[i, j] = h[i] * h[j]
            escapes = ~inside[block]
            if escapes.any():
                i, j = divmod(int(escapes.argmax()), len(h))
                raise InputError(f"subgroup not closed: {h[i]}*{h[j]} = {block[i, j]} escapes")
        # closure + identity + finiteness already force inverses, but check anyway
        lacking = np.flatnonzero(~(block == e).any(axis=1))
        if lacking.size:
            raise InputError(f"subgroup member {h[lacking[0]]} has no inverse inside")

    def __len__(self) -> int:
        return len(self.members)

    @staticmethod
    def whole(group: FiniteGroup) -> "Subgroup":
        return group.whole


@dataclass(frozen=True)
class Coset:
    """Left coset g*H, identified by its canonical (minimum) member."""

    subgroup: Subgroup
    rep: int
    members: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mul = self.subgroup.parent.mul
        members = np.sort(mul[self.rep, list(self.subgroup.members)]).tolist()
        if self.rep != members[0]:
            raise InputError(f"coset rep {self.rep} is not the minimum member {members[0]}")
        object.__setattr__(self, "members", tuple(members))

    @classmethod
    def of(cls, subgroup: Subgroup, g: int) -> "Coset":
        mul = subgroup.parent.mul
        return cls(subgroup, int(mul[g, list(subgroup.members)].min()))


def magma_generators(group: FiniteGroup) -> list[int]:
    """Greedy generators of the table as a magma, given a two-sided identity.

    Element k is chosen when it is not among the left-normed words
    (...((e*g1)*g2)...)*gm in the elements chosen before it, so every
    element is such a word in the chosen ones.  Words are grown by right
    products in the table itself; no inverse, power or associativity is
    used, since the table is not yet known to be a group.
    """
    mul = group.mul
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    chosen: list[int] = []
    while not seen.all():
        g = int(seen.argmin())
        chosen.append(g)
        # the words so far are closed under the earlier generators, so each
        # word is multiplied by each generator once: O(n * generators)
        grown = mul[np.flatnonzero(seen), g]
        while True:
            # the distinct unseen products, sorted; a mask and flatnonzero
            # instead of np.unique, which imports numpy.ma under NumPy 2
            hit = np.zeros(group.order, dtype=bool)
            hit[grown] = True
            fresh = np.flatnonzero(hit & ~seen)
            if not fresh.size:
                break
            seen[fresh] = True
            grown = mul[fresh[:, None], chosen].ravel()
    return chosen


def verify_group(group: FiniteGroup) -> Verdict:
    """Check neutrality, two-sided inverses and associativity on the table.

    Associativity is swept over magma_generators only: two n x n gathers
    per generator instead of two per element.  The elements a with
    (a*b)*c == a*(b*c) for all b, c hold e and are closed under products,
    so if every generator passes, every element does.  A non-generator is
    a word in smaller generators, so the first failing a in label order is
    a generator, and the reported triple is the first failing one in
    (a, b, c) order, as in a sweep over every element.  Each generator's
    gathers are taken a block of rows b at a time, about GATHER_BLOCK
    entries per side, so memory stays flat in the order; the blocks go in
    increasing b, so the first failing block holds the first failing
    (b, c) and the witness is the same.  The verdict is computed once per
    group (FiniteGroup.checked).
    """
    return group.checked[0]


def _check_group(group: FiniteGroup) -> tuple[Verdict, tuple[int, ...]]:
    n = group.order
    mul = group.mul
    e = group.identity
    idx = np.arange(n)

    bad = np.flatnonzero((mul[e] != idx) | (mul[:, e] != idx))
    if bad.size:
        a = int(bad[0])
        witness = {"element": a, "e*a": int(mul[e][a]), "a*e": int(mul[a][e])}
        return Verdict.failing("group-identity", witness), ()

    _, missing = _two_sided_inverses(mul, e)
    if missing.size:
        return Verdict.failing("group-inverses", {"element": int(missing[0])}), ()

    generators = tuple(magma_generators(group))
    # a block of rows b at a time, about GATHER_BLOCK entries per side
    block = max(1, GATHER_BLOCK // n)
    for a in generators:
        row_a = mul[a]
        for start in range(0, n, block):
            bs = slice(start, start + block)
            # (a*b)*c != a*(b*c) at [b - start, c]
            differs = np.take(mul, row_a[bs], axis=0) != np.take(row_a, mul[bs])
            if differs.any():
                i, c = map(int, np.argwhere(differs)[0])
                b = start + i
                left, right = int(mul[mul[a, b], c]), int(mul[a, mul[b, c]])
                witness = {"triple": [a, b, c], "(a*b)*c": left, "a*(b*c)": right}
                return Verdict.failing("group-associativity", witness), generators
    return Verdict.passing("group-axioms"), generators


def verify_action(action: LeftAction) -> Verdict:
    """Check the identity and compatibility axioms of a left action.

    When the table passes verify_group, compatibility is swept over its
    magma generators only, as verify_group sweeps associativity.  Given
    associativity and the identity law, the elements g with
    (g*g2).m == g.(g2.m) for all g2 and m hold e and are closed under
    products: for a and b among them, ((a*b)*g2).m = (a*(b*g2)).m =
    a.((b*g2).m) = a.(b.(g2.m)) = (a*b).(g2.m).  So if every generator
    passes, every element does; the first failing g in label order is a
    generator, and the witness is the full sweep's.  On any other table
    every element is swept.  Either way the elements go a block at a time,
    about GATHER_BLOCK entries per side, in increasing order, so the first
    failing block holds the first failing (g, g2, m).
    """
    group = action.group
    act = action.act
    mul = group.mul
    e = group.identity

    bad = np.flatnonzero(act[e] != np.arange(action.points))
    if bad.size:
        m = int(bad[0])
        return Verdict.failing("action-identity", {"point": m, "e*m": int(act[e][m])})

    verdict, generators = group.checked
    swept = np.array(generators, dtype=np.int64) if verdict.ok else np.arange(group.order)
    # a block of elements g at a time, about GATHER_BLOCK entries per side
    block = max(1, GATHER_BLOCK // act.size)
    for start in range(0, swept.size, block):
        gs = swept[start : start + block]
        left = np.take(act, mul[gs], axis=0)  # left[i, g2, m] = (g*g2) . m for g = gs[i]
        right = np.take(act[gs], act, axis=1)  # right[i, g2, m] = g . (g2 . m)
        differs = left != right
        if differs.any():
            i, g2, m = map(int, np.argwhere(differs)[0])
            return Verdict.failing(
                "action-compatibility",
                {
                    "pair": [int(gs[i]), g2],
                    "point": m,
                    "(g*g2).m": int(left[i, g2, m]),
                    "g.(g2.m)": int(right[i, g2, m]),
                },
            )
    return Verdict.passing("action-axioms")


def require_group_action(action: LeftAction) -> None:
    """Raise LawError with the first failing verdict of verify_group and
    verify_action.  Only failure paths call it: a self-check that fails on
    tables passing both is a bug, and its caller re-raises it."""
    verdict = verify_group(action.group)
    if verdict.ok:
        verdict = verify_action(action)
    if not verdict.ok:
        raise LawError(verdict)


def _check_point(action: LeftAction, m: int) -> None:
    if not 0 <= m < action.points:
        raise InputError(f"point {m} out of range 0..{action.points - 1}")


def orbit(action: LeftAction, m: int) -> tuple[int, ...]:
    _check_point(action, m)
    hits = np.bincount(action.act[:, m], minlength=action.points)
    return tuple(np.flatnonzero(hits).tolist())


def is_transitive(action: LeftAction) -> bool:
    return len(orbit(action, 0)) == action.points


def require_transitive(action: LeftAction, origin: int) -> None:
    """Refuse an action whose orbit of `origin` misses some point."""
    reached = orbit(action, origin)
    if len(reached) != action.points:
        witness = {"origin": origin, "orbit": list(reached)}
        raise LawError(Verdict.failing("action-transitive", witness))


def stabilizer(action: LeftAction, m: int) -> Subgroup:
    _check_point(action, m)
    return Subgroup(action.group, np.flatnonzero(action.act[:, m] == m))


def transporter(action: LeftAction, m: int, m2: int) -> tuple[int, ...]:
    """All group elements carrying m to m2 (may be empty), in increasing order."""
    _check_point(action, m)
    _check_point(action, m2)
    return tuple(np.flatnonzero(action.act[:, m] == m2).tolist())


def first_transporters(action: LeftAction, origin: int) -> np.ndarray:
    """first[m]: the smallest element carrying origin to m, or -1 when
    none does."""
    _check_point(action, origin)
    column = action.act[:, origin]
    order = len(column)
    out = np.full(action.points, order, dtype=np.int64)
    np.minimum.at(out, column, np.arange(order))
    out[out == order] = -1
    return out


def check_transporter_lemma(action: LeftAction, m: int, m2: int, g: int) -> Verdict:
    """For g carrying m to m2: conjugation maps the stabilizers onto each
    other and both translates of the stabilizer equal the transporter."""
    if action.act[g, m] != m2:
        raise InputError(f"element {g} does not carry {m} to {m2}")
    group = action.group
    mul = group.mul
    stab_m = list(stabilizer(action, m).members)
    stab_m2 = list(stabilizer(action, m2).members)
    trans = list(transporter(action, m, m2))

    conj = np.unique(mul[mul[g, stab_m], group.inv[g]]).tolist()
    if conj != stab_m2:
        return Verdict.failing(
            "transporter-conjugation",
            {"g": g, "conjugated": conj, "stabilizer": stab_m2},
        )
    left = np.unique(mul[g, stab_m]).tolist()
    if left != trans:
        return Verdict.failing(
            "transporter-left-translate",
            {"g": g, "translate": left, "transporter": trans},
        )
    right = np.unique(mul[stab_m2, g]).tolist()
    if right != trans:
        return Verdict.failing(
            "transporter-right-translate",
            {"g": g, "translate": right, "transporter": trans},
        )
    return Verdict.passing("transporter-lemma")


@dataclass(frozen=True)
class QuotientSet:
    """Left cosets of a subgroup with the left-multiplication action on them."""

    cosets: tuple[Coset, ...]
    action: LeftAction


def coset_labels(group: FiniteGroup, sub: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(reps, label): the canonical (minimum-member) representative of
    each left coset, sorted, and the index in reps of every element's coset."""
    canon = group.mul[:, list(sub.members)].min(axis=1)
    is_rep = np.zeros(group.order, dtype=bool)
    is_rep[canon] = True
    reps = np.flatnonzero(is_rep)
    return reps, np.searchsorted(reps, canon)


def coset_representatives(group: FiniteGroup, sub: Subgroup) -> tuple[int, ...]:
    """Canonical (minimum-member) representative of each left coset, sorted."""
    return tuple(coset_labels(group, sub)[0].tolist())


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


def is_stabilizer_subgroup(action: LeftAction, sub: Subgroup) -> bool:
    return any(stabilizer(action, m).members == sub.members for m in range(action.points))


def conjugate_coset(action: LeftAction, g: int, coset: Coset) -> Coset:
    """Conjugate a stabilizer coset: g maps cosets of Stab(m) to cosets of
    Stab(g.m), bijectively, and the map respects multiplication in g."""
    if not is_stabilizer_subgroup(action, coset.subgroup):
        raise InputError("coset subgroup is not the stabilizer of any point")
    return _conjugate_coset(action.group, g, coset)


def _conjugate_coset(group: FiniteGroup, g: int, coset: Coset) -> Coset:
    def conjugated(xs) -> np.ndarray:
        return group.mul[group.mul[g, list(xs)], group.inv[g]]

    sub = Subgroup(group, conjugated(coset.subgroup.members))
    return Coset(sub, int(conjugated(coset.members).min()))
