"""Expected outcomes of benchmark operations, computed off the timed path.

For each CLI operation the oracle decides which exit code the README
promises and which `ok` flag every verdict in the report must carry.  It
never compares witness bytes, so a change that picks a different but valid
witness still passes.  The expectations come from code other than the path
being timed:

* `run` traces are recomputed with `step_via_origin`;
* rule invariance is decided by brute force over every local configuration
  and every stabilizer element, with `rotate_local`'s position maps;
* a collision witness is re-stepped with `step_via_origin`;
* an inverse, composite or extracted rule is checked by a round trip on
  seeded configurations;
* group, action and cell-space axioms are re-checked on the raw JSON tables:
  by brute force for the bundled fixtures, and against composition of the
  permutations for the generated symmetric groups.

The laws that the paper proves for every automaton (THEOREM_LAWS) must
always come out `ok`.  A law name the oracle does not know is a failure,
because nothing vouches for its flag.
"""

from __future__ import annotations

import json
import os
import random
from typing import Optional

import numpy as np
from homoca.automata import (
    rotation_position_map,
    stabilizer_part,
    step_via_origin,
    subgroup_or_whole,
)
from homoca.encoding import decode, encode
from homoca.errors import BoundError, InputError
from homoca.laws import NotInvertible, invert
from homoca.serialize import load_automaton

THEOREM_LAWS = frozenset(
    {
        "coordinate-independence",
        "invariance-matches-equivariance",
        "determination-at-origin",
        "determination-rejects-perturbed",
        "composition-step",
        "composition-rule-invariant",
        "composition-neighborhood",
        "extraction-roundtrip",
        "uniformity-base",
        "agreement-intersection",
        "uniform-continuity",
        "continuity-inside-window",
        "isomorphism-matches-invertibility",
    }
)
# verdicts that hold exactly when the rule is rotation-invariant
INVARIANCE_LAWS = frozenset(
    {
        "coordinate-independence-precondition",
        "composition-precondition",
        "invertibility-precondition",
        "extraction-equivariance",
    }
)
# verdicts of `validate`, keyed to the structural fact each one asserts
VALIDATE_LAWS = {
    "group-axioms": "group",
    "group-identity": "group",
    "group-inverses": "group",
    "group-associativity": "group",
    "action-axioms": "action",
    "action-identity": "action",
    "action-compatibility": "action",
    "action-transitive": "transitive",
    "coordinate-transport": "coords",
    "coordinate-origin-identity": "coords",
    "neighborhood-closed": "closed",
}
ROUND_TRIP_SAMPLES = 16
EXIT_PASS, EXIT_VIOLATION, EXIT_INPUT, EXIT_BOUND = 0, 1, 2, 3
REPORTING = {"laws", "validate", "invert", "compose", "extract"}


class Oracle:
    def __init__(self, manifest: dict, workdir: str):
        self.perm_actions = manifest.get("perm_actions", {})
        self.workdir = workdir
        self._json: dict = {}
        self._facts: dict = {}
        self._automata: dict = {}

    # ------------------------------------------------------------ entry

    def check(self, op: dict, code, stdout: str, error: Optional[str]) -> Optional[str]:
        """None when the outcome is the expected one, else the reason."""
        if error is not None:
            return f"exception escaped main: {error}"
        report = None
        if op["cmd"] in REPORTING and code in (EXIT_PASS, EXIT_VIOLATION, EXIT_BOUND):
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError:
                return f"exit {code} without a parseable report"
        try:
            return getattr(self, "_check_" + op["cmd"])(op, code, stdout, report)
        except (KeyError, IndexError, TypeError, ValueError, InputError) as e:
            return f"report not as documented: {type(e).__name__}: {e}"

    # ------------------------------------------------------ raw tables

    def _load(self, source, base: str = "") -> dict:
        """A JSON object with every file reference resolved and inlined."""
        if isinstance(source, dict):
            data = source
        else:
            path = os.path.join(base, source)
            if path not in self._json:
                with open(os.path.join(self.workdir, path)) as fh:
                    self._json[path] = json.load(fh)
            data = self._json[path]
            base = os.path.dirname(path)
        out = dict(data)
        for key in ("group", "action", "space"):
            if key in out:
                out[key] = self._load(out[key], base)
        return out

    def _cached(self, key, compute):
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def _tables_ok(self, group: dict, act) -> dict:
        """Group and action validity of a group table with an optional action."""
        mul = np.array(group["mul"], dtype=np.int64)
        act = None if act is None else np.array(act, dtype=np.int64)
        key = (mul.tobytes(), group["identity"], None if act is None else act.tobytes())
        return self._cached(key, lambda: table_facts(mul, group["identity"], act))

    def _structure(self, name: str) -> dict:
        """Which structural facts hold for a file, as `validate` sees them."""

        def compute():
            data = self._load(name)
            if "mul" in data:
                source = self.perm_actions.get(name)
                act = self._load(source)["act"] if source else None
                return {"group": self._tables_ok(data, act)["group"]}
            action = data if "act" in data else data.get("space", data)["action"]
            group = action["group"]
            facts = dict(self._tables_ok(group, action["act"]))
            if "act" in data:
                return facts
            space = data.get("space", data)
            act = action["act"]
            origin = int(space.get("origin", 0))
            facts["transitive"] = {act[g][origin] for g in range(len(act))} == set(range(action["points"]))
            coords = space.get("coords")
            facts["coords"] = coords is None or (
                coords[origin] == group["identity"]
                and all(act[g][origin] == m for m, g in enumerate(coords))
            )
            if "delta" in data:
                facts.update(_neighborhood_facts(group["mul"], act, origin, data["neighborhood"]))
            return facts

        return self._cached(("structure", name), compute)

    # ------------------------------------------------------- automata

    def _automaton(self, source):
        if isinstance(source, dict):
            return load_automaton(source)
        if source not in self._automata:
            self._automata[source] = load_automaton(os.path.join(self.workdir, source))
        return self._automata[source]

    def _invariant(self, name: str) -> bool:
        return self._cached(("invariant", name), lambda: rule_invariant(self._automaton(name)))

    def _invertible(self, name: str) -> Optional[bool]:
        """True/False when a certificate verifies, None when none exists."""

        def compute():
            ca = self._automaton(name)
            try:
                result = invert(ca)
            except BoundError:
                return None
            if isinstance(result, NotInvertible):
                return False if collides(ca, result.witness) else None
            return True if round_trip(ca, result, random.Random(0)) else None

        return self._cached(("invertible", name), compute)

    # --------------------------------------------------------- commands

    def _check_run(self, op, code, stdout, report):
        name = op["automaton"]
        if self._structure(name).get("duplicate"):
            return None if code == EXIT_INPUT else f"exit {code}, expected {EXIT_INPUT}"
        if code != EXIT_PASS:
            return f"exit {code}, expected {EXIT_PASS}"
        ca = self._automaton(name)
        config = tuple(op["config"])
        expected = [config]
        for _ in range(op["steps"]):
            expected.append(step_via_origin(ca, expected[-1]))
        lines = stdout.splitlines()
        want = [",".join(map(str, c)) for c in expected]
        if lines != want:
            return "trace differs from step_via_origin"
        return None

    def _check_laws(self, op, code, stdout, report):
        name = op["automaton"]
        if self._structure(name).get("duplicate"):
            return None if code == EXIT_INPUT else f"exit {code}, expected {EXIT_INPUT}"
        if report is None:
            return f"exit {code} without a report"
        violation = bound = False
        for suite_name, suite in report.get("suites", {}).items():
            bound = bound or bool(suite.get("bound_exceeded"))
            for v in suite.get("verdicts", []):
                want = self._expected_verdict(name, v)
                if isinstance(want, str):
                    return f"{suite_name}: {want}"
                if v["ok"] != want:
                    return f"{suite_name}: {v['law']} ok={v['ok']}, expected {want}"
                violation = violation or not want
                bound = bound or bool(v.get("sampled"))
        expected_code = EXIT_VIOLATION if violation else EXIT_BOUND if bound else EXIT_PASS
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        return None

    def _expected_verdict(self, name: str, v: dict):
        law = v["law"]
        if law in THEOREM_LAWS:
            return True
        if law in INVARIANCE_LAWS:
            return self._invariant(name)
        if law == "collision-witness":
            return collides(self._automaton(name), v.get("witness", {}))
        if law == "two-sided-inverse":
            known = self._invertible(name)
            return "no certificate for an inverse" if known is None else known
        return f"unknown law {law!r}"

    def _check_invert(self, op, code, stdout, report):
        name = op["automaton"]
        if not self._invariant(name):
            return None if code == EXIT_INPUT else f"exit {code}, expected {EXIT_INPUT}"
        if report is None:
            return f"exit {code} without a report"
        (v,) = report["verdicts"]
        ca = self._automaton(name)
        if v["ok"]:
            inverse = self._automaton(report["automaton"])
            if not round_trip(ca, inverse, random.Random(op["id"])):
                return "inverse fails the round trip"
        elif not collides(ca, v.get("witness", {})):
            return "refusal without a colliding pair"
        expected_code = EXIT_PASS if v["ok"] else EXIT_VIOLATION
        return None if code == expected_code else f"exit {code}, expected {expected_code}"

    def _check_compose(self, op, code, stdout, report):
        name = op["automaton"]
        if not self._invariant(name):
            return None if code == EXIT_INPUT else f"exit {code}, expected {EXIT_INPUT}"
        if report is None:
            return f"exit {code} without a report"
        for v in report["verdicts"]:
            if v["law"] not in THEOREM_LAWS or not v["ok"]:
                return f"{v['law']} ok={v['ok']}, expected True"
        ca = self._automaton(name)
        combined = self._automaton(report["automaton"])
        rng = random.Random(op["id"])
        for _ in range(ROUND_TRIP_SAMPLES):
            c = tuple(rng.randrange(ca.states) for _ in range(ca.space.cells))
            if step_via_origin(combined, c) != step_via_origin(ca, step_via_origin(ca, c)):
                return "composite differs from stepping twice"
        return None if code == EXIT_PASS else f"exit {code}, expected {EXIT_PASS}"

    def _check_extract(self, op, code, stdout, report):
        data = self._load(op["globalmap"])
        table = data["table"]
        space = data["space"]
        act = space["action"]["act"]
        equivariant = map_equivariant(table, data["states"], act, space["action"]["group"])
        if report is None:
            return f"exit {code} without a report"
        for v in report.get("verdicts", []):
            want = True if v["law"] in THEOREM_LAWS else equivariant if v["law"] == "extraction-equivariance" else None
            if want is None:
                return f"unknown law {v['law']!r}"
            if v["ok"] != want:
                return f"{v['law']} ok={v['ok']}, expected {want}"
        if equivariant:
            ca = self._automaton(report["automaton"])
            cells = len(act[0])
            for code_in, image in enumerate(table):
                c = decode(code_in, data["states"], cells)
                if step_via_origin(ca, c) != decode(image, data["states"], cells):
                    return "extracted rule does not reproduce the table"
        expected_code = EXIT_PASS if equivariant else EXIT_VIOLATION
        return None if code == expected_code else f"exit {code}, expected {expected_code}"

    def _check_validate(self, op, code, stdout, report):
        if any(self._structure(f).get("duplicate") for f in op["files"]):
            return None if code == EXIT_INPUT else f"exit {code}, expected {EXIT_INPUT}"
        if report is None:
            return f"exit {code} without a report"
        violation = False
        for f in op["files"]:
            entry = report.get("files", {}).get(f)
            if entry is None or not entry.get("verdicts"):
                return f"{f}: no verdicts"
            facts = self._structure(f)
            for v in entry["verdicts"]:
                fact = VALIDATE_LAWS.get(v["law"])
                if fact is None or fact not in facts:
                    return f"{f}: unexpected law {v['law']!r}"
                if v["ok"] != facts[fact]:
                    return f"{f}: {v['law']} ok={v['ok']}, expected {facts[fact]}"
                violation = violation or not v["ok"]
        expected_code = EXIT_VIOLATION if violation else EXIT_PASS
        return None if code == expected_code else f"exit {code}, expected {expected_code}"


# ------------------------------------------------------------- checkers


BRUTE_FORCE_ORDER = 64


def table_facts(mul: np.ndarray, identity: int, act: Optional[np.ndarray]) -> dict:
    """{'group': ..., 'action': ...} validity; 'action' only with an action.

    When the action's rows are distinct permutations, the identity acts
    trivially and the table is composition of those rows, the table is a
    group and the action satisfies both axioms.  Otherwise the axioms are
    swept by brute force, which is kept to small orders."""
    if act is not None and _composition_table(mul, identity, act):
        return {"group": True, "action": True}
    n = len(mul)
    if n > BRUTE_FORCE_ORDER:
        raise ValueError(f"no certificate for a table of order {n}")
    m = mul.tolist()
    group = (
        all(m[identity][a] == a and m[a][identity] == a for a in range(n))
        and all(any(m[a][b] == identity and m[b][a] == identity for b in range(n)) for a in range(n))
        and all(m[m[a][b]][c] == m[a][m[b][c]] for a in range(n) for b in range(n) for c in range(n))
    )
    if act is None:
        return {"group": group}
    points = act.shape[1]
    action = bool(
        np.array_equal(act[identity], np.arange(points))
        and all(act[m[g][h]][x] == act[g][act[h][x]] for g in range(n) for h in range(n) for x in range(points))
    )
    return {"group": group, "action": action}


def _composition_table(mul: np.ndarray, identity: int, act: np.ndarray) -> bool:
    points = act.shape[1]
    if not np.array_equal(act[identity], np.arange(points)):
        return False
    if not np.array_equal(np.sort(act, axis=1), np.broadcast_to(np.arange(points), act.shape)):
        return False
    radix = points ** np.arange(points)[::-1]
    index = {int(c): g for g, c in enumerate(act @ radix)}
    if len(index) != len(act):
        return False
    for a in range(len(act)):
        row = act[a][act] @ radix  # codes of act[a] after act[b], over b
        if any(index.get(int(c)) != int(mul[a][b]) for b, c in enumerate(row)):
            return False
    return True


def _neighborhood_facts(mul, act, origin: int, reps) -> dict:
    stab = [g for g in range(len(act)) if act[g][origin] == origin]
    cosets = [frozenset(mul[int(g)][s] for s in stab) for g in reps]
    named = set(cosets)
    closed = all(frozenset(mul[h][x] for x in c) in named for c in named for h in stab)
    return {"closed": closed, "duplicate": len(named) != len(cosets)}


def rule_invariant(ca) -> bool:
    """Brute force: no stabilizer rotation of any local configuration
    changes the rule's output."""
    space = ca.space
    maps = [rotation_position_map(ca, h) for h in stabilizer_part(space, subgroup_or_whole(space, None))]
    for code in range(ca.states**ca.arity):
        local = decode(code, ca.states, ca.arity)
        out = ca.rule[code]
        for p in maps:
            # rotate_local(ca, h, local) with the position map computed once
            rotated = tuple(local[p[i]] for i in range(ca.arity))
            if ca.rule[encode(rotated, ca.states)] != out:
                return False
    return True


def collides(ca, witness: dict) -> bool:
    pair = witness.get("colliding")
    if not pair or len(pair) != 2:
        return False
    a, b = (tuple(c) for c in pair)
    return a != b and step_via_origin(ca, a) == step_via_origin(ca, b)


def round_trip(ca, inverse, rng: random.Random) -> bool:
    for _ in range(ROUND_TRIP_SAMPLES):
        c = tuple(rng.randrange(ca.states) for _ in range(ca.space.cells))
        if step_via_origin(inverse, step_via_origin(ca, c)) != c:
            return False
        if step_via_origin(ca, step_via_origin(inverse, c)) != c:
            return False
    return True


def map_equivariant(table, states: int, act, group: dict) -> bool:
    """Brute force: the table commutes with every translation g, where
    (g.c)[m] = c[g^-1 . m]."""
    mul, e = group["mul"], group["identity"]
    n, cells = len(act), len(act[0])
    inv = [next(b for b in range(n) if mul[a][b] == e) for a in range(n)]

    def shift(g, c):
        return tuple(c[act[inv[g]][m]] for m in range(cells))

    for code in range(len(table)):
        c = decode(code, states, cells)
        image = decode(table[code], states, cells)
        for g in range(n):
            if decode(table[encode(shift(g, c), states)], states, cells) != shift(g, image):
                return False
    return True
