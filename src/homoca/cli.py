"""Command-line front end.

Subcommands: validate, run, laws, extract, invert, compose.  Reports are
JSON on stdout (and optionally --out); with fixed inputs and seed the
report bytes are identical across runs, so wall-clock timing goes to
stderr instead of into the report.

Exit codes: 0 all checks passed, 1 a law was violated, 2 malformed
input, 3 an exhaustive bound was exceeded (including checks that had to
fall back to sampling).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .automata import SemiCellularAutomaton, is_cellular, iterate, step, subgroup_or_whole
from .catalog import coordinate_system_variants
from .encoding import decode
from .errors import BoundError, EquivarianceError, InputError, LawError
from .groups import FiniteGroup, Subgroup, transporter, verify_action, verify_group
from .laws import (
    CONFIG_TABLE_BOUND,
    GlobalMap,
    NotInvertible,
    change_coordinates,
    check_determination,
    check_invariance_equivalence,
    compose,
    config_count,
    extract,
    global_table,
    invert,
)
from .serialize import (
    _nested,
    _resolve,
    automaton_on,
    detect_kind,
    dump_automaton,
    global_map_on,
    load_action,
    load_automaton,
    load_global_map,
    load_group,
    space_on,
    write_json,
)
from .uniformity import (
    RELATION_UNIVERSE_BOUND,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
    continuity_assignments,
    prodiscrete_base,
)
from .verdict import Verdict

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


@dataclass
class RunReport:
    command: str
    inputs: dict
    seed: int = 0
    subgroup: Optional[list[int]] = None
    suites: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, verdict: Verdict) -> None:
        self.verdicts.append(verdict.as_dict())

    def any_violation(self) -> bool:
        if any(not v["ok"] for v in self.verdicts):
            return True
        for suite in self.suites.values():
            if any(not v["ok"] for v in suite.get("verdicts", [])):
                return True
        for entry in self.extra.get("files", {}).values():
            if any(not v["ok"] for v in entry.get("verdicts", [])):
                return True
        return False

    def any_bound(self) -> bool:
        sampled = any(v.get("sampled") for v in self.verdicts)
        for suite in self.suites.values():
            if suite.get("bound_exceeded"):
                return True
            sampled = sampled or any(v.get("sampled") for v in suite.get("verdicts", []))
        return sampled

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "subgroup": self.subgroup,
        }
        if self.suites:
            out["suites"] = self.suites
        if self.verdicts:
            out["verdicts"] = self.verdicts
        out.update(self.extra)
        return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _input_record(paths: dict[str, str]) -> dict:
    out = {}
    for role, path in paths.items():
        out[role] = {"path": path, "sha256": _sha256(path)}
    return out


def _parse_subgroup(spec: Optional[str], group: FiniteGroup) -> Optional[Subgroup]:
    if spec is None:
        return None
    try:
        members = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise InputError(f"cannot parse subgroup member list {spec!r}")
    return Subgroup(group, members)


def _finish(report: RunReport, args, *, expected_fail: bool = False, out: str | None = None) -> int:
    # `out` duplicates the report; commands whose --out names an artifact
    # (extract, invert, compose) keep that file for the artifact instead.
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    violated = report.any_violation()
    if expected_fail:
        return EXIT_PASS if violated else EXIT_VIOLATION
    if violated:
        return EXIT_VIOLATION
    if report.any_bound():
        return EXIT_BOUND
    return EXIT_PASS


# ------------------------------------------------------------- validate


# the structural laws the loader stages raise as LawError, in the order they
# are checked; the origin's identity coordinate is checked with the transport
# law and has no passing verdict of its own
STRUCTURAL_LAWS = ("action-transitive", "coordinate-transport", "neighborhood-closed")


def _checked_before(law: str) -> tuple[str, ...]:
    if law == "coordinate-origin-identity":
        law = "coordinate-transport"
    return STRUCTURAL_LAWS[: STRUCTURAL_LAWS.index(law)]


def validate_source(path: str) -> tuple[str, list[Verdict]]:
    """Check the group and action axioms, then run the loader stages that
    every other subcommand runs, reporting a refused law as its verdict."""
    data, base = _resolve(path, None)
    kind = detect_kind(data)
    if kind == "group":
        return kind, [verify_group(load_group(data, base))]
    if kind == "action":
        action = load_action(data, base)
        return kind, [verify_group(action.group), verify_action(action)]
    if kind == "space":
        space_data, space_base = data, base
    else:
        space_data, space_base = _nested(data, "space", f"{kind} file", base)
    action = load_action(*_nested(space_data, "action", "cell-space file", space_base))
    verdicts = [verify_group(action.group), verify_action(action)]
    if not all(v.ok for v in verdicts):
        return kind, verdicts
    try:
        space = space_on(action, space_data)
        if kind == "automaton":
            automaton_on(space, data)
        elif kind == "global-map":
            global_map_on(space, data)
    except LawError as e:
        passed = _checked_before(e.verdict.law)
        return kind, verdicts + [Verdict.passing(law) for law in passed] + [e.verdict]
    passed = STRUCTURAL_LAWS if kind == "automaton" else STRUCTURAL_LAWS[:2]
    return kind, verdicts + [Verdict.passing(law) for law in passed]


def cmd_validate(args) -> int:
    report = RunReport("validate", _input_record({f"file{i}": p for i, p in enumerate(args.paths)}))
    results = {}
    for path in args.paths:
        kind, verdicts = validate_source(path)
        results[path] = {"kind": kind, "verdicts": [v.as_dict() for v in verdicts]}
    report.extra["files"] = results
    return _finish(report, args, out=getattr(args, "out", None))


# ------------------------------------------------------------------ run


def cmd_run(args) -> int:
    ca = load_automaton(args.automaton, auto_close=args.auto_close)
    try:
        config = tuple(int(x) for x in args.config.split(","))
    except ValueError:
        raise InputError(f"cannot parse configuration {args.config!r}")
    trace = iterate(ca, config, args.steps).tolist()
    sys.stdout.write("".join(",".join(map(str, c)) + "\n" for c in trace))
    if args.out:
        report = RunReport(
            "run",
            _input_record({"automaton": args.automaton}),
            extra={"trace": trace, "steps": args.steps},
        )
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_PASS


# ----------------------------------------------------------------- laws


def _suite_coordinate_independence(ca, sub, seed) -> dict:
    out = {"verdicts": []}
    reference = global_table(ca)
    variants = [
        s
        for s in coordinate_system_variants(ca.space.action, 6, seed)
        if s != ca.space.system
    ][:5]
    checked = []
    for system in variants:
        h = transporter(ca.space.action, ca.space.origin, system.origin)[0]
        moved = change_coordinates(ca, system, h, sub)
        if not np.array_equal(global_table(moved), reference):
            diff = int(np.flatnonzero(global_table(moved) != reference)[0])
            out["verdicts"].append(
                Verdict.failing(
                    "coordinate-independence",
                    {
                        "origin": system.origin,
                        "coords": list(system.coords),
                        "config": list(decode(diff, ca.states, ca.space.cells)),
                    },
                ).as_dict()
            )
            return out
        checked.append({"origin": system.origin, "coords": list(system.coords)})
    out["verdicts"].append(
        Verdict.passing("coordinate-independence", {"systems": checked}).as_dict()
    )
    return out


def _suite_equivalence(ca, sub, seed) -> dict:
    try:
        verdict = check_invariance_equivalence(ca, sub)
    except BoundError as e:
        return {"bound_exceeded": str(e), "verdicts": []}
    return {"verdicts": [verdict.as_dict()]}


def _suite_determination(ca, sub, seed) -> dict:
    gm = GlobalMap.from_automaton(ca)
    verdicts = [check_determination(ca, gm, sub)]
    q = ca.states
    if q == 1:
        reason = "one state admits a single global map, so there is none to perturb"
        verdicts.append(Verdict.passing("determination-rejects-perturbed", {"reason": reason}))
        return {"verdicts": [v.as_dict() for v in verdicts]}
    w = q**ca.space.origin
    table = gm.table.copy()
    d = int(table[0] // w % q)
    table[0] += ((d + 1) % q - d) * w
    perturbed = GlobalMap(ca.space, q, table=table)
    v = check_determination(ca, perturbed, sub)
    verdicts.append(
        Verdict(
            v.ok and not (v.witness or {}).get("equivariant_and_origin_matching", True),
            "determination-rejects-perturbed",
            v.witness,
        )
    )
    return {"verdicts": [v.as_dict() for v in verdicts]}


def _suite_composition(ca, sub, seed) -> dict:
    out = {"verdicts": []}
    combined = compose(ca, ca, sub)
    table = global_table(ca)
    expected = table[table]
    got = global_table(combined)
    if not np.array_equal(got, expected):
        diff = int(np.flatnonzero(got != expected)[0])
        out["verdicts"].append(
            Verdict.failing(
                "composition-step", {"config": list(decode(diff, ca.states, ca.space.cells))}
            ).as_dict()
        )
        return out
    out["verdicts"].append(
        Verdict.passing(
            "composition-step",
            {"neighborhood": [ca.space.coset_reps[j] for j in combined.neighborhood]},
        ).as_dict()
    )
    invariant = is_cellular(combined, sub)
    out["verdicts"].append(
        Verdict(invariant.ok, "composition-rule-invariant", invariant.witness).as_dict()
    )
    return out


def _suite_chl(ca, sub, seed) -> dict:
    gm = GlobalMap.from_automaton(ca)
    try:
        recovered = extract(gm, sub)
    except EquivarianceError as e:
        return {
            "verdicts": [
                Verdict.failing("extraction-equivariance", e.witness).as_dict()
            ]
        }
    ok = bool(np.array_equal(global_table(recovered), gm.table))
    verdict = Verdict(
        ok,
        "extraction-roundtrip",
        {"neighborhood": [ca.space.coset_reps[j] for j in recovered.neighborhood]},
    )
    return {"verdicts": [verdict.as_dict()]}


def _suite_invertibility(ca, sub, seed) -> dict:
    try:
        result = invert(ca, sub, seed=seed)
    except InputError as e:
        return {
            "verdicts": [
                Verdict.failing("invertibility-precondition", {"reason": str(e)}).as_dict()
            ]
        }
    except BoundError as e:
        return {"bound_exceeded": str(e), "verdicts": []}
    if isinstance(result, NotInvertible):
        witness = dict(result.witness)
        ok = True
        if "colliding" in witness:
            a, b = (tuple(c) for c in witness["colliding"])
            ok = step(ca, a) == step(ca, b) and a != b
        verdict = Verdict(ok, "collision-witness", witness, sampled=result.sampled)
        return {"invertible": False, "verdicts": [verdict.as_dict()]}
    verdict = Verdict.passing(
        "two-sided-inverse",
        {"inverse_neighborhood": [ca.space.coset_reps[j] for j in result.neighborhood]},
    )
    return {"invertible": True, "verdicts": [verdict.as_dict()]}


def _suite_uniformity(ca, sub, seed) -> dict:
    space = ca.space
    total = config_count(space, ca.states)
    out: dict = {"verdicts": []}
    verdicts = []

    gm = GlobalMap.from_automaton(ca)
    if total <= RELATION_UNIVERSE_BOUND:
        base = prodiscrete_base(space, ca.states)
        verdicts.append(check_uniformity_base(base))

        intersect_ok = True
        witness = None
        labels = base.labels or ()
        for i, k1 in enumerate(labels):
            for j, k2 in enumerate(labels):
                merged = tuple(sorted(set(k1) | set(k2)))
                expected = base.relations[labels.index(merged)]
                if base.relations[i].intersect(base.relations[j]) != expected:
                    intersect_ok = False
                    witness = {"first": list(k1), "second": list(k2)}
                    break
            if not intersect_ok:
                break
        verdicts.append(Verdict(intersect_ok, "agreement-intersection", witness))

        continuity = check_uniform_continuity(gm, base)
        verdicts.append(continuity.verdict)
        assignments = continuity.assignments
    else:
        out["bound_exceeded"] = f"{total} configurations exceed the relation bound"
        assignments = continuity_assignments(gm, [(m,) for m in range(space.cells)])

    window_ok = True
    window_witness = None
    for cells, source in assignments:
        reachable = set(space.semi_table[np.ix_(cells, ca.neighborhood)].ravel().tolist())
        if not set(source) <= reachable:
            window_ok = False
            window_witness = {"target_cells": list(cells), "source": list(source)}
            break
    verdicts.append(Verdict(window_ok, "continuity-inside-window", window_witness))

    if is_cellular(ca, sub).ok:
        iso = check_uniform_isomorphism(gm)
        result = invert(ca, sub, seed=seed)
        invertible = not isinstance(result, NotInvertible)
        verdicts.append(
            Verdict(
                iso.ok == invertible,
                "isomorphism-matches-invertibility",
                {"uniform_isomorphism": iso.ok, "invertible": invertible},
            )
        )
    out["verdicts"] = [v.as_dict() for v in verdicts]
    return out


# suite -> (runner, needs a rotation-invariant rule, needs global tables)
SUITE_TABLE = {
    "coordinate-independence": (_suite_coordinate_independence, True, True),
    "equivalence": (_suite_equivalence, False, False),
    "determination": (_suite_determination, False, True),
    "composition": (_suite_composition, True, True),
    "chl": (_suite_chl, False, True),
    "invertibility": (_suite_invertibility, False, False),
    "uniformity": (_suite_uniformity, False, True),
}
SUITES = tuple(SUITE_TABLE)


def _run_suite(name: str, ca, sub, seed) -> dict:
    runner, needs_invariant, needs_tables = SUITE_TABLE[name]
    if needs_invariant:
        inv = is_cellular(ca, sub)
        if not inv.ok:
            refused = Verdict.failing(f"{name}-precondition", inv.witness or {})
            return {"verdicts": [refused.as_dict()]}
    if needs_tables and config_count(ca.space, ca.states) > CONFIG_TABLE_BOUND:
        return {"bound_exceeded": "global tables beyond the exhaustive bound", "verdicts": []}
    return runner(ca, sub, seed)


def cmd_laws(args) -> int:
    ca = load_automaton(args.automaton, auto_close=args.auto_close)
    sub = _parse_subgroup(args.subgroup, ca.space.group)
    subgroup_or_whole(ca.space, sub)
    suites = args.suite or list(SUITES)
    for name in suites:
        if name not in SUITE_TABLE:
            raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    report = RunReport(
        "laws",
        _input_record({"automaton": args.automaton}),
        seed=args.seed,
        subgroup=list(sub.members) if sub else None,
    )
    for name in suites:
        report.suites[name] = _run_suite(name, ca, sub, args.seed)
    return _finish(report, args, expected_fail=args.expect_fail, out=args.out)


# ------------------------------------------------- extract/invert/compose


def cmd_extract(args) -> int:
    gm = load_global_map(args.globalmap)
    sub = _parse_subgroup(args.subgroup, gm.space.group)
    report = RunReport(
        "extract",
        _input_record({"globalmap": args.globalmap}),
        subgroup=list(sub.members) if sub else None,
    )
    try:
        ca = extract(gm, sub)
    except EquivarianceError as e:
        report.add(Verdict.failing("extraction-equivariance", e.witness))
        return _finish(report, args)
    report.add(Verdict.passing("extraction-equivariance"))
    report.add(
        Verdict.passing(
            "extraction-roundtrip",
            {"neighborhood": [gm.space.coset_reps[j] for j in ca.neighborhood]},
        )
    )
    payload = dump_automaton(ca)
    if args.out:
        write_json(args.out, payload)
    else:
        report.extra["automaton"] = payload
    return _finish(report, args)


def cmd_invert(args) -> int:
    ca = load_automaton(args.automaton, auto_close=args.auto_close)
    sub = _parse_subgroup(args.subgroup, ca.space.group)
    report = RunReport(
        "invert",
        _input_record({"automaton": args.automaton}),
        subgroup=list(sub.members) if sub else None,
    )
    result = invert(ca, sub)
    if isinstance(result, NotInvertible):
        witness = dict(result.witness)
        if "colliding" in witness:
            a, b = (tuple(c) for c in witness["colliding"])
            witness["verified"] = step(ca, a) == step(ca, b) and a != b
        report.add(Verdict.failing("invertible", witness, sampled=result.sampled))
        return _finish(report, args, expected_fail=args.expect_fail)
    report.add(
        Verdict.passing(
            "invertible",
            {"inverse_neighborhood": [ca.space.coset_reps[j] for j in result.neighborhood]},
        )
    )
    if args.out:
        write_json(args.out, dump_automaton(result))
    else:
        report.extra["automaton"] = dump_automaton(result)
    return _finish(report, args, expected_fail=args.expect_fail)


def cmd_compose(args) -> int:
    outer = load_automaton(args.outer, auto_close=args.auto_close)
    inner = load_automaton(args.inner, auto_close=args.auto_close)
    if outer.space.system != inner.space.system:
        raise InputError("automata are on different cell spaces")
    inner = SemiCellularAutomaton(outer.space, inner.states, inner.neighborhood, inner.rule)
    sub = _parse_subgroup(args.subgroup, outer.space.group)
    report = RunReport(
        "compose",
        _input_record({"outer": args.outer, "inner": args.inner}),
        subgroup=list(sub.members) if sub else None,
    )
    combined = compose(outer, inner, sub)
    if config_count(outer.space, outer.states) <= CONFIG_TABLE_BOUND:
        expected = global_table(outer)[global_table(inner)]
        if not np.array_equal(global_table(combined), expected):
            raise AssertionError("composition failed to reproduce outer-after-inner")
        report.add(Verdict.passing("composition-step"))
    report.add(
        Verdict.passing(
            "composition-neighborhood",
            {"representatives": [outer.space.coset_reps[j] for j in combined.neighborhood]},
        )
    )
    if args.out:
        write_json(args.out, dump_automaton(combined))
    else:
        report.extra["automaton"] = dump_automaton(combined)
    return _finish(report, args)


# ----------------------------------------------------------------- main


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls: parsing
    fills a fresh namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="homoca",
        description="validate, run and law-check cellular automata over finite group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check files for well-formedness and axioms")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="iterate an automaton from a configuration")
    p.add_argument("automaton")
    p.add_argument("--config", required=True, help="comma-separated cell states")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--auto-close", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("laws", help="run law suites against an automaton")
    p.add_argument("automaton")
    p.add_argument("--suite", action="append", choices=SUITES)
    p.add_argument("--subgroup", help="comma-separated member elements of the symmetry scope")
    p.add_argument("--expect-fail", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--auto-close", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("extract", help="recover an automaton from a global map table")
    p.add_argument("globalmap")
    p.add_argument("--subgroup")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("invert", help="construct the inverse automaton if one exists")
    p.add_argument("automaton")
    p.add_argument("--subgroup")
    p.add_argument("--expect-fail", action="store_true")
    p.add_argument("--auto-close", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("compose", help="combine two automata into outer-after-inner")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--subgroup")
    p.add_argument("--auto-close", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.fn(args)
    except (InputError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except BoundError as e:
        sys.stderr.write(f"bound exceeded: {e}\n")
        return EXIT_BOUND
    finally:
        sys.stderr.write(f"elapsed {time.monotonic() - started:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
