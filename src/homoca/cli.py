"""Command-line front end.

Subcommands: validate, run, laws, extract, invert, compose.  Reports are
JSON on stdout (and optionally --out); with fixed inputs and seed the
report bytes are identical across runs, so wall-clock timing goes to
stderr instead of into the report.  Reports and --out files are spelled
by `serialize.dumps`, as json spells them indented by two spaces with
sorted keys.

Exit codes: 0 all checks passed, 1 a law was violated, 2 malformed
input, 3 an exhaustive bound was exceeded (including checks that had to
fall back to sampling).

The `coordinate-independence`, `equivalence`, `determination`,
`composition` and `chl` suites and `compose` decide their laws from the
rule on neighbourhood windows (see `homoca.laws`), so they build no
global table and stay exact past the table bound.  The `uniformity`
suite holds each agreement relation as a labeling of the configurations
(see `homoca.uniformity`): its base verdicts hold by construction, and
continuity and the isomorphism are checked on the global table, so it
is exact up to the table bound and reports `bound_exceeded` past it; so
does `extract`, after the equivariance verdict it reads off the map's
own table.  The suite reads the automaton's one `GlobalMap`, which
keeps its dependency matrix, inverse and continuity, so `invert` and
the isomorphism check in it share one inverse and decide nothing twice.
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
from .bounds import PRINT_BLOCK
from .catalog import coordinate_system_variants
from .errors import BoundError, EquivarianceError, InputError, LawError
from .groups import FiniteGroup, Subgroup, require_group_action, transporter, verify_action, verify_group
from .laws import (
    GlobalMap,
    NotInvertible,
    change_coordinates,
    check_determination,
    check_invariance_equivalence,
    compose,
    composition_difference,
    extract,
    extract_step,
    # not called here: perfbench's tracer test checks that this binding
    # is unwrapped again, until a benchmark change drops that check
    global_table,
    invert,
    shift_cells,
    step_difference,
)
from .serialize import (
    _nested,
    _resolve,
    automaton_on,
    detect_kind,
    dump_automaton,
    dumps,
    global_map_on,
    load_action,
    load_automaton,
    load_global_map,
    load_group,
    space_on,
    write_json,
)
from .uniformity import (
    check_agreement_intersection,
    check_continuity_window,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
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
        if self.extra.get("bound_exceeded"):
            return True
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
    payload = dumps(report.as_dict()) + "\n"
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


def _print_trace(trace: np.ndarray, out) -> None:
    """Write the trace to `out` as lines of comma-separated states, one
    line per row.

    Rows go out in blocks of at most PRINT_BLOCK entries (or one row, if it
    is longer), so the printer's memory stays flat however long the trace.
    In a block each entry becomes a token, "v," inside a row and "v\\n" at
    its end, looked up in one fixed-width bytes table over the states the
    block holds; the NUL bytes padding the shorter tokens are dropped from
    the gathered bytes at once.
    """
    rows = max(1, PRINT_BLOCK // trace.shape[1])
    for start in range(0, len(trace), rows):
        block = trace[start : start + rows]
        values, inverse = np.unique(block, return_inverse=True)
        # depending on the NumPy version the inverse comes back flat or shaped
        codes = inverse.reshape(block.shape)
        codes[:, -1] += len(values)
        states = values.tolist()
        tokens = np.array([b"%d," % v for v in states] + [b"%d\n" % v for v in states])
        out.write(tokens[codes].tobytes().translate(None, b"\0").decode("ascii"))


def cmd_run(args) -> int:
    ca = load_automaton(args.automaton, auto_close=args.auto_close)
    try:
        config = tuple(int(x) for x in args.config.split(","))
    except ValueError:
        raise InputError(f"cannot parse configuration {args.config!r}")
    trace = iterate(ca, config, args.steps)
    _print_trace(trace, sys.stdout)
    if args.out:
        report = RunReport(
            "run",
            _input_record({"automaton": args.automaton}),
            extra={"trace": trace.tolist(), "steps": args.steps},
        )
        write_json(args.out, report.as_dict())
    return EXIT_PASS


# ----------------------------------------------------------------- laws


def _suite_coordinate_independence(ca, sub, seed) -> dict:
    out = {"verdicts": []}
    variants = [
        s
        for s in coordinate_system_variants(ca.space.action, 6, seed)
        if s != ca.space.system
    ][:5]
    checked = []
    for system in variants:
        h = transporter(ca.space.action, ca.space.origin, system.origin)[0]
        moved = change_coordinates(ca, system, h, sub)
        config = step_difference(ca, moved)
        if config is not None:
            out["verdicts"].append(
                Verdict.failing(
                    "coordinate-independence",
                    {"origin": system.origin, "coords": list(system.coords), "config": config},
                ).as_dict()
            )
            return out
        checked.append({"origin": system.origin, "coords": list(system.coords)})
    out["verdicts"].append(
        Verdict.passing("coordinate-independence", {"systems": checked}).as_dict()
    )
    return out


def _suite_equivalence(ca, sub, seed) -> dict:
    return {"verdicts": [check_invariance_equivalence(ca, sub).as_dict()]}


def _suite_determination(ca, sub, seed) -> dict:
    own = check_determination(ca, sub)
    verdicts = [own]
    q, space = ca.states, ca.space
    if q == 1:
        reason = "one state admits a single global map, so there is none to perturb"
        verdicts.append(Verdict.passing("determination-rejects-perturbed", {"reason": reason}))
        return {"verdicts": [v.as_dict() for v in verdicts]}
    # the step with the origin digit of configuration 0's image moved to the
    # next state.  Every shift fixes configuration 0, and the step maps it to
    # rule entry 0 everywhere, so the two maps differ there alone, at the
    # origin: both portraits reject the perturbed map.  Its image keeps to
    # the shifts under which the origin, and no other cell, reads the
    # origin; when every shift in scope does (on one cell), the perturbed
    # map commutes with the shifts as the step does.  On more cells the
    # scope holds a coordinate's inverse, which carries the origin away
    zero = int(ca.rule_array[0])
    rows = shift_cells(space, subgroup_or_whole(space, sub).members)
    kept = ((rows == space.origin) == (np.arange(space.cells) == space.origin)).all()
    witness = {
        "rule_invariant_and_equal": False,
        "equivariant_and_origin_matching": False,
        "rule_invariant": own.witness["rule_invariant"],
        "tables_equal": False,
        "equivariant": own.witness["equivariant"] and bool(kept),
        "origin_matching": False,
        "origin_witness": {"config": [0] * space.cells, "map_origin_value": (zero + 1) % q, "rule_origin_value": zero},
    }
    verdicts.append(Verdict.passing("determination-rejects-perturbed", witness))
    return {"verdicts": [v.as_dict() for v in verdicts]}


def _suite_composition(ca, sub, seed) -> dict:
    out = {"verdicts": []}
    combined = compose(ca, ca, sub)
    config = composition_difference(combined, ca, ca)
    if config is not None:
        out["verdicts"].append(Verdict.failing("composition-step", {"config": config}).as_dict())
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
    try:
        recovered = extract_step(ca, sub)
    except EquivarianceError as e:
        return {
            "verdicts": [
                Verdict.failing("extraction-equivariance", e.witness).as_dict()
            ]
        }
    verdict = Verdict.passing(
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
    gm = GlobalMap.from_automaton(ca)
    base = prodiscrete_base(space, ca.states)
    continuity = check_uniform_continuity(gm)
    verdicts = [
        check_uniformity_base(base),
        check_agreement_intersection(base),
        continuity.verdict,
        check_continuity_window(space, ca.neighborhood, continuity.assignments),
    ]
    if is_cellular(ca, sub).ok:
        invertible = not isinstance(invert(ca, sub, seed=seed), NotInvertible)
        iso = check_uniform_isomorphism(gm)
        verdicts.append(
            Verdict(
                iso.ok == invertible,
                "isomorphism-matches-invertibility",
                {"uniform_isomorphism": iso.ok, "invertible": invertible},
            )
        )
    return {"verdicts": [v.as_dict() for v in verdicts]}


# suite -> (runner, needs a rotation-invariant rule)
SUITE_TABLE = {
    "coordinate-independence": (_suite_coordinate_independence, True),
    "equivalence": (_suite_equivalence, False),
    "determination": (_suite_determination, False),
    "composition": (_suite_composition, True),
    "chl": (_suite_chl, False),
    "invertibility": (_suite_invertibility, False),
    "uniformity": (_suite_uniformity, False),
}
SUITES = tuple(SUITE_TABLE)


def _run_suite(name: str, ca, sub, seed) -> dict:
    runner, needs_invariant = SUITE_TABLE[name]
    if needs_invariant:
        inv = is_cellular(ca, sub)
        if not inv.ok:
            refused = Verdict.failing(f"{name}-precondition", inv.witness or {})
            return {"verdicts": [refused.as_dict()]}
    try:
        return runner(ca, sub, seed)
    except BoundError as e:
        return {"bound_exceeded": str(e), "verdicts": []}


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
    except BoundError as e:
        # extract checks equivariance first, on a table of any size; a
        # bound is met only after it, by the automaton extracted: exit 3
        report.add(Verdict.passing("extraction-equivariance"))
        report.extra["bound_exceeded"] = str(e)
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
    try:
        result = invert(ca, sub)
    except BoundError as e:
        # neither refuted nor certified: exit 3, whatever was expected
        report.extra["bound_exceeded"] = str(e)
        return _finish(report, args)
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
    if composition_difference(combined, outer, inner) is not None:
        require_group_action(outer.space.action)
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
