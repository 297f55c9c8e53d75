"""Seeded inputs and operation lists for the three benchmark workloads.

`generate(workload, seed, root, workdir)` writes every file the program will
see into `workdir` and returns the manifest: the ordered list of CLI
operations one pass runs, the known-defect probes and, for the generated
symmetric groups, the action whose permutations certify each group table.  The same seed always yields the same
bytes; `digest(workdir)` hashes them so a run can confirm it.

The rationale for each workload, its op list and the layers it stresses or
bypasses are written up in perfbench/WORKLOADS.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil

import numpy as np

WORKLOADS = ("fixtures-exhaustive", "torus3-past-bound", "symmetric-group")

FIXTURE_AUTOMATA = (
    "cube_identity",
    "cube_or",
    "cyclic4_identity",
    "cyclic4_or",
    "cyclic4_shift",
    "square_identity",
    "square_or",
    "square_projection",
    "torus_identity",
    "torus_or",
)
# square_projection copies one rotating neighbour, so it is the only bundled
# rule that is not rotation-invariant; compose requires invariance.
FIXTURE_NOT_INVARIANT = ("square_projection",)
FIXTURE_GLOBAL_MAPS = ("cyclic4_shift_globalmap", "cyclic4_broken_globalmap")
SUITES = (
    "coordinate-independence",
    "equivalence",
    "determination",
    "composition",
    "chl",
    "invertibility",
    "uniformity",
)
FIXTURE_RUN_STEPS = 100

# one rule per seed: a pass then takes about 5 s, and a run holds five of them
TORUS_RULES = 1
TORUS_STATES = 3
TORUS_RUN_STEPS = 1000
TORUS_RUNS = 2

SYMMETRIC_DEGREES = (5, 6)
SYMMETRIC_SUITES = ("equivalence", "coordinate-independence", "chl", "invertibility")
SYMMETRIC_RUN_STEPS = 100

MANIFEST = "manifest.json"


def _write(workdir: str, name: str, data) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return name


def _config(rng: random.Random, states: int, cells: int) -> list[int]:
    return [rng.randrange(states) for _ in range(cells)]


def _run_op(name: str, config: list[int], steps: int) -> dict:
    argv = ["run", name, "--config", ",".join(map(str, config)), "--steps", str(steps)]
    return {"cmd": "run", "argv": argv, "automaton": name, "config": config, "steps": steps}


def _laws_op(name: str, suites, seed: int | None) -> dict:
    argv = ["laws", name]
    for s in suites:
        argv += ["--suite", s]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"cmd": "laws", "argv": argv, "automaton": name}


# ------------------------------------------------------ fixtures-exhaustive


def _fixtures_exhaustive(seed: int, root: str, workdir: str) -> dict:
    rng = random.Random(seed)
    src = os.path.join(root, "fixtures")
    names = sorted(f for f in os.listdir(src) if f.endswith(".json"))
    for f in names:
        shutil.copyfile(os.path.join(src, f), os.path.join(workdir, f))
    ops = []
    for a in FIXTURE_AUTOMATA:
        ops += [_laws_op(f"{a}.json", [s], seed) for s in SUITES]
    for a in FIXTURE_AUTOMATA:
        ops.append({"cmd": "invert", "argv": ["invert", f"{a}.json"], "automaton": f"{a}.json"})
    for a in FIXTURE_AUTOMATA:
        with open(os.path.join(workdir, f"{a}.json")) as fh:
            data = json.load(fh)
        cells = data["space"]["action"]["points"]
        ops.append(_run_op(f"{a}.json", _config(rng, data["states"], cells), FIXTURE_RUN_STEPS))
    for a in FIXTURE_AUTOMATA:
        if a not in FIXTURE_NOT_INVARIANT:
            argv = ["compose", f"{a}.json", f"{a}.json"]
            ops.append({"cmd": "compose", "argv": argv, "automaton": f"{a}.json"})
    for g in FIXTURE_GLOBAL_MAPS:
        ops.append({"cmd": "extract", "argv": ["extract", f"{g}.json"], "globalmap": f"{g}.json"})
    ops.append({"cmd": "validate", "argv": ["validate"] + names, "files": names})
    return {"ops": ops, "probes": []}


# -------------------------------------------------------- torus3-past-bound


def _torus3(seed: int, root: str, workdir: str) -> dict:
    from homoca.catalog import random_rule_automaton
    from homoca.serialize import load_automaton

    rng = random.Random(seed)
    src = os.path.join(root, "fixtures")
    shutil.copyfile(os.path.join(src, "torus_space.json"), os.path.join(workdir, "torus_space.json"))
    torus_or = load_automaton(os.path.join(src, "torus_or.json"))
    space = torus_or.space
    ops, probes = [], []
    for r in range(TORUS_RULES):
        for variant in ("sym", "raw"):
            ca = random_rule_automaton(
                space, torus_or.neighborhood, TORUS_STATES, rng, symmetrize=variant == "sym"
            )
            name = _write(
                workdir,
                f"torus3_rule{r}_{variant}.json",
                {
                    "space": "torus_space.json",
                    "states": ca.states,
                    "neighborhood": [space.coset_reps[j] for j in ca.neighborhood],
                    "delta": list(ca.rule),
                },
            )
            ops.append(_laws_op(name, ["equivalence"], rng.randrange(1 << 16)))
            ops.append(_laws_op(name, ["invertibility"], None))
            # two runs per rule put the median op inside the cluster of runs
            for _ in range(TORUS_RUNS):
                config = _config(rng, TORUS_STATES, space.cells)
                ops.append(_run_op(name, config, TORUS_RUN_STEPS))
            if r == 0 and variant == "raw":
                # all suites past the table bound: the report is lost today
                probes.append(_laws_op(name, [], None))
    return {"ops": ops, "probes": probes}


# ---------------------------------------------------------- symmetric-group


def symmetric_tables(n: int, rng: random.Random, move_identity: bool):
    """Multiplication and action tables of S_n with seeded element labels.

    Element k of the lexicographic list gets label relabel[k]; the product
    a*b applies b first, then a, matching the catalog's convention.  The
    identity keeps label 0 unless move_identity is set."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)  # lexicographic
    order = len(perms)
    radix = n ** np.arange(n)[::-1]
    codes = perms @ radix  # increasing, because perms are sorted
    composed = perms[np.arange(order)[:, None, None], perms[None, :, :]]  # a(b(i))
    mul_lex = np.searchsorted(codes, composed @ radix)
    relabel = list(range(order))
    if move_identity:
        rng.shuffle(relabel)
    else:
        tail = relabel[1:]
        rng.shuffle(tail)
        relabel[1:] = tail
    relabel = np.array(relabel, dtype=np.int64)
    mul = np.empty_like(mul_lex)
    mul[np.ix_(relabel, relabel)] = relabel[mul_lex]
    act = np.empty_like(perms)
    act[relabel] = perms
    identity = int(relabel[0])
    return mul, act, identity


def _symmetric_space(workdir: str, prefix: str, n: int, rng, move_identity: bool, perm_actions: dict):
    """Group, action and cell-space files of S_n on n points, origin 0."""
    mul, act, identity = symmetric_tables(n, rng, move_identity)
    origin = 0
    # coordinate of cell m: the smallest label carrying the origin to m,
    # and the identity at the origin itself
    coords = [int(np.flatnonzero(act[:, origin] == m).min()) for m in range(n)]
    coords[origin] = identity
    group = _write(workdir, f"{prefix}_group.json", {"order": len(mul), "mul": mul.tolist(), "identity": identity})
    action = _write(workdir, f"{prefix}_action.json", {"group": group, "points": n, "act": act.tolist()})
    space = _write(workdir, f"{prefix}_space.json", {"action": action, "origin": origin, "coords": coords})
    perm_actions[group] = action
    stabilizer = [g for g in range(len(act)) if act[g][origin] == origin and g != identity]
    return (group, action, space), sorted(coords), stabilizer


def _or_automaton(workdir: str, name: str, space: str, reps) -> str:
    """OR over the given coset representatives, on two states."""
    rule = [0] + [1] * (2 ** len(reps) - 1)
    return _write(workdir, name, {"space": space, "states": 2, "neighborhood": reps, "delta": rule})


def _symmetric(seed: int, root: str, workdir: str) -> dict:
    from homoca.catalog import random_rule_automaton
    from homoca.serialize import load_automaton

    rng = random.Random(seed)
    perm_actions, ops, probes = {}, [], []
    for n in SYMMETRIC_DEGREES:
        structure, reps, stabilizer = _symmetric_space(workdir, f"s{n}", n, rng, False, perm_actions)
        space = structure[2]
        # every coset of the point stabilizer, named by its coordinate
        or_file = _or_automaton(workdir, f"s{n}_or.json", space, reps)
        ca = load_automaton(os.path.join(workdir, or_file))
        sym = random_rule_automaton(ca.space, ca.neighborhood, 3, rng, symmetrize=True)
        rule3 = _write(
            workdir,
            f"s{n}_rule3.json",
            {
                "space": space,
                "states": 3,
                "neighborhood": [ca.space.coset_reps[j] for j in sym.neighborhood],
                "delta": list(sym.rule),
            },
        )
        # names the origin coset twice: the identity and another stabilizer
        # element; the rule table fits the deduplicated neighborhood
        dup = f"s{n}_dup_coset.json"
        _write(
            workdir,
            dup,
            {"space": space, "states": 2, "neighborhood": reps + [rng.choice(stabilizer)], "delta": ca.rule},
        )

        # every file of S5; of S6 only the group and the 3-state automaton, whose
        # validation re-verifies the group and action behind its space, and
        # the laws only on the 3-state automaton: one S6 verify_group takes
        # about 2 s, loading S6 about 0.4 s, and a pass must fit a run thrice
        validated = structure + (or_file, rule3) if n < 6 else (structure[0], rule3)
        for f in validated:
            ops.append({"cmd": "validate", "argv": ["validate", f], "files": [f]})
        for f in (or_file, rule3) if n < 6 else (rule3,):
            ops += [_laws_op(f, [s], seed) for s in SYMMETRIC_SUITES]
        ops.append(_run_op(or_file, _config(rng, 2, n), SYMMETRIC_RUN_STEPS))
        ops.append(_run_op(rule3, _config(rng, 3, n), SYMMETRIC_RUN_STEPS))
        ops.append(_run_op(dup, _config(rng, 2, n), SYMMETRIC_RUN_STEPS))
        probes.append({"cmd": "validate", "argv": ["validate", dup], "files": [dup]})

    # the timed groups keep the identity at label 0: default coordinates,
    # which coordinate-independence builds, fail when it is elsewhere
    n = SYMMETRIC_DEGREES[0]
    structure, reps, _ = _symmetric_space(workdir, f"s{n}_moved", n, rng, True, perm_actions)
    moved = _or_automaton(workdir, f"s{n}_moved_or.json", structure[2], reps)
    probes.append(_laws_op(moved, ["coordinate-independence"], seed))
    return {"ops": ops, "probes": probes, "perm_actions": perm_actions}


GENERATORS = {
    "fixtures-exhaustive": _fixtures_exhaustive,
    "torus3-past-bound": _torus3,
    "symmetric-group": _symmetric,
}


def generate(workload: str, seed: int, root: str, workdir: str) -> dict:
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    manifest = GENERATORS[workload](seed, root, workdir)
    manifest.update(workload=workload, seed=seed)
    for i, op in enumerate(manifest["ops"] + manifest["probes"]):
        op["id"] = i
    _write(workdir, MANIFEST, manifest)
    return manifest


def load_manifest(workdir: str) -> dict:
    with open(os.path.join(workdir, MANIFEST)) as fh:
        return json.load(fh)


def digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
