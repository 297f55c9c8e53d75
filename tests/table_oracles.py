"""The `chl` and `determination` suites as they read global tables.

The suites now decide both laws from the rule (see `homoca.laws`); these
table paths are kept as their oracles, apart from the code they replaced.
`table_determination` is the table form of `check_determination`, with
`check_equivariance` on every table; `table_extract` is `extract` as it
read the probes' codes off the table, and `table_chl` runs it on the
step's table plus the round trip of `global_table`;
`table_determination_suite` perturbs the step's table at entry 0.
"""

import numpy as np

from homoca.automata import SemiCellularAutomaton, closed_neighborhood, is_cellular, subgroup_or_whole
from homoca.encoding import decode, digit_matrix, weights
from homoca.errors import EquivarianceError, InputError
from homoca.groups import require_group_action
from homoca.laws import GlobalMap, check_equivariance, dependency_matrix, global_table
from homoca.verdict import Verdict


def table_determination(ca, gm, subgroup=None) -> Verdict:
    """Two portraits of 'gm is the step of ca' must agree:

    side A: the rule is rotation-invariant and gm equals the step table;
    side B: gm is shift-equivariant and matches the rule at the origin.
    """
    space = ca.space
    if gm.space is not space and gm.space.system != space.system:
        raise InputError("global map lives on a different cell space")
    if gm.states != ca.states:
        raise InputError("state counts differ")
    sub = subgroup_or_whole(space, subgroup)
    q = ca.states

    local = is_cellular(ca, sub)
    step_table = global_table(ca)
    # the two maps' origin digits can differ only where their tables do,
    # so digits are read off those entries alone
    differ = np.flatnonzero(gm.table != step_table)
    same_map = not differ.size
    side_a = local.ok and same_map

    equivariant = check_equivariance(gm, sub)
    origin_ok = True
    origin_witness = None
    origin_weight = q**space.origin
    origin_digits = gm.table.take(differ) // origin_weight % q
    step_origin = step_table.take(differ) // origin_weight % q
    bad = np.flatnonzero(origin_digits != step_origin)
    if bad.size:
        origin_ok = False
        k = int(bad[0])
        origin_witness = {
            "config": list(decode(int(differ[k]), q, space.cells)),
            "map_origin_value": int(origin_digits[k]),
            "rule_origin_value": int(step_origin[k]),
        }
    side_b = equivariant.ok and origin_ok

    witness = {
        "rule_invariant_and_equal": side_a,
        "equivariant_and_origin_matching": side_b,
        "rule_invariant": local.ok,
        "tables_equal": same_map,
        "equivariant": equivariant.ok,
        "origin_matching": origin_ok,
    }
    if origin_witness:
        witness["origin_witness"] = origin_witness
    if side_a == side_b:
        return Verdict.passing("determination-at-origin", witness)
    return Verdict.failing("determination-at-origin", witness)


def table_determination_suite(ca, sub, seed) -> dict:
    """The determination suite as it perturbed the step's table."""
    gm = GlobalMap.from_automaton(ca)
    verdicts = [table_determination(ca, gm, sub)]
    q = ca.states
    if q == 1:
        reason = "one state admits a single global map, so there is none to perturb"
        verdicts.append(Verdict.passing("determination-rejects-perturbed", {"reason": reason}))
        return {"verdicts": [v.as_dict() for v in verdicts]}
    w = q**ca.space.origin
    entry = int(gm.table[0])
    d = entry // w % q
    table = gm.table.astype(np.int64)
    table[0] = entry + ((d + 1) % q - d) * w
    v = table_determination(ca, GlobalMap(ca.space, q, table), sub)
    verdicts.append(
        Verdict(
            v.ok and not (v.witness or {}).get("equivariant_and_origin_matching", True),
            "determination-rejects-perturbed",
            v.witness,
        )
    )
    return {"verdicts": [v.as_dict() for v in verdicts]}


def table_extract(gm, subgroup=None) -> SemiCellularAutomaton:
    """Recover an automaton whose step is exactly gm.

    gm must be shift-equivariant (checked; violations raise with a
    witness).  The neighborhood is the stabilizer closure of the labels of
    the cells the origin output actually depends on, and the rule is read
    off the origin digit of gm on the configurations that realize each
    local pattern at the origin and are 0 elsewhere (see
    configuration_observing): the pattern's digits, packed at the weights
    of the cells its names resolve to at the origin.
    """
    space = gm.space
    sub = subgroup_or_whole(space, subgroup)
    table = gm.table
    eq = check_equivariance(gm, sub)
    if not eq.ok:
        raise EquivarianceError("global map is not shift-equivariant", eq.witness or {})
    q = gm.states

    depends = np.flatnonzero(dependency_matrix(gm)[space.origin]).tolist()
    labels = {space.cell_coset(m) for m in depends}
    neighborhood = closed_neighborhood(space, tuple(sorted(labels)))

    window_weights = weights(q, space.cells)[space.semi_table[space.origin, list(neighborhood)]]
    probes = np.matmul(digit_matrix(q, len(neighborhood)), window_weights, dtype=np.int64)
    rule = table.take(probes) // q**space.origin % q
    ca = SemiCellularAutomaton(space, q, neighborhood, rule)
    if not np.array_equal(global_table(ca), table):
        require_group_action(space.action)
        raise AssertionError("extracted automaton does not reproduce the map")
    return ca


def table_chl(ca, sub, seed) -> dict:
    """The chl suite as it extracted from the step's table."""
    gm = GlobalMap.from_automaton(ca)
    try:
        recovered = table_extract(gm, sub)
    except EquivarianceError as e:
        return {"verdicts": [Verdict.failing("extraction-equivariance", e.witness).as_dict()]}
    ok = bool(np.array_equal(global_table(recovered), gm.table))
    verdict = Verdict(
        ok,
        "extraction-roundtrip",
        {"neighborhood": [ca.space.coset_reps[j] for j in recovered.neighborhood]},
    )
    return {"verdicts": [verdict.as_dict()]}
