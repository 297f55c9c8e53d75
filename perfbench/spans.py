"""Spans and counters recorded around the program's layers, from outside it.

`Tracer.install()` replaces each function listed in LAYERS with a wrapper,
in every `homoca` module namespace that binds it (so both
`homoca.laws.global_table` and `homoca.cli.global_table` are wrapped), and
the listed methods on their classes.  A wrapper records one span per call:
name, start, end, parent span and op id.  Counters are updated at the same
boundary.  Spans stay in memory; `dump` writes them out when the run ends.

A span's self time is its duration minus the time its direct children
cover.  Tracing is off unless `active` is set, so the oracle's calls into
the library are not recorded.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
LAYERS = (
    ("homoca.serialize", "_load_json", "serialize.parse"),
    ("homoca.groups", "FiniteGroup.__post_init__", "groups.construct"),
    ("homoca.groups", "LeftAction.__post_init__", "groups.construct"),
    ("homoca.groups", "Subgroup.__post_init__", "groups.construct"),
    ("homoca.groups", "verify_group", "groups.verify"),
    ("homoca.groups", "verify_action", "groups.verify"),
    ("homoca.cellspace", "CellSpace.__init__", "cellspace.construct"),
    ("homoca.cellspace", "CellSpace.semi_table", "cellspace.construct"),
    ("homoca.cellspace", "build_coordinate_system", "cellspace.construct"),
    ("homoca.catalog", "coordinate_system_variants", "cellspace.construct"),
    ("homoca.automata", "step", "automata.step"),
    ("homoca.automata", "is_cellular", "automata.is_cellular"),
    ("homoca.laws", "global_table", "laws.global_table"),
    ("homoca.laws", "check_equivariance", "laws.equivariance"),
    ("homoca.laws", "invert", "laws.invert"),
    ("homoca.laws", "extract", "laws.extract"),
    ("homoca.laws", "compose", "laws.compose"),
    ("homoca.laws", "check_determination", "laws.determination"),
    ("homoca.laws", "change_coordinates", "laws.change_coordinates"),
    ("homoca.uniformity", "check_uniformity_base", "uniformity.base_check"),
    ("homoca.uniformity", "agreement_relation", "uniformity.relations"),
    ("homoca.uniformity", "check_uniform_continuity", "uniformity.continuity"),
    ("homoca.uniformity", "continuity_assignments", "uniformity.continuity"),
    ("homoca.uniformity", "check_uniform_isomorphism", "uniformity.isomorphism"),
    ("homoca.cli", "main", "cli"),
)
# functions that only feed a counter: a span per call would cost more than
# the call itself
COUNTED = (("homoca.automata", "shift", "_shift_calls"),)

# per-layer metric name -> (unit, better); every one is printed by a traced run
PER_LAYER = {
    "serialize.parse_s": ("s", "lower"),
    "serialize.input_bytes": ("bytes", "lower"),
    "groups.construct_s": ("s", "lower"),
    "groups.verify_s": ("s", "lower"),
    "groups.verify_calls": ("count", "lower"),
    "groups.assoc_products_computed": ("count", "lower"),
    "cellspace.construct_s": ("s", "lower"),
    "automata.step_s": ("s", "lower"),
    "automata.step_calls": ("count", "lower"),
    "automata.cell_updates_per_s": ("1/s", "higher"),
    "automata.is_cellular_s": ("s", "lower"),
    "automata.is_cellular_calls": ("count", "lower"),
    "laws.global_table_s": ("s", "lower"),
    "laws.global_table_calls": ("count", "lower"),
    "laws.configs_tabled": ("count", "lower"),
    "laws.table_bytes_computed": ("bytes", "lower"),
    "laws.table_reuse_ratio": ("ratio", "higher"),
    "laws.equivariance_s": ("s", "lower"),
    "laws.equivariance_shifts": ("count", "lower"),
    "laws.equivariance_samples": ("count", "lower"),
    "laws.invert_s": ("s", "lower"),
    "laws.extract_s": ("s", "lower"),
    "laws.compose_s": ("s", "lower"),
    "laws.determination_s": ("s", "lower"),
    "laws.change_coordinates_s": ("s", "lower"),
    "uniformity.base_check_s": ("s", "lower"),
    "uniformity.relations": ("count", "lower"),
    "uniformity.continuity_s": ("s", "lower"),
    "uniformity.isomorphism_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "oracle.failed_op_ratio": ("ratio", "lower"),
    "oracle.failed_ops": ("count", "lower"),
    "oracle.attempted_ops": ("count", "higher"),
}
# computed once per run by the worker, not from one pass's spans
RUN_METRICS = ("trace.overhead_s", "oracle.failed_op_ratio", "oracle.failed_ops", "oracle.attempted_ops")

# span name -> metric holding the sum of its self time over one pass
SELF_TIME_METRICS = {
    "serialize.parse": "serialize.parse_s",
    "groups.construct": "groups.construct_s",
    "groups.verify": "groups.verify_s",
    "cellspace.construct": "cellspace.construct_s",
    "automata.step": "automata.step_s",
    "automata.is_cellular": "automata.is_cellular_s",
    "laws.global_table": "laws.global_table_s",
    "laws.equivariance": "laws.equivariance_s",
    "laws.invert": "laws.invert_s",
    "laws.extract": "laws.extract_s",
    "laws.compose": "laws.compose_s",
    "laws.determination": "laws.determination_s",
    "laws.change_coordinates": "laws.change_coordinates_s",
    "uniformity.base_check": "uniformity.base_check_s",
    "uniformity.continuity": "uniformity.continuity_s",
    "uniformity.isomorphism": "uniformity.isomorphism_s",
    "cli": "cli.self_s",
}
CALL_METRICS = {
    "groups.verify": "groups.verify_calls",
    "automata.step": "automata.step_calls",
    "automata.is_cellular": "automata.is_cellular_calls",
    "laws.global_table": "laws.global_table_calls",
    "uniformity.relations": "uniformity.relations",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        # span: (name, start, end, parent index or -1, op id)
        self.spans: list = []
        self._stack: list[int] = []
        # op id -> counter name -> value
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        # op id -> automata tabled by global_table
        self.tabled: dict = defaultdict(set)
        self._originals: list = []

    # --------------------------------------------------------- install

    def install(self) -> None:
        for module_name, attr, span in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(self._wrap(span, original.func))
                    wrapped.__set_name__(cls, meth)
                else:
                    wrapped = self._wrap(span, original)
                setattr(cls, meth, wrapped)
                self._originals.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            self._rebind(original, self._wrap(span, original))
        for module_name, attr, counter in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(original, self._wrap_counter(counter, original))

    def _rebind(self, original, wrapped) -> None:
        """Replace `original` in every homoca namespace that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "homoca" or mod_name.startswith("homoca."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._originals.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_counter(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[tracer.op_id][counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- results

    def pass_metrics(self, op_ids: set, report_bytes: int) -> dict:
        """Per-layer metrics of one traced pass over the ops in op_ids."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, op in spans:
            if parent >= 0 and op in op_ids:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in PER_LAYER if metric not in RUN_METRICS}
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in op_ids:
                continue
            if name in SELF_TIME_METRICS:
                out[SELF_TIME_METRICS[name]] += end - start - child_time[i]
            if name in CALL_METRICS:
                out[CALL_METRICS[name]] += 1
        for op in op_ids:
            for key, value in self.counts[op].items():
                out[key] = out.get(key, 0.0) + value
        distinct = sum(len(self.tabled[op]) for op in op_ids)
        calls = out["laws.global_table_calls"]
        # no tables built at all counts as no waste
        out["laws.table_reuse_ratio"] = distinct / calls if calls else 1.0
        steps = out["automata.step_s"]
        out["automata.cell_updates_per_s"] = out.pop("_cell_updates", 0.0) / steps if steps else 0.0
        out.pop("_shift_calls", None)
        out["cli.report_bytes"] = float(report_bytes)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


# ------------------------------------------------------------- counters


def _count_parse(tracer, args, kwargs, result):
    tracer.counts[tracer.op_id]["serialize.input_bytes"] += os.path.getsize(args[0])


def _count_verify(tracer, args, kwargs, result):
    group = args[0]
    if hasattr(group, "mul"):  # verify_group; verify_action gets an action
        tracer.counts[tracer.op_id]["groups.assoc_products_computed"] += group.order**3


def _count_step(tracer, args, kwargs, result):
    tracer.counts[tracer.op_id]["_cell_updates"] += len(result)


def _count_table(tracer, args, kwargs, result):
    ca = args[0]
    configs = ca.states**ca.space.cells
    counts = tracer.counts[tracer.op_id]
    counts["laws.configs_tabled"] += configs
    counts["laws.table_bytes_computed"] += configs * ca.space.cells * ca.arity * 8
    tracer.tabled[tracer.op_id].add((ca.space.system, ca.states, ca.neighborhood, ca.rule))


def _count_equivariance(tracer, args, kwargs, result):
    """Shifts tested and configurations sampled.  The exhaustive path tests
    one table permutation per scope element up to the first failure; the
    sampled path shifts a configuration and its image once per tested pair,
    so its pairs are counted from the calls to `shift`."""
    gm = args[0]
    subgroup = args[1] if len(args) > 1 else kwargs.get("subgroup")
    members = subgroup.members if subgroup is not None else tuple(range(gm.space.group.order))
    counts = tracer.counts[tracer.op_id]
    if not result.sampled:
        failed_at = None if result.ok else (result.witness or {}).get("element")
        counts["laws.equivariance_shifts"] += (
            len(members) if failed_at is None else members.index(failed_at) + 1
        )
        return
    pairs = counts.pop("_shift_calls", 0) // 2
    counts["laws.equivariance_shifts"] += pairs
    counts["laws.equivariance_samples"] += -(-pairs // len(members))


COUNTERS = {
    "serialize.parse": _count_parse,
    "groups.verify": _count_verify,
    "automata.step": _count_step,
    "laws.global_table": _count_table,
    "laws.equivariance": _count_equivariance,
}


def median_metrics(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
