"""Tests of the benchmark itself: generator, oracle, tracer, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import homoca.cli  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_op(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = homoca.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fixtures_workload(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("fixtures"))
    manifest = workloads.generate("fixtures-exhaustive", 5, ROOT, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield manifest, oracle.Oracle(manifest, ".")
    finally:
        os.chdir(cwd)


def small_ops(manifest):
    """Ops on the cyclic and square fixtures: every command, all quick."""
    return [op for op in manifest["ops"] if not any(a.startswith(("torus", "cube")) for a in op["argv"])]


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_reproducible(workload, tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.generate(workload, seed, ROOT, str(tmp_path / name))
        digests.append(workloads.digest(str(tmp_path / name)))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]  # the seed reaches the inputs


# --------------------------------------------------------------- oracle


def test_oracle_accepts_every_small_fixture_op(fixtures_workload):
    manifest, check = fixtures_workload
    for op in small_ops(manifest):
        code, stdout = run_op(op["argv"])
        assert check.check(op, code, stdout, None) is None, op["argv"]


def _laws_outcome(manifest, automaton, suite):
    (op,) = [
        op for op in manifest["ops"] if op["cmd"] == "laws" and op["argv"][1] == automaton and suite in op["argv"]
    ]
    return (op,) + run_op(op["argv"])


def test_oracle_flags_a_flipped_ok_flag(fixtures_workload):
    manifest, check = fixtures_workload
    op, code, stdout = _laws_outcome(manifest, "square_or.json", "equivalence")
    assert check.check(op, code, stdout, None) is None
    report = json.loads(stdout)
    report["suites"]["equivalence"]["verdicts"][0]["ok"] = False
    assert check.check(op, code, json.dumps(report), None) is not None


def test_oracle_flags_a_wrong_exit_code(fixtures_workload):
    manifest, check = fixtures_workload
    op, code, stdout = _laws_outcome(manifest, "square_projection.json", "chl")
    assert code == 1 and check.check(op, code, stdout, None) is None
    assert check.check(op, 0, stdout, None) is not None
    assert check.check(op, 3, "", None) is not None  # a lost report
    assert check.check(op, None, "", "RuntimeError: boom") is not None


def test_oracle_flags_a_forged_collision(fixtures_workload):
    manifest, check = fixtures_workload
    (op,) = [op for op in manifest["ops"] if op["argv"] == ["invert", "square_or.json"]]
    code, stdout = run_op(op["argv"])
    assert check.check(op, code, stdout, None) is None
    report = json.loads(stdout)
    a, _ = report["verdicts"][0]["witness"]["colliding"]
    report["verdicts"][0]["witness"]["colliding"] = [a, a]
    assert check.check(op, code, json.dumps(report), None) is not None


def test_oracle_flags_a_wrong_trace(fixtures_workload):
    manifest, check = fixtures_workload
    op = next(op for op in manifest["ops"] if op["cmd"] == "run" and op["automaton"] == "cyclic4_shift.json")
    code, stdout = run_op(op["argv"])
    assert check.check(op, code, stdout, None) is None
    lines = stdout.splitlines()
    lines[-1] = lines[-2]
    assert check.check(op, code, "\n".join(lines) + "\n", None) is not None


# --------------------------------------------------------------- tracer


def test_traced_and_untraced_outcomes_are_identical(fixtures_workload):
    manifest, check = fixtures_workload
    ops = small_ops(manifest)
    plain = [run_op(op["argv"]) for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            tracer.op_id, tracer.active = i, True
            traced.append(run_op(op["argv"]))
            tracer.active = False
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(check.check(op, *outcome, None) is None for op, outcome in zip(ops, traced))
    layers = tracer.pass_metrics(set(range(len(ops))), 0)
    assert set(layers) == set(spans.PER_LAYER) - set(spans.RUN_METRICS)
    assert layers["laws.global_table_calls"] > 0 and layers["cli.self_s"] > 0
    assert homoca.cli.global_table is homoca.laws.global_table  # uninstalled everywhere


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ("cli", 0.0, 10.0, -1, 0),
        ("laws.invert", 1.0, 6.0, 0, 0),
        ("laws.extract", 2.0, 5.0, 1, 0),
        ("laws.global_table", 3.0, 4.0, 2, 0),
    ]
    m = tracer.pass_metrics({0}, 0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["laws.invert_s"] == pytest.approx(2.0)
    assert m["laws.extract_s"] == pytest.approx(2.0)
    assert m["laws.global_table_s"] == pytest.approx(1.0)


# ---------------------------------------------------------------- speed


def test_scale_uses_the_samples_within_and_next_to_an_interval():
    log = speed.SpeedLog()
    log.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    log.samples = [9.0, 2.0, 2.0, 4.0, 9.0]
    # [1.5, 2.5] holds the sample at 2.0; 1.0 and 3.0 are its neighbours
    assert log.scale(1.5, 2.5) == pytest.approx(speed.REF_KERNEL_S / 2.0)
    assert log.scale(-1.0, -0.5) == pytest.approx(speed.REF_KERNEL_S / 9.0)


def test_samples_taken_inside_an_op_are_counted_out_of_it():
    log = speed.SpeedLog()
    log.arm()
    start = time.perf_counter()
    while time.perf_counter() - start < 3.5 * speed.IN_OP_INTERVAL_S:
        pass
    end = time.perf_counter()
    log.disarm()
    assert len(log.samples) >= 2
    assert 0 < log.in_op_s(start, end) < end - start
    assert log.in_op_s(end, end + 1.0) == 0


# --------------------------------------------------------- metric names


def test_printed_metrics_are_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert e2e == bench_run.END_TO_END_UNITS
    assert layers == spans.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
