"""One benchmark process: generate a workload's inputs, or measure it.

    worker.py setup   ROOT WORKDIR WORKLOAD SEED
    worker.py measure ROOT WORKDIR SECONDS TRACE SPANS_FILE

`setup` imports homoca, writes the inputs and prints `ready <digest>`.
`measure` runs the generated operations in-process through
`homoca.cli.main(argv)`, one after another (a closed loop with one client),
with stdout and stderr captured, and prints one JSON line of results.  It
runs whole passes over the op list until SECONDS have passed, and at least
MIN_PASSES of them.  Each pass runs the ops in its own seeded order, so that
ops of one kind do not all land in the same slow stretch of a shared
machine.  Before each op, untimed, garbage is collected and the reference
kernel of speed.py is sampled; inside an untraced op a timer samples it
every tenth of a second, and the samples' time is taken out of the op's.
Every op time is reported scaled to the reference speed, with the raw
times alongside.  Every outcome is checked by the oracle after the pass,
outside the timed region.  The known-defect
probes run once, after the passes.  With TRACE=1, untraced and traced
passes alternate, the per-layer metrics come from the traced ones and the
spans are written to SPANS_FILE at the end.

Run from run.py, which pins itself and so its children to one CPU; both are
started with the checkout's src/ on sys.path.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

MIN_PASSES = 3
# kernel samples taken before the first op and after the last one
EDGE_SAMPLES = 5


def _import_homoca(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import homoca.cli

    expected = os.path.join(os.path.realpath(root), "src", "homoca")
    if os.path.dirname(os.path.realpath(homoca.cli.__file__)) != expected:
        raise SystemExit(f"homoca imported from {homoca.cli.__file__}, not from {expected}")
    return homoca.cli


def setup(root: str, workdir: str, workload: str, seed: int) -> None:
    _import_homoca(root)
    import workloads

    workloads.generate(workload, seed, root, workdir)
    sys.stdout.write(f"ready {workloads.digest(workdir)}\n")
    sys.stdout.flush()


def run_op(cli, argv) -> tuple[float, float, object, str, str | None]:
    """(start, seconds, exit code, stdout, escaped exception) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        except Exception as e:  # noqa: BLE001 - an escaped exception is a failed op
            code, error = None, f"{type(e).__name__}: {e}"
    return start, time.perf_counter() - start, code, out.getvalue(), error


def verdict_counts(stdout: str) -> tuple[int, int]:
    """(exact verdicts, verdicts plus bound-exceeded suites) in a report."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return 0, 0
    if not isinstance(report, dict):
        return 0, 0
    exact = total = 0
    groups = [report.get("verdicts", [])]
    groups += [e.get("verdicts", []) for e in report.get("files", {}).values()]
    for suite in report.get("suites", {}).values():
        if suite.get("bound_exceeded"):
            total += 1 + len(suite.get("verdicts", []))
        else:
            groups.append(suite.get("verdicts", []))
    for verdicts in groups:
        total += len(verdicts)
        exact += sum(1 for v in verdicts if not v.get("sampled"))
    return exact, total


def measure(root: str, workdir: str, seconds: float, trace: bool, spans_file: str) -> None:
    cli = _import_homoca(root)
    import workloads
    from oracle import Oracle
    from spans import PER_LAYER, Tracer, median_metrics
    from speed import SpeedLog

    manifest = workloads.load_manifest(workdir)
    os.chdir(workdir)  # reports then name inputs by relative path
    ops, probes = manifest["ops"], manifest["probes"]
    oracle = Oracle(manifest, ".")
    gc.collect()
    gc.freeze()  # the modules and manifest need not be traversed before every op
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    speed = SpeedLog()
    speed.sample(EDGE_SAMPLES)

    # per pass: traced or not, and (start, seconds) of each op in op order
    passes: list[tuple[bool, list[tuple[float, float]]]] = []
    layer_passes: list[dict] = []
    failures: list[dict] = []
    attempted = exact = verdicts = 0
    run_ops: set[int] = set()  # the `run` ops that succeeded in every pass
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        # a traced run alternates untraced and traced passes, in pairs
        min_passes = 2 if tracer else MIN_PASSES
        if n >= min_passes and (not tracer or n % 2 == 0):
            if elapsed + elapsed / n > seconds:
                break
        traced = bool(tracer) and n % 2 == 1
        outcomes = [None] * len(ops)
        order = list(range(len(ops)))
        random.Random(manifest["seed"] * 1000 + n).shuffle(order)
        op_base = n * len(ops)
        for i in order:
            # a CLI call normally starts with a fresh heap: collect the
            # garbage of earlier ops here, so that it is not timed in this one
            gc.collect()
            speed.sample()
            if traced:
                tracer.op_id, tracer.active = op_base + i, True
                outcomes[i] = run_op(cli, ops[i]["argv"])
                tracer.active = False
            else:
                # spans stay free of samples; timed ops lose their samples' time
                speed.arm()
                t, dt, *rest = run_op(cli, ops[i]["argv"])
                speed.disarm()
                outcomes[i] = (t, dt - speed.in_op_s(t, t + dt), *rest)
        passes.append((traced, [outcome[:2] for outcome in outcomes]))
        report_bytes = 0
        for i, (op, (_, dt, code, stdout, error)) in enumerate(zip(ops, outcomes)):
            reason = oracle.check(op, code, stdout, error)
            if reason is not None:
                failures.append({"op": op["id"], "argv": op["argv"], "reason": reason})
            attempted += 1
            report_bytes += len(stdout)
            if traced:
                continue
            e, t = verdict_counts(stdout)
            exact, verdicts = exact + e, verdicts + t
            if op["cmd"] == "run":
                if code == 0 and (n == 0 or i in run_ops):
                    run_ops.add(i)
                else:
                    run_ops.discard(i)
        if traced:
            layer_passes.append(tracer.pass_metrics(set(range(op_base, op_base + len(ops))), report_bytes))
        n += 1
    speed.sample(EDGE_SAMPLES)  # the last op needs samples after it too
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    known_defects = []
    for op in probes:
        _, dt, code, stdout, error = run_op(cli, op["argv"])
        reason = oracle.check(op, code, stdout, error)
        if reason is not None:
            known_defects.append({"op": op["id"], "argv": op["argv"], "reason": reason})

    # every op time at the reference speed (see speed.py)
    scaled = [[dt * speed.scale(t, t + dt) for t, dt in timings] for _, timings in passes]
    untraced = [p for p, (traced, _) in enumerate(passes) if not traced]
    durations = [scaled[p] for p in untraced]
    raw = [[dt for _, dt in passes[p][1]] for p in untraced]
    # each op's median over the passes: one slow stretch does not move it
    op_medians = [statistics.median(column) for column in zip(*durations)]
    run_updates = sum(len(ops[i]["config"]) * ops[i]["steps"] for i in run_ops)
    run_time = sum(op_medians[i] for i in run_ops)
    checked = attempted + len(probes)
    failed = len(failures) + len(known_defects)
    result = {
        "passes": len(untraced),
        "pass_walls": [sum(walls) for walls in durations],
        "pass_walls_raw": [sum(walls) for walls in raw],
        "pass_durations": durations,
        "pass_durations_raw": raw,
        "speed_samples": len(speed.samples),
        "speed_median_s": statistics.median(speed.samples),
        "op_samples": sum(len(walls) for walls in durations),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "probes_attempted": len(probes),
        "known_defects": known_defects,
        "ops_checked": checked,
        "ops_failed": failed,
        "metrics": {
            "wall_s": sum(op_medians),
            # quantiles over the ops, not over pooled samples: the op at the
            # median is then the same one in every run
            "op_p50_ms": statistics.median(op_medians) * 1e3,
            "op_p90_ms": statistics.quantiles(op_medians, n=10, method="inclusive")[8] * 1e3,
            "exact_verdict_ratio": exact / verdicts if verdicts else 1.0,
            "peak_rss_mb": peak_rss_mb,
            "run_cell_updates_per_s": run_updates / run_time if run_time else 0.0,
        },
    }
    if tracer:
        tracer.uninstall()
        layers = median_metrics(layer_passes)
        traced_walls = [sum(scaled[p]) for p, (traced, _) in enumerate(passes) if traced]
        layers["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(result["pass_walls"])
        layers["oracle.failed_op_ratio"] = failed / checked
        layers["oracle.failed_ops"] = failed
        layers["oracle.attempted_ops"] = checked
        missing = set(PER_LAYER) - set(layers)
        if missing:
            raise SystemExit(f"per-layer metrics not computed: {sorted(missing)}")
        result["layers"] = layers
        result["traced_passes"] = len(traced_walls)
        tracer.dump(spans_file)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    role = sys.argv[1]
    if role == "setup":
        setup(sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5]))
    elif role == "measure":
        measure(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
    else:
        raise SystemExit(f"unknown role {role!r}")
