#!/usr/bin/env python3
"""The homoca benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed into .perfbench_work/ and set-up is timed SETUPS times, each in a
fresh interpreter (start, `import homoca`, input generation); `setup_s` is
the median.  A separate child process then runs the operations (see
worker.py), so that its peak memory is its own.  Every time reported is
scaled to the reference speed of speed.py; the raw times are in the result
file.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer metrics when --trace 1.  The line before it summarises the run:
pass and sample counts, the known-defect probes and their failed-op ratio.
A result file with the machine's description goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedLog, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
# reference-kernel samples taken either side of each set-up
SETUP_SPEED_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "exact_verdict_ratio": "ratio",
    "peak_rss_mb": "MB",
    "run_cell_updates_per_s": "1/s",
}


class BenchError(Exception):
    pass


def environment() -> dict:
    """What the numbers were measured on, so runs on different machines are
    never compared."""
    env = {
        "python": platform.python_version(),
        "numpy": None,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "platform": platform.platform(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    env["cpu_model"] = value.strip()
                elif key.strip() == "cache size" and "cache size" not in env["caches"]:
                    env["caches"]["cache size"] = value.strip()
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                env["caches"][key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a benchmark process ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def timed_setup(workdir: str, workload: str, seed: int, deadline: float) -> tuple[float, float, str]:
    """Seconds from starting an interpreter to its inputs being written:
    as measured, and scaled to the reference speed (see speed.py) by the
    median of kernel samples taken just before and just after."""
    speed = SpeedLog()
    speed.sample(SETUP_SPEED_SAMPLES)
    start = time.perf_counter()
    proc = _child(["setup", ROOT, workdir, workload, str(seed)])
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _finish(proc, deadline)
    speed.sample(SETUP_SPEED_SAMPLES)
    if not line.startswith("ready "):
        raise BenchError(f"set-up printed {line!r}")
    return elapsed, elapsed * speed.scale(speed.times[0], speed.times[-1]), line.split()[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    deadline = time.monotonic() + DEADLINE_S

    for needed in ("src/homoca/cli.py", "fixtures"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from a checkout of the repository")

    work_root = os.path.join(ROOT, ".perfbench_work")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(work_root, tag)
    try:
        setups, setups_raw, digests = [], [], set()
        for i in range(SETUPS):
            target = workdir if i == 0 else f"{workdir}.again{i}"
            raw, seconds, digest = timed_setup(target, args.workload, args.seed, deadline)
            setups.append(seconds)
            setups_raw.append(raw)
            digests.add(digest)
            if i:
                shutil.rmtree(target)
        reproducible = len(digests) == 1

        spans_file = os.path.join(out_dir, f"spans-{tag}.jsonl")
        proc = _child(["measure", ROOT, workdir, str(args.seconds), str(args.trace), spans_file])
        out, _ = _finish(proc, deadline)
        run = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for i in range(1, SETUPS):
            shutil.rmtree(f"{workdir}.again{i}", ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    e2e = dict(run["metrics"], setup_s=statistics.median(setups))
    if args.trace:
        from spans import PER_LAYER

        metrics = {k: {"value": run["layers"][k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": run["passes"],
        "op_samples": run["op_samples"],
        "ops_per_pass": run["ops_per_pass"],
        "setup_samples": setups,
        "setup_samples_raw": setups_raw,
        "speed_samples": run["speed_samples"],
        "speed_median_s": run["speed_median_s"],
        "inputs_reproducible": reproducible,
        "failed_op_ratio": {
            "value": run["ops_failed"] / run["ops_checked"],
            "failed": run["ops_failed"],
            "attempted": run["ops_checked"],
            "of_which_known_defect_probes": {
                "failed": len(run["known_defects"]),
                "attempted": run["probes_attempted"],
            },
        },
        "failures": run["failures"],
        "known_defects": run["known_defects"],
        "end_to_end": e2e,
        "pass_walls": run["pass_walls"],
        "pass_walls_raw": run["pass_walls_raw"],
        "pass_durations": run["pass_durations"],
        "pass_durations_raw": run["pass_durations_raw"],
    }
    if args.trace:
        summary["traced_passes"] = run["traced_passes"]
        summary["layers"] = run["layers"]
        summary["spans_file"] = os.path.relpath(spans_file, ROOT)
    summary["environment"] = environment()
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    result = {
        "correct": run["failed"] == 0 and reproducible,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps({k: v for k, v in summary.items() if k not in ("layers", "environment", "pass_durations", "pass_durations_raw")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(2)
