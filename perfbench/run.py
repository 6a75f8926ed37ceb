"""Host-time benchmark of the reproduction, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

``--workload`` is ``paper``, ``sweep-store`` or ``service`` (see
``workloads.py`` and README.md).  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` makes a separate traced
run that reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Durations are host time scaled to a reference host speed (see
``hostspeed.py``).  The line before the result carries the run's
metadata: commit, Python and NumPy versions, CPU count, seed, the scale
factor, the unscaled figures, the job count and the number of blocks
``job_tail_ms`` is the median over.
The exit status is 0 when every output check passed, 1 when one failed
and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed  # noqa: E402  (after the path set-up above)
from stats import median, tail  # noqa: E402

#: End-to-end metrics, printed by every ``--trace 0`` run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("configs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("paper_matched", "count"),
)

EXPERIMENT_IDS = (
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "table1", "table2", "table3", "table4", "table5",
    "proposal_comparison", "proposal_pareto", "ablation_criteria",
    "ablation_dispatch_overhead",
)

#: Per-layer metrics, printed by every ``--trace 1`` run: (name, unit).
PER_LAYER = (
    ("libraries.plan_calls", "count"),
    ("libraries.plan_s", "s"),
    ("gpusim.simulate_calls", "count"),
    ("gpusim.simulate_s", "s"),
    ("gpusim.configs_per_call", "count"),
    ("profiling.runner.noise_s", "s"),
    ("profiling.runner.measure_calls", "count"),
    ("profiling.runner.measure_self_s", "s"),
    ("profiling.runner.simulated", "count"),
    ("profiling.runner.served", "count"),
    ("profiling.latency_table.build_s", "s"),
    ("profiling.store.lookup_calls", "count"),
    ("profiling.store.lookup_s", "s"),
    ("profiling.store.hit_ratio", "frac"),
    ("profiling.store.record_calls", "count"),
    ("profiling.store.record_s", "s"),
    ("profiling.store.appended", "count"),
    ("profiling.store.bytes", "B"),
    ("core.staircase.analyze_calls", "count"),
    ("core.staircase.analyze_s", "s"),
    ("api.session.execute_self_s", "s"),
    ("api.session.cache_hit_ratio", "frac"),
    *((f"experiments.{experiment_id}_s", "s") for experiment_id in EXPERIMENT_IDS),
    ("phase.cold_s", "s"),
    ("phase.replay_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.delivery_ms", "ms"),
    ("service.shard_reloads_per_job", "count"),
    ("tracing.overhead_frac", "frac"),
)

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "sweep-store", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, metadata included, here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, then exit
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


WORK_BASE = ROOT / ".bench_run"


def _workdir(label: str) -> Path:
    WORK_BASE.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_BASE))


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_BASE.rmdir()  # only once no other run is using it
    except OSError:
        pass


def _time_setups(args, speed) -> list:
    """Wall time of fresh interpreters that import the program and
    prepare the workload (store fill and server boot included)."""

    timings = []
    for _ in range(SETUP_REPEATS):
        speed.sample_startup()
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe"]
        start = time.perf_counter()
        subprocess.run(command, cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        timings.append(time.perf_counter() - start)
    speed.sample_startup()
    return timings


def _metadata(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up probes and
    # the service's server processes, all waited for by now.
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _end_to_end(run, setups, scale: float, setup_scale: float) -> dict:
    """End-to-end metrics, set-up time multiplied by ``setup_scale``
    and the other durations by ``scale``."""

    return {
        "setup_s": median(setups) * setup_scale,
        "job_p50_ms": median(run.job_s) * 1000 * scale,
        "job_tail_ms": tail(run.job_s)[1] * 1000 * scale,
        "jobs_per_s": len(run.job_s) / (run.window_s * scale),
        "configs_per_s": run.configs / (run.window_s * scale),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1 - run.failed / run.attempted,
        "paper_matched": run.paper_matched,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import repro
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workdir = _workdir(f"probe-{args.workload}")
        try:
            workload.prepare(workdir, args.seed)
        finally:
            workload.close()
            _remove_workdir(workdir)
        return 0

    speed = HostSpeed()
    workdir = _workdir(args.workload)
    try:
        setups = _time_setups(args, speed)
        workload.prepare(workdir, args.seed)
        try:
            run = workload.measure(args.seconds, bool(args.trace), speed)
        except workloads.CheckFailed as error:
            traceback.print_exc()
            run = workloads.Run()
            run.attempted = 1
            run.fail(str(error))
    finally:
        workload.close()
        speed.close()
        _remove_workdir(workdir)

    meta = _metadata(args)
    meta["setup_runs_s"] = setups
    meta["errors"] = run.errors
    meta["host_speed_scale"] = speed.scale
    meta["setup_speed_scale"] = speed.setup_scale
    meta["startup_samples_s"] = speed.startup_samples
    if run.window_s == 0:  # a check aborted the run before anything was timed
        values, units = {}, {}
    elif args.trace:
        units = dict(PER_LAYER)
        meta["raw"] = {name: run.layers.get(name, 0.0) for name in units}
        values = {
            name: value * speed.scale if units[name] in ("s", "ms") else value
            for name, value in meta["raw"].items()
        }
    else:
        units = dict(END_TO_END)
        meta["jobs"] = len(run.job_s)
        meta["job_tail_blocks"] = tail(run.job_s)[0]
        meta["raw"] = _end_to_end(run, setups, 1.0, 1.0)
        values = _end_to_end(run, setups, speed.scale, speed.setup_scale)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, **result}, handle, indent=2, sort_keys=True)
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
