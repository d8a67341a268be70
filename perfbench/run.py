"""Benchmark command for hdsigntest.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                             [--results DIR]

Without ``--workload`` every workload runs in turn.  Each run measures for
``run_seconds`` from BENCHMARK.json.  ``--seconds`` may name that length
again; any other value is refused, so that runs on two commits always
measure the same length.

Each workload runs in fresh processes started by workloads.py, with the
BLAS thread count set to BLAS_THREADS.  ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs the workload
once untraced and once traced and reports the per-layer metrics with the
tracing overhead.

The report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A record of
each run (environment, steal ticks, every check, raw timings) is written to
``DIR/<workload>/seed<N>-trace<T>.json``, and traced runs also write their
spans to ``DIR/<workload>/seed<N>-spans.json``.  The exit code is 0 when
every check passed, 1 when a check failed, and 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spherical-perm", "ar1-asym", "subsample-real", "cli-csv")
# One BLAS thread: on a shared 2-vCPU host it gave the same throughput as
# two, and it keeps the workload off the second core.
BLAS_THREADS = 1
# Set-up is measured this many times per run (fresh processes) and the
# median is reported.
SETUPS = 3
# Every run must end within 180 s; the children get what is left of this.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _steal_ticks():
    """Steal ticks of all CPUs from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
    }


def _child_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def _run_child(deadline, workload, seed, seconds, trace, setup_only=False, spans=None):
    """Run workloads.py in a fresh process and return its result, with
    ``setup_s`` measured from just before the process was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", work]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", spans]
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except BaseException:
        # Timeout or interrupt: stop the workload and anything it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _round_p90(seconds):
    return statistics.quantiles(seconds, n=10, method="inclusive")[-1] if len(seconds) > 1 \
        else seconds[0]


def _rate(result):
    """Datasets per second at the 90th-percentile round time.

    The host's speed drifts in phases of seconds to minutes and only ever
    slows the program down, so the share of fast rounds in a run varies
    from run to run.  The slow tail is present in every run and tracks the
    program's own speed; over ten-run sets its spread was 0.05 to 0.11,
    against 0.05 to 0.31 for the median round and 0.05 to 0.20 for the
    mean."""
    return result["datasets_per_round"] / _round_p90(result["round_seconds"])


def _end_to_end(main, setups):
    values = {
        "setup_s": statistics.median(setups),
        "datasets_per_s": _rate(main),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    rounds = main["round_seconds"]
    lines = [
        f"  set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"  {len(rounds)} rounds of {main['datasets_per_round']} dataset(s) in "
        f"{main['timed_s']:.4f} s; round median {statistics.median(rounds):.4f} s, "
        f"90th percentile {_round_p90(rounds):.4f} s",
    ]
    for name, times in main.get("call_seconds", {}).items():
        rss = main["call_peak_rss_mb"][name]
        lines.append(f"  {name}_s {statistics.median(times):.4f} s "
                     f"(median of {len(times)}), peak RSS {rss:.1f} MB")
    return values, lines


def _per_layer(untraced, traced):
    values = {}
    for name, (calls, busy, own) in traced["layers"].items():
        values.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": own})
    values.update(traced["counts"])
    values["cli.startup_s"] = traced.get("startup_s", 0.0)
    # The tracer's cost is estimated from the traced run alone: its spans
    # times the measured cost of one wrapper.  The untraced and traced runs
    # follow each other on a host whose speed drifts, so the difference of
    # their rates is mostly that drift; it is reported, not used.
    overhead_s = traced["spans"] * traced["wrapper_cost_s"]
    values["tracer.overhead_pct"] = 100.0 * overhead_s / traced["timed_s"]
    rate = {"untraced": _rate(untraced), "traced": _rate(traced)}
    lines = [f"  {traced['spans']} spans at {1e6 * traced['wrapper_cost_s']:.2f} us each: "
             f"{overhead_s:.4f} s of {traced['timed_s']:.4f} s traced",
             f"  datasets_per_s untraced {rate['untraced']:.4f}, traced {rate['traced']:.4f}"]
    for name, times in traced.get("call_seconds", {}).items():
        lines.append(f"  {name}_s untraced {statistics.median(untraced['call_seconds'][name]):.4f}"
                     f" (subprocess), traced {statistics.median(times):.4f} (in-process)")
    for name in traced["absent"]:
        lines.append(f"  layer {name} is absent from the package")
    return values, lines


def run_workload(spec, args, workload):
    deadline = time.monotonic() + DEADLINE_S
    results_dir = os.path.join(args.results, workload)
    os.makedirs(results_dir, exist_ok=True)
    steal_before = _steal_ticks()
    if args.trace:
        untraced = _run_child(deadline, workload, args.seed, args.seconds, 0)
        spans = os.path.join(results_dir, f"seed{args.seed}-spans.json")
        main = _run_child(deadline, workload, args.seed, args.seconds, 1, spans=spans)
        values, lines = _per_layer(untraced, main)
        children = [untraced, main]
        wanted = spec["per_layer"]
        tracer_leak = untraced["tracer_imported"]
    else:
        setups = [_run_child(deadline, workload, args.seed, args.seconds, 0, setup_only=True)
                  ["setup_s"] for _ in range(SETUPS - 1)]
        main = _run_child(deadline, workload, args.seed, args.seconds, 0)
        values, lines = _end_to_end(main, setups + [main["setup_s"]])
        children = [main]
        wanted = spec["end_to_end"]
        tracer_leak = main["tracer_imported"]
    steal_after = _steal_ticks()

    known = set(values) | set(main.get("traced_layers", ()))
    unknown = [m["name"] for m in wanted
               if m["name"] not in known and m["name"].rsplit(".", 1)[0] not in known]
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not make: {unknown}")
    # A layer the workload never reached reports zero.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    checks = [c for child in children for c in child["checks"]]
    if tracer_leak:
        checks.append(["the untraced run does not import the tracer", False, ""])
    correct = all(ok for _, ok, _ in checks)
    result = {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}

    print(f"workload {workload} seed {args.seed} trace {args.trace}: "
          f"steal ticks {steal_before} -> {steal_after}")
    for line in lines:
        print(line)
    for name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    print(f"  {sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']!r} {metric['unit']}")

    record = dict(result, workload=workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=args.environment,
                  steal_ticks=[steal_before, steal_after], checks=checks,
                  children=[{k: v for k, v in c.items() if k != "checks"} for c in children])
    with open(os.path.join(results_dir, f"seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result


def main():
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(HERE, "results"))
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be run_seconds from BENCHMARK.json, {spec['run_seconds']}")

    if not os.path.isfile(os.path.join(ROOT, "src", "hdsigntest", "__init__.py")):
        print(f"no hdsigntest sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    args.environment = _environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in args.environment.items()))

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(spec, args, workload)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
