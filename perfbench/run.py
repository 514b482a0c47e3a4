"""Run one workload of the bistoch benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-dilate --seed 1 --seconds 25 --trace 0

Generates the workload's seeded inputs (gen.py), times set-up in fresh
interpreters (probe.py), then runs the workload's jobs (jobs.py) as a closed
loop from one client: the next job starts when the previous one ends, until
``--seconds`` have passed, at least one full ladder cycle has run and the
last round of jobs is complete (see gen.ROUNDS).  Every op's output is
checked.  End-to-end times are scaled to a reference host speed measured in
the same run (see REFERENCE_NOMINAL_S).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each job twice, untraced and traced in alternating order, and reports
the per-layer metrics plus the tracing overhead.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
describes the run (input digest, tail percentile, failures, machine).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
from recorder import OpFailed, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads in this process and every process it starts: a single-threaded baseline
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
#: The shared host's speed drifts by 1.4-2x over tens of seconds to minutes,
#: for every workload at once.  A fixed pure-Python loop that uses nothing
#: from bistoch is timed between jobs; end-to-end times are scaled by its run
#: median to a host on which the loop takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.0135
REFERENCE_EVERY_S = 0.25
#: the tail job is the slowest one with at least this many slower jobs beyond it
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60


def _python(env, *args):
    """Run a fresh interpreter to completion; returns (stdout, wall seconds)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args))} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout, wall


def _reference_loop():
    start = perf_counter()
    total = 0
    for k in range(150_000):
        total += k * k % 7
    return perf_counter() - start


def _run_job(rec, job_fn, job, job_id, traced):
    start = rec.begin_job(job_id, traced)
    try:
        job_fn(rec, job)
    except OpFailed:
        pass
    except Exception as exc:  # the job's own code broke; count it and keep the run going
        rec.crashed(exc)
    return rec.end_job(start)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, workdir):
    """Set up, run the closed loop, and return (values, run description, recorder)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    setup = []
    import_floor = []
    if not args.trace:
        setup = [float(_python(env, HERE / "probe.py", workdir)[0]) for _ in range(SETUP_PROBES)]
    elif args.workload == "cli-pipeline":
        import_floor = [_python(env, "-c", "import bistoch")[1] for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import jobs

    if not Path(jobs.core.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bistoch imported from {jobs.core.__file__}, not from {SRC}")
    workload, cycle = jobs.load(workdir)
    if workload == "cli-pipeline":
        cli = jobs.Cli(workdir, SRC)
        job_fn = lambda rec, job: jobs.cli_pipeline(rec, job, cli)  # noqa: E731
    else:
        job_fn = jobs.LIBRARY_JOBS[workload]

    rec = Recorder()
    times = [[] for _ in cycle]
    paired = {False: 0.0, True: 0.0}  # untraced and traced seconds of the paired jobs
    reference = [_reference_loop()]
    i = 0
    start = last_reference = perf_counter()
    deadline = start + args.seconds
    per_round = gen.ROUNDS.get(workload, 1)
    while i < len(cycle) or perf_counter() < deadline or i % per_round:
        pos = i % len(cycle)
        if args.trace:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                paired[traced] += _run_job(rec, job_fn, cycle[pos], i, traced)
        else:
            times[pos].append(_run_job(rec, job_fn, cycle[pos], i, False))
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(_reference_loop())
            last_reference = perf_counter()
        i += 1
    elapsed = perf_counter() - start

    info = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": i,
        "cycle": [job["size"] for job in cycle],
        "seconds_measured": elapsed,
        "failures": dict(rec.failures),
        "reference_loop_s": statistics.median(reference),
        "reference_samples": len(reference),
    }
    if args.trace:
        values = rec.layer_metrics(jobs.LIBRARY_OPS)
        for sub in jobs.CLI_SUBCOMMANDS:
            cli_metrics = rec.layer_metrics([f"cli.{sub}"])
            values[f"cli.{sub}.wall_s"] = cli_metrics[f"cli.{sub}.busy_s"]
            values[f"cli.{sub}.failed"] = cli_metrics[f"cli.{sub}.failed"]
        for name in jobs.COUNTERS:
            values[name] = rec.counters[name]
        calls = values["entropy.birkhoff_decompose.calls"]
        values["entropy.birkhoff_decompose.ok_ratio"] = (
            (calls - values["entropy.birkhoff_decompose.failed"]) / calls if calls else 0.0
        )
        values["cli.import_floor_s"] = statistics.median(import_floor) if import_floor else 0.0
        values["bench.job_self_s"] = rec.self_time()
        values["bench.trace_overhead_ratio"] = paired[True] / paired[False] - 1.0
        info["traced_jobs"] = len(rec.job_spans)
        return values, info, rec

    all_times = sorted(t for ts in times for t in ts)
    n = len(all_times)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    wall = {
        "jobs_per_s": n / sum(all_times),
        "job_p50_s": statistics.median(all_times),
        "job_tail_s": all_times[tail_index],
        "setup_s": statistics.median(setup),
    }
    speed = REFERENCE_NOMINAL_S / statistics.median(reference)
    info.update(
        position_median_s=[statistics.median(ts) for ts in times],
        tail_percentile=100.0 * (tail_index + 1) / n,
        tail_jobs_beyond=n - tail_index - 1,
        setup_samples_s=setup,
        wall=wall,
        host_speed=speed,
    )
    values = {name: v / speed if name == "jobs_per_s" else v * speed for name, v in wall.items()}
    values["op_ok_ratio"] = (rec.attempted - rec.failed) / rec.attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, info, rec


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one workload of the bistoch benchmark.")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bistoch" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: run from a bistoch checkout; {SRC / 'bistoch'} or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    declared = _declared_metrics(args.trace)

    files = gen.generate(args.workload, args.seed)
    digest = gen.digest(files)
    if gen.digest(gen.generate(args.workload, args.seed)) != digest:
        print("perfbench: the generator gave different inputs for the same seed", file=sys.stderr)
        return 2
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen.write(files, workdir)
        try:
            values, info, rec = measure(args, workdir)
        except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if set(values) != set(declared):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}", file=sys.stderr)
        return 2
    import numpy

    info["inputs_sha256"] = digest
    info["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "blas_threads": BLAS_THREADS,
    }
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
