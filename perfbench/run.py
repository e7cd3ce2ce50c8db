"""typecipher benchmark: one workload run, from sources in `src/`.

    python3 perfbench/run.py --workload verify-exact --seed 0 --seconds 35 --trace 0

The run imports `typecipher` from `src/` and calls `typecipher.cli.main(argv)`
for each job of the workload (`workloads.py`), one job after another (a
closed loop with one client).  Every execution runs in a fresh fork of the
run's process, which has imported the package but run no job: it starts cold,
as a new `typecipher` invocation does, and nothing an earlier execution
computed is left for it.  The first pass runs every job once; further passes
continue, job by job, while the next job still fits in `--seconds`.  Every
output is checked against its recorded reference (`checker.py`).

Times are in reference seconds.  The host's speed drifts by up to 1.6x from
one run to the next, so each execution's measured seconds are multiplied by
`CAL_REF_S` / (the time of a fixed calibration loop, measured right before
and right after the execution, on the same CPU).  That is the time the
execution would take on the host at the speed where the loop takes
`CAL_REF_S`.  A job's time in a run is the median over its executions.

The last line of standard output is the result, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones:

* `wall_s`: time of the whole job list, the sum of the job times; imports
  excluded.
* `job_p50_s`: the median over jobs of the job times.
* `setup_s`: median over fresh interpreters, one after each pass, of the time
  to import `typecipher.cli` and build its parser, i.e. to reach the first
  job.
* `peak_rss_mb`: the largest peak resident memory of an execution's process.

With `--trace 1` the public functions of every module are wrapped
(`tracer.py`) and the metrics are the per-layer ones of `metrics.PER_LAYER`,
summed over jobs, each job taken at its execution of median time.  Spans are
written to `perfbench/out/`.  The line before the result, starting with
`detail `, holds the per-job times (also as measured, in plain seconds),
`failed_frac`, `exact_frac`, the reference tolerance and the Python, numpy,
CPU and core-count figures of the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checker
import metrics
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
SETUP_TIMEOUT_S = 60

# Iterations of the calibration loop, and its time in seconds at full speed
# on the host where the bounds were set (Intel Xeon, 2 vCPUs, Python 3.11).
CAL_LOOPS = 400_000
CAL_REF_S = 0.025

_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import typecipher.cli as c; "
    "c.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def prepare_process() -> None:
    """Make `src/` importable and pin BLAS/OpenMP pools to one thread.

    Call before numpy is first imported; the set-up probes inherit the
    pinned environment.
    """
    if not (SRC / "typecipher" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no typecipher sources at {SRC}; run from a checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_current_cpu() -> int:
    """Keep this process and every process it starts on the CPU it runs on.

    Calibration, executions and set-up probes then share one CPU, so the
    calibration measures the speed the execution next to it had.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the CPU's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Seconds for a fresh interpreter to import typecipher.cli and build its parser."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def environment(nproc: int, cpu_index: int | None) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": nproc,
        "pinned_cpu": cpu_index,
    }


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sets"]


def execute(main, job: workloads.Job, tracer: Tracer | None = None) -> dict:
    """Run one job through `main(argv)` in a fresh fork of this process.

    Returns what `execute_in_process` returns, from the child; a child that
    ends without handing over its result counts as exit code -1.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = execute_in_process(main, job, tracer)
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        result = {"code": -1, "stdout": "", "stderr": f"child ended with status {status}\n",
                  "seconds": 0.0, "rss_mb": 0.0, "spans": [], "counts": {},
                  "probe_errors": 0}
    else:
        result = json.loads(data)
    if result["code"] != 0:
        sys.stderr.write(f"perfbench: {job.id} exited {result['code']}\n{result['stderr']}")
    return result


def execute_in_process(main, job: workloads.Job, tracer: Tracer | None = None) -> dict:
    """Run one job through `main(argv)` in this process.

    Returns the exit code (-1 when the job raised), standard output and
    error, seconds inside `main`, the process's peak resident memory in MB,
    and with a tracer its spans, counts and probe errors.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = -1
        traceback.print_exc(file=err)
    elapsed = time.perf_counter() - t0
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
              "seconds": elapsed,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        spans, counts = tracer.take()
        result.update(spans=spans, counts=dict(counts), probe_errors=tracer.probe_errors)
    return result


def schedule(jobs: list, seconds: float, run_one) -> None:
    """Run every job once, then keep cycling while the next job fits.

    A job fits when the time its last `run_one` call took still fits.
    """
    start = time.perf_counter()
    last: dict[int, float] = {}
    i = 0
    while True:
        j = i % len(jobs)
        now = time.perf_counter()
        if i >= len(jobs) and now - start + last[j] > seconds:
            return
        run_one(j)
        last[j] = time.perf_counter() - now
        i += 1


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object plus its `detail`."""
    prepare_process()
    nproc = len(os.sched_getaffinity(0))
    cpu_index = pin_to_current_cpu()
    refs = load_references(workload).get(str(workloads.param_set(seed)), {})
    jobs = workloads.jobs(workload, seed)
    if not trace:
        setup_probe()  # untimed: writes the byte-code caches, as an install would

    cli = importlib.import_module("typecipher.cli")
    tracer = None
    if trace:
        package = importlib.import_module("typecipher")
        modules = {layer: importlib.import_module(f"typecipher.{layer}")
                   for layer in metrics.LAYERS}
        tracer = Tracer()
        wrapped = tracer.patch_package(
            modules, [package, *modules.values()],
            {name: "count" for name in metrics.COUNT_ONLY}, metrics.PROBES)
        for name in sorted((metrics.COUNT_ONLY | set(metrics.PROBES)) - set(wrapped)):
            print(f"perfbench: {name} not found; its figures read 0", file=sys.stderr)

    # Per job and execution: (measured seconds, reference seconds).
    times: list[list[tuple[float, float]]] = [[] for _ in jobs]
    layer_values: list[list[dict]] = [[] for _ in jobs]
    job_spans: list[dict] = []
    setup_times: list[tuple[float, float]] = []
    cal_times: list[float] = []
    attempted = failed = exact = figures = probe_errors = 0
    problems: list[str] = []
    rss_mb = 0.0

    def calibration() -> float:
        cal_times.append(calibrate())
        return cal_times[-1]

    def run_one(j: int) -> None:
        nonlocal attempted, failed, exact, figures, probe_errors, rss_mb
        job = jobs[j]
        if tracer is not None:
            tracer.job = f"{job.id}#{len(times[j])}"
        before = cal_times[-1]
        result = execute(cli.main, job, tracer)
        scale = CAL_REF_S / ((before + calibration()) / 2)
        code, text, elapsed = result["code"], result["stdout"], result["seconds"]
        rss_mb = max(rss_mb, result["rss_mb"])
        attempted += 1
        times[j].append((elapsed, elapsed * scale))
        found = checker.check(job.kind, list(job.argv), code, text, refs.get(job.id))
        job_figures: list[str] = []
        if found:
            failed += 1
            problems.extend(f"{job.id}: {p}" for p in found)
        else:
            job_figures = checker.figures(job.kind, checker.parse(job.kind, text))
            figures += len(job_figures)
            exact += job_figures.count("exact")
        if tracer is not None:
            probe_errors += result["probe_errors"]
            values = metrics.job_layer_values(result["spans"], Counter(result["counts"]))
            values = {k: v * scale if metrics.is_time(k) else v for k, v in values.items()}
            values["leakage.exact_figures"] = float(job_figures.count("exact"))
            values["cli.output_bytes"] = float(len(text.encode()))
            layer_values[j].append(values)
            job_spans.append({"job": tracer.job, "scale": scale, "spans": result["spans"]})
        if not trace and j == len(jobs) - 1:
            before = cal_times[-1]
            probe = setup_probe()
            setup_times.append((probe, probe * CAL_REF_S / ((before + calibration()) / 2)))

    gc.collect()
    gc.freeze()  # forked children then leave the parent's objects untouched
    calibration()
    try:
        schedule(jobs, seconds, run_one)
    finally:
        if tracer is not None:
            tracer.restore()

    # A job's time is its median execution, in reference seconds; the
    # execution of median time also gives its traced figures.
    median_at = [sorted(range(len(t)), key=lambda k: t[k][1])[(len(t) - 1) // 2]
                 for t in times]
    job_ref_s = [t[k][1] for t, k in zip(times, median_at)]
    if trace:
        picked = [per_job[k] for per_job, k in zip(layer_values, median_at)]
        summed = {key: sum(v[key] for v in picked) for key in picked[0]}
        summed["traced_wall_s"] = sum(job_ref_s)
        reports = sum(1 for job in jobs if job.kind in ("verify", "exact-mi"))
        values = metrics.finish_layer_values(summed, reports)
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
            for record in job_spans:
                fh.write(json.dumps(record) + "\n")
    else:
        values = {
            "wall_s": sum(job_ref_s),
            "job_p50_s": statistics.median(job_ref_s),
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "peak_rss_mb": rss_mb,
        }
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    detail = {
        "workload": workload,
        "seed": seed,
        "param_set": workloads.param_set(seed),
        "trace": int(trace),
        "jobs": [{"id": job.id, "runs": len(t), "ref_s": t[k][1],
                  "measured_min_s": min(m for m, _ in t),
                  "measured_median_s": statistics.median(m for m, _ in t)}
                 for job, t, k in zip(jobs, times, median_at)],
        "measured_wall_s": sum(statistics.median(m for m, _ in t) for t in times),
        "measured_setup_s": (statistics.median(m for m, _ in setup_times)
                             if setup_times else None),
        "calibration_s": {"median": statistics.median(cal_times), "min": min(cal_times),
                          "max": max(cal_times), "ref": CAL_REF_S},
        "failed_frac": failed / attempted,
        "exact_frac": exact / figures if figures else None,
        "tolerance": checker.TOLERANCE,
        "problems": problems[:20],
        "probe_errors": probe_errors,
        "env": environment(nproc, cpu_index),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
