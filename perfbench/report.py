"""Steadiness report: every metric of every workload over repeated runs.

    python3 perfbench/report.py [--runs 10] [--sets 1] [--trace-runs 1]
                                [--workload NAME ...] [--save FILE]

Each run is its own process (`run.py`), as long as `run_seconds` of
BENCHMARK.json, with seed `first_seed + k` for the
k-th run of a set; sets use consecutive blocks of seeds, and the workloads
take turns within a set so that load drifting on the machine reaches all of
them alike.  For each workload and set the report prints every end-to-end
metric by name and unit, with its median, quartiles and spread (quartile
distance over median) beside its bound from BENCHMARK.json, then
`failed_frac` and `exact_frac`.  Traced runs add the per-layer medians, the
end-to-end metric each should move, and the tracing overhead (traced minus
untraced `wall_s`).  `--save` writes every raw figure as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def print_set(workload: str, runs: list[dict], bounds: dict) -> dict:
    out = {}
    print(f"\n{workload}: {len(runs)} runs, seeds "
          f"{', '.join(str(r['detail']['seed']) for r in runs)}")
    print(f"  {'metric':<22}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name, (unit, _) in metrics.END_TO_END.items():
        s = summary([r["metrics"][name]["value"] for r in runs])
        out[name] = s
        print(f"  {name:<22}{unit:<7}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{s['spread']:>9.4f}{bounds[name]:>8.3g}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out["failed_frac"] = failed / attempted
    print(f"  {'failed_frac':<22}{'1':<7}{out['failed_frac']:>12.5g}"
          f"   ({failed} of {attempted} job runs)")
    exact = [r["detail"]["exact_frac"] for r in runs if r["detail"]["exact_frac"] is not None]
    out["exact_frac"] = statistics.median(exact) if exact else None
    print(f"  {'exact_frac':<22}{'1':<7}"
          + (f"{out['exact_frac']:>12.5g}" if exact else f"{'n/a':>12}   (no leakage figures)"))
    measured = summary([r["detail"]["measured_wall_s"] for r in runs])
    print(f"  {'measured wall_s':<22}{'s':<7}{measured['median']:>12.5g}{measured['q1']:>12.5g}"
          f"{measured['q3']:>12.5g}{measured['spread']:>9.4f}   (plain seconds, not gated)")
    jobs = runs[0]["detail"]["jobs"]
    print(f"  jobs: {', '.join(j['id'] for j in jobs)}")
    return out


def print_trace(workload: str, traced: list[dict], untraced: list[dict]) -> dict:
    out = {name: summary([r["metrics"][name]["value"] for r in traced])["median"]
           for name in metrics.PER_LAYER}
    print(f"\n{workload}: per-layer medians over {len(traced)} traced runs")
    for name, (unit, _, moves) in metrics.PER_LAYER.items():
        target = ", ".join(f"{m} on {w}" for m, w in moves)
        print(f"  {name:<42}{unit:<7}{out[name]:>14.6g}  {target}")
    layer_total = sum(out[f"{layer}.self_s"] for layer in metrics.LAYERS)
    print(f"  self time of all layers: {layer_total:.4g} s of traced wall_s "
          f"{out['traced_wall_s']:.4g} s")
    # Overhead compares traced and untraced runs of the same seed, since the
    # seed moves the work a little.
    walls = {r["detail"]["seed"]: r["metrics"]["wall_s"]["value"] for r in untraced}
    pairs = [(r["metrics"]["traced_wall_s"]["value"], walls[r["detail"]["seed"]])
             for r in traced if r["detail"]["seed"] in walls]
    if pairs:
        over = statistics.median(t - u for t, u in pairs)
        wall = statistics.median(u for _, u in pairs)
        out["overhead_s"] = over
        print(f"  tracing overhead: {over:.4g} s ({over / wall:+.1%} of untraced wall_s "
              f"{wall:.4g} s), median over {len(pairs)} seeds run both ways")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    saved: dict = {"seconds": seconds, "sets": [], "traced": {}}

    first = None
    for k in range(args.sets):
        seeds = [args.first_seed + k * args.runs + i for i in range(args.runs)]
        runs = {w: [] for w in names}
        for seed in seeds:
            for w in names:
                runs[w].append(one_run(w, seed, seconds, 0))
        if first is None:
            first = runs[names[0]][0]["detail"]["env"]
            print(f"machine: {json.dumps(first)}; {seconds} s per run")
        print(f"\n=== set {k + 1} of {args.sets}")
        saved["sets"].append({w: {"summary": print_set(w, runs[w], bounds),
                                  "runs": runs[w]} for w in names})
    if args.sets > 1:
        print("\nsecond median over first, per end-to-end metric:")
        for w in names:
            a, b = saved["sets"][0][w]["summary"], saved["sets"][1][w]["summary"]
            print(f"  {w:<16}" + "  ".join(
                f"{m} {b[m]['median'] / a[m]['median'] - 1:+.2%}" for m in metrics.END_TO_END))
    for w in names:
        if not args.trace_runs:
            break
        traced = [one_run(w, args.first_seed + i, seconds, 1) for i in range(args.trace_runs)]
        untraced = saved["sets"][0][w]["runs"] if saved["sets"] else []
        saved["traced"][w] = {"summary": print_trace(w, traced, untraced), "runs": traced}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
