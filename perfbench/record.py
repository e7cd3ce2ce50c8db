"""Record the reference outputs that `checker.py` compares against.

    python3 perfbench/record.py [--workload NAME ...]

Runs every job of every parameter set once, untraced and in this process
(so the sampler can be observed), and writes
`perfbench/reference/<workload>.json`.  Re-record only when the job lists in
`workloads.py` change, never to make a failing check pass.  For Monte Carlo
figures it stores the interval `estimate +- MC_INTERVAL_SE * std_error`,
with the standard error taken from the estimator's own result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import checker
import run
import workloads


def record_set(cli, workload: str, index: int) -> dict:
    out = {}
    for job in workloads.jobs(workload, index):
        estimates = []
        original = cli.monte_carlo_mi

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            estimates.append(result)
            return result

        cli.monte_carlo_mi = capture
        try:
            result = run.execute_in_process(cli.main, job)
        finally:
            cli.monte_carlo_mi = original
        code, text = result["code"], result["stdout"]
        entry = {"argv": list(job.argv), "output": checker.parse(job.kind, text)}
        if job.kind == "sweep":
            rows = [row for row in entry["output"] if row["mi_flag"] == "estimate"]
            if len(rows) != len(estimates):
                raise RuntimeError(f"{job.id}: {len(rows)} estimates, {len(estimates)} samplings")
            entry["mc_interval"] = []
            pending = iter(estimates)
            for row in entry["output"]:
                if row["mi_flag"] != "estimate":
                    entry["mc_interval"].append(None)
                    continue
                est = next(pending)
                if repr(est.estimate) != row["mi"]:
                    raise RuntimeError(f"{job.id}: estimate {est.estimate} is not row {row}")
                half = checker.MC_INTERVAL_SE * est.std_error
                entry["mc_interval"].append([est.estimate - half, est.estimate + half])
        problems = checker.check(job.kind, list(job.argv), code, text, entry)
        if problems:
            raise RuntimeError(f"{workload} set {index} {job.id}: {problems}")
        out[job.id] = entry
        print(f"{workload} set {index} {job.id}: recorded", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    run.prepare_process()
    cli = importlib.import_module("typecipher.cli")
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        sets = {str(i): record_set(cli, workload, i) for i in range(workloads.PARAM_SETS)}
        payload = {"param_sets": workloads.PARAM_SETS, "tolerance": checker.TOLERANCE,
                   "mc_interval_se": checker.MC_INTERVAL_SE, "sets": sets}
        with open(run.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
