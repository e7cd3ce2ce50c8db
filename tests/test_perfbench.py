"""The benchmark's jobs pass its own output checker, in process.

Runs parameter set 0 of each workload in `perfbench/workloads.py` through
`typecipher.cli.main` and checks every output with `perfbench/checker.py`
against the reference recorded for it, as a benchmark run does.  Reads
`perfbench/`; writes nothing there.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from typecipher.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, with no byte-code cache written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


checker = _load("checker")
workloads = _load("workloads")

# share of leakage figures with provenance `exact`, by workload
EXACT_FRAC = {"verify-exact": 1.0, "sweep-mc": 0.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_param_set_0_passes_the_checker(workload):
    with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        refs = json.load(fh)["sets"]["0"]
    figures = []
    for job in workloads.jobs(workload, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(job.argv))
        text = out.getvalue()
        assert checker.check(job.kind, list(job.argv), code, text, refs.get(job.id)) == [], job.id
        figures += checker.figures(job.kind, checker.parse(job.kind, text))
    if workload in EXACT_FRAC:
        assert figures.count("exact") / len(figures) == EXACT_FRAC[workload]
