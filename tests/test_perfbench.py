"""The benchmark's jobs pass its own output checker, in process.

Runs every parameter set of each workload in `perfbench/workloads.py`, all
208 command lines, through `typecipher.cli.main` and checks every output
with `perfbench/checker.py` against the reference recorded for it, as a
benchmark run does.  Every parameter set is also checked without running a
job: each exact or sampled leakage figure stays on its recorded side of the
size cap.  The run's set-up probe (`run.setup_probe`) is run once, so an
entry point it calls that goes missing fails here.  Reads `perfbench/`;
writes nothing there.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from typecipher import fields
from typecipher.cli import _dist_or_uniform, _plan, build_parser, main
from typecipher.code import build_codebook
from typecipher.leakage import exact_refusal

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


def _reference(workload):
    with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["sets"]


# share of leakage figures with provenance `exact`, by workload
EXACT_FRAC = {"verify-exact": 1.0, "sweep-mc": 0.0}


def _passes_the_checker(workload, param_set):
    refs = _reference(workload)[str(param_set)]
    figures = []
    for job in workloads.jobs(workload, param_set):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(job.argv))
        text = out.getvalue()
        problems = checker.check(job.kind, list(job.argv), code, text, refs.get(job.id))
        assert problems == [], (param_set, job.id)
        figures += checker.figures(job.kind, checker.parse(job.kind, text))
    if workload in EXACT_FRAC:
        assert figures.count("exact") / len(figures) == EXACT_FRAC[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_param_set_0_passes_the_checker(workload):
    _passes_the_checker(workload, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_other_param_set_passes_the_checker(workload):
    for param_set in range(1, workloads.PARAM_SETS):
        _passes_the_checker(workload, param_set)


@pytest.mark.parametrize("workload", ["verify-exact", "sweep-mc"])
def test_every_param_set_stays_on_its_side_of_the_cap(workload):
    # runs no job: for every job of every parameter set, `exact_refusal`
    # decides as the recorded figure's provenance says, so a cap change that
    # would flip a row fails here, and each `verify` job's decryption check
    # is exhaustive
    refs = _reference(workload)
    for param_set in range(workloads.PARAM_SETS):
        for job in workloads.jobs(workload, param_set):
            args = build_parser().parse_args(list(job.argv))
            plan = _plan(args, fields.FieldSpec(args.q))
            p_k = _dist_or_uniform(args.pk, args.q, "--pk")
            output = refs[str(param_set)][job.id]["output"]
            (provenance,) = set(checker.figures(job.kind, output))
            refusal = exact_refusal(build_codebook(plan), p_k)
            assert (refusal is None) == (provenance == "exact"), job.id
            if job.kind == "verify":
                assert output["decryption_condition"]["checked"] == "exhaustive"


def test_setup_probe_reaches_ready(monkeypatch):
    # a fresh interpreter imports typecipher.cli and calls build_parser(); a
    # rename there would otherwise fail only a benchmark run.  run.py imports
    # its sibling modules by name, so they load for it and are dropped after
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        assert _load("run").setup_probe() > 0
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]
