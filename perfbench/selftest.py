"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks self-time accounting on a synthetic package with a fake clock, that
the output checker flags corrupted outputs, that a job which raises counts as
failed, that executions share no state, and that BENCHMARK.json lists the
metrics this harness reports.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import types
import unittest
from pathlib import Path

import checker
import metrics
import run
import workloads
from tracer import (ERROR, NAME, Tracer, function_times, layer_self_times)

HERE = Path(__file__).resolve().parent


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


_INNER = '''
__all__ = ["leaf", "numbers", "broken"]
def leaf():
    CLOCK.advance(2.0)
def numbers(k):
    for i in range(k):
        CLOCK.advance(0.5)
        yield i
def broken():
    CLOCK.advance(0.125)
    raise KeyError("x")
'''

_OUTER = '''
__all__ = ["outer", "hot"]
def outer():
    CLOCK.advance(1.0)
    leaf()
    CLOCK.advance(3.0)
    leaf()
    for _ in numbers(2):
        CLOCK.advance(10.0)
    hot()
    hot()
    try:
        broken()
    except KeyError:
        pass
def hot():
    CLOCK.advance(0.25)
'''


def _module(name: str, source: str, clock: Clock, **names) -> types.ModuleType:
    module = types.ModuleType(name)
    module.CLOCK = clock
    vars(module).update(names)
    exec(compile(source, name, "exec"), vars(module))
    return module


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.clock = Clock()
        self.inner = _module("fake.inner", _INNER, self.clock)
        self.outer = _module("fake.outer", _OUTER, self.clock, leaf=self.inner.leaf,
                             numbers=self.inner.numbers, broken=self.inner.broken)
        self.originals = dict(vars(self.outer))
        self.tracer = Tracer(clock=self.clock)
        self.tracer.patch_package({"inner": self.inner, "outer": self.outer},
                                  [self.inner, self.outer], {"outer.hot": "count"}, {})

    def tearDown(self):
        self.tracer.restore()

    def test_nested_self_times(self):
        self.outer.outer()
        spans, counts = self.tracer.take()
        # outer runs 1 + 3 + 2 * 10 itself, plus 2 * 0.25 in the counted helper.
        # inner runs 2 * 2 in leaf, 2 * 0.5 inside next(), 0.125 in broken.
        selfs = layer_self_times(spans)
        self.assertAlmostEqual(selfs["outer"], 24.5)
        self.assertAlmostEqual(selfs["inner"], 5.125)
        total = function_times(spans)
        self.assertAlmostEqual(total["outer.outer"], 29.625)
        self.assertAlmostEqual(total["inner.numbers"], 1.0)
        self.assertEqual(counts["outer.hot"], 2)
        self.assertEqual(counts["inner.numbers.items"], 2)
        self.assertNotIn("outer.hot", [s[NAME] for s in spans])
        self.assertEqual([s[ERROR] for s in spans if s[NAME] == "inner.broken"], ["KeyError"])

    def test_restore(self):
        self.assertIsNot(self.outer.leaf, self.originals["leaf"])
        self.tracer.restore()
        self.assertEqual(dict(vars(self.outer)), self.originals)
        self.outer.outer()
        self.assertEqual(self.tracer.spans, [])


def _reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        raise unittest.SkipTest(f"no recorded {path.name}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sets"]["0"]


class CheckerTest(unittest.TestCase):
    def _verify(self):
        ref = _reference("verify-exact")["verify-q2-n7"]
        return ref, copy.deepcopy(ref["output"])

    def _problems(self, ref, output, code=0) -> list[str]:
        return checker.check("verify", ref["argv"], code, json.dumps(output), ref)

    def test_reference_passes(self):
        ref, output = self._verify()
        self.assertEqual(self._problems(ref, output), [])
        output["certificate"]["report"]["mi_exact"] *= 1 + 1e-12
        self.assertEqual(self._problems(ref, output), [])

    def test_flipped_passed(self):
        ref, output = self._verify()
        output["passed"] = False
        self.assertTrue(self._problems(ref, output))

    def test_perturbed_mi(self):
        ref, output = self._verify()
        output["certificate"]["report"]["mi_exact"] += 1e-6
        self.assertTrue(self._problems(ref, output))

    def test_exit_code(self):
        ref, output = self._verify()
        self.assertIn("exit code 1", self._problems(ref, output, code=1))

    def test_monte_carlo_rows(self):
        ref = _reference("sweep-mc")["sweep-q2-n16"]
        rows = copy.deepcopy(ref["output"])
        lo, hi = ref["mc_interval"][0]
        header = list(rows[0])

        def problems(rows):
            text = ",".join(header) + "\n" + "".join(
                ",".join(row[h] for h in header) + "\n" for row in rows)
            return checker.check("sweep", ref["argv"], 0, text, ref)

        self.assertEqual(problems(rows), [])
        for flag in ("estimate", "exact"):
            rows[0]["mi_flag"] = flag
            rows[0]["mi"] = repr((lo + hi) / 2)
            self.assertEqual(problems(rows), [], flag)
            for wrong in (hi + 1.0, lo - 1.0, 0.0, 10 * hi):
                rows[0]["mi"] = repr(wrong)
                self.assertTrue(problems(rows), (flag, wrong))
        rows[0]["mi"], rows[0]["mi_flag"] = "nan", "estimate"
        self.assertTrue(problems(rows))
        rows[0]["mi"], rows[0]["mi_flag"] = repr((lo + hi) / 2), "bound"
        self.assertTrue(problems(rows))


class FailureTest(unittest.TestCase):
    def test_raising_job_counts_as_failed(self):
        run.prepare_process()
        cli = importlib.import_module("typecipher.cli")
        jobs = [j for j in workloads.jobs("types-analytic", 0) if j.kind == "converse-probe"]
        original_jobs, original_main = workloads.jobs, cli.main

        def main(argv):
            if argv[:3] == list(jobs[1].argv[:3]):
                raise ZeroDivisionError("injected")
            return original_main(argv)

        workloads.jobs = lambda workload, seed: jobs
        cli.main = main
        try:
            result = run.run("types-analytic", 0, 0.0, trace=True)
        finally:
            workloads.jobs, cli.main = original_jobs, original_main
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])
        self.assertEqual(result["detail"]["failed_frac"], 0.5)
        self.assertIs(importlib.import_module("typecipher.leakage").strong_converse_probe,
                      importlib.import_module("typecipher").strong_converse_probe)


class ColdExecutionTest(unittest.TestCase):
    def test_executions_share_no_state(self):
        state = []

        def main(argv):
            state.append(argv)
            print(len(state))
            return 0

        job = workloads.Job("j", "probe", ("probe",))
        for _ in range(2):
            result = run.execute(main, job)
            self.assertEqual((result["code"], result["stdout"]), (0, "1\n"))
        self.assertEqual(state, [])

    def test_dead_child_counts_as_failed(self):
        def main(argv):
            os._exit(3)

        result = run.execute(main, workloads.Job("j", "probe", ("probe",)))
        self.assertEqual(result["code"], -1)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_agree(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         {k: v[:2] for k, v in metrics.PER_LAYER.items()})
        for name, (_, _, moves) in metrics.PER_LAYER.items():
            for metric, workload in moves:
                self.assertIn(workload, workloads.WORKLOADS, name)
                self.assertIn(metric, {**metrics.END_TO_END, **metrics.EXTRA_END_TO_END}, name)


if __name__ == "__main__":
    unittest.main()
