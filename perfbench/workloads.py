"""Seeded job lists for the three benchmark workloads.

A job is one `typecipher` command line.  Its parameters (the CLI `--seed`
and the laws `p_X`, `p_K`, drawn with full support) come from the benchmark
seed.  Seeds are folded onto `PARAM_SETS` parameter sets, because the output
checker compares every job against a reference recorded for its parameter
set; seeds `s` and `s + PARAM_SETS` therefore run identical jobs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PARAM_SETS = 16

WORKLOADS = ("verify-exact", "sweep-mc", "types-analytic")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # the CLI subcommand
    argv: tuple[str, ...]


def param_set(seed: int) -> int:
    return seed % PARAM_SETS


# Base laws (in thousandths) that the seed perturbs.  The perturbation is
# small on purpose: solver iterations, typical-set sizes and distinct sample
# counts all follow the laws' entropy, so wide draws would make the work, and
# hence the timings, differ from seed to seed.
P_X = {2: (820, 180), 3: (650, 200, 150), 5: (380, 240, 150, 120, 110)}
P_K = {2: (620, 380), 3: (400, 350, 250), 5: (300, 250, 200, 150, 100)}
JITTER = 20

# Samples per Monte Carlo estimate in `sweep-mc`.  Each single-n sweep job
# then takes about a second, so a run holds several cold executions of each.
SWEEP_SAMPLES = 4000


def _law(rng: random.Random, base: tuple[int, ...]) -> str:
    """`base` with each entry but the last moved by up to JITTER, as CLI text.

    The last entry absorbs the change; every base law keeps it above
    (q - 1) * JITTER, so the law keeps full support.
    """
    head = [v + rng.randint(-JITTER, JITTER) for v in base[:-1]]
    return _text((*head, 1000 - sum(head)))


def _text(law: tuple[int, ...]) -> str:
    return ",".join(f"{v / 1000:.3f}" for v in law)


def _entropy(text: str) -> float:
    return -sum(p * math.log2(p) for p in map(float, text.split(",")))


def _job(job_id: str, *argv: object) -> Job:
    return Job(job_id, str(argv[0]), tuple(str(a) for a in argv))


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for benchmark seed `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{param_set(seed)}")

    def cli_seed() -> int:
        return rng.randrange(1, 1_000_000)

    if workload == "verify-exact":
        return [
            _job("verify-q2-n7", "verify", "--q", 2, "--n", 7, "--rate", 0.9,
                 "--px", _law(rng, P_X[2]), "--seed", cli_seed()),
            _job("verify-q2-n7-pk", "verify", "--q", 2, "--n", 7, "--rate", 0.9,
                 "--px", _law(rng, P_X[2]), "--pk", _law(rng, P_K[2]),
                 "--seed", cli_seed()),
            _job("verify-q3-n4", "verify", "--q", 3, "--n", 4, "--rate", 1.2,
                 "--px", _law(rng, P_X[3]), "--seed", cli_seed()),
            _job("exact-mi-q2-n8", "exact-mi", "--q", 2, "--n", 8, "--rate", 0.9,
                 "--px", _law(rng, P_X[2]), "--pk", _law(rng, P_K[2]),
                 "--seed", cli_seed()),
        ]
    if workload == "sweep-mc":
        out = []
        for q, rate, n_list in ((2, 0.9, (16, 20)), (3, 1.2, (9, 11))):
            px, pk = _law(rng, P_X[q]), _law(rng, P_K[q])
            out.extend(
                _job(f"sweep-q{q}-n{n}", "sweep", "--q", q, "--n", n, "--rate", rate,
                     "--px", px, "--pk", pk, "--samples", SWEEP_SAMPLES, "--seed", cli_seed())
                for n in n_list)
        return out
    # The exponent solvers' cost moves by up to 2x between laws that differ by
    # 0.02 (bracketing and bisection depend on where the law sits), so the
    # exponent jobs keep the base laws; the seed varies the probe jobs.
    out = [
        _job(f"exponents-q{q}", "exponents", "--q", q,
             "--px", _text(P_X[q]), "--pk", _text(P_K[q]))
        for q in (2, 3, 5)
    ]
    for q, n_list in ((2, "4,8,12,16,20,24"), (3, "3,6,9,12,15")):
        px = _law(rng, P_X[q])
        rate = round(_entropy(px) * rng.uniform(0.7, 0.8), 3)
        out.append(_job(f"probe-q{q}", "converse-probe", "--q", q, "--n", n_list,
                        "--rate", rate, "--px", px))
    return out
