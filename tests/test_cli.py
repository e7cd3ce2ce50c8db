"""Command-line surface: outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from typecipher.cipher import CipherSystem, derandomize, pad_law
from typecipher.cli import _FLAGS, main
from typecipher.code import Codebook, build_codebook, explicit_m_plan, make_rate_plan
from typecipher.fields import MAX_ENUM, FieldSpec
from typecipher.leakage import _log2_sequence_prob, exact_laws, exact_mutual_info, exact_refusal
from typecipher.simplex import Distribution, entropy, uniform
from typecipher.typeclasses import enumerate_types

import oracles
from oracles import class_prob_fraction, numpy_sub_seed

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `verify` at q=2 and q=3, `exact-mi`, `verify` on an explicit-m plan
# with m < n (so A has fewer columns than rows) and `verify` with a uniform
# key (coset masses grouped by sorting their labels) in one fresh
# interpreter, then prints the numpy submodules that a cold run must not pay
# to import.
_COLD_VERIFY = """
import contextlib, io, sys
from typecipher.cli import main
for argv in (
    ["verify", "--q", "2", "--n", "5", "--rate", "0.9", "--px", "0.8,0.2", "--pk", "0.7,0.3"],
    ["verify", "--q", "3", "--n", "3", "--rate", "1.2", "--px", "0.6,0.3,0.1",
     "--pk", "0.5,0.3,0.2"],
    ["exact-mi", "--q", "2", "--n", "7", "--rate", "0.9", "--px", "0.8,0.2", "--pk", "0.7,0.3"],
    ["verify", "--q", "2", "--n", "6", "--m", "4", "--px", "0.8,0.2", "--pk", "0.7,0.3"],
    ["verify", "--q", "2", "--n", "5", "--rate", "0.9", "--px", "0.8,0.2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(sorted(name for name in ("numpy.fft", "numpy.ma") if name in sys.modules))
"""

# Runs each exact command once in a fresh interpreter, then prints whether
# numpy.random was imported: no command may load it.  The encoder search
# reads no law, so it is given none.
_COLD_EXACT = """
import contextlib, io, sys
from typecipher.cli import main
plan = ["--q", "2", "--n", "4", "--rate", "0.9"]
law = [*plan, "--px", "0.8,0.2", "--pk", "0.7,0.3"]
for argv in (["verify", *law], ["exact-mi", *law], ["search-encoder", *plan]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print("numpy.random" in sys.modules)
"""

# The same for the sampled paths: a sweep past the word-space cap and
# exact-mi's Monte Carlo fallback, bootstrap included.  It also prints
# whether numpy.ma got loaded: a plain `np.unique` (no return arguments)
# imports it, 17-18 ms in a cold process.
_COLD_SAMPLED = """
import contextlib, io, sys
from typecipher.cli import main
law = ["--q", "2", "--rate", "0.9", "--pk", "0.62,0.38", "--samples", "1000"]
for argv in (["sweep", "--n", "16", *law], ["exact-mi", "--n", "15", *law]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert "estimate" in out.getvalue()
print("numpy.random" in sys.modules, "numpy.ma" in sys.modules)
"""


# Imports the package, then runs a sampled sweep and an exact verify, and
# prints which of the modules `Fraction` would bring in got loaded, then
# which of argparse, the gettext/locale pair it pulls in and dataclasses got
# loaded.
_COLD_IMPORT = """
import contextlib, io, sys
import typecipher
from typecipher.cli import main
loaded = [name for name in ("fractions", "decimal") if name in sys.modules]
law = ["--q", "2", "--rate", "0.9", "--px", "0.8,0.2", "--pk", "0.7,0.3"]
for argv in (["sweep", "--n", "16", "--samples", "1000", *law], ["verify", "--n", "5", *law]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(loaded, [name for name in ("fractions", "decimal") if name in sys.modules],
      [name for name in ("argparse", "gettext", "locale", "dataclasses") if name in sys.modules])
"""


def _run_cold(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_exponents_uniform_binary(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--q", "2", "--rate", "0.3,0.5", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert [r["R"] for r in rows] == ["0.3", "0.5"]
    # uniform plaintext: no positive error exponent below H(X)=1
    assert all(float(r["E"]) == 0.0 and r["E_positive"] == "0" for r in rows)
    # uniform key: F(R) = 1 - R
    assert float(rows[0]["F"]) == pytest.approx(0.7, abs=1e-6)
    assert float(rows[1]["F"]) == pytest.approx(0.5, abs=1e-6)
    assert all(r["F_positive"] == "1" for r in rows)
    assert all(r["provenance"] == "exact" for r in rows)


def test_exponents_default_grid_to_stdout(capsys):
    assert main(["exponents", "--q", "2", "--px", "0.8,0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "R,E,F,E_positive,F_positive,provenance"
    assert len(lines) == 31  # header + 30 default grid points


@pytest.mark.parametrize("rates, shown", [("0.5,0", "0.0"), ("nan", "nan")])
def test_exponents_rejects_nonpositive_rate(capsys, rates, shown):
    assert main(["exponents", "--q", "2", "--px", "0.8,0.2", "--rate", rates]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rate must be positive, got {shown}" in captured.err


def test_codebook_payload(tmp_path):
    out = tmp_path / "cb.json"
    assert main(["codebook", "--n", "4", "--rate", "0.9", "--q", "2", "--out", str(out)]) == 0
    payload = _read_json(str(out))
    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    cb = build_codebook(plan)
    assert payload["provenance"] == "exact"
    assert payload["m"] == plan.m
    assert len(payload["members"]) == cb.member_count


def test_codebook_lists_a_small_codebook_over_a_large_space(tmp_path):
    # 2^23 sequences but few members: the member list is capped on what it
    # holds, not on q^n
    out = tmp_path / "cb.json"
    argv = ["codebook", "--q", "2", "--n", "23", "--out", str(out)]
    assert main(argv + ["--rate", "0.1"]) == 0
    payload = _read_json(str(out))
    assert payload["member_count"] == 2
    assert payload["members"] == ["1" * 23, "0" * 23]  # type (0, 23) first
    # at R=0.3 the types with at most one minority symbol qualify
    assert main(argv + ["--rate", "0.3"]) == 0
    payload = _read_json(str(out))
    assert payload["member_count"] == 48 == len(set(payload["members"]))
    assert payload["members"][:2] == ["1" * 23, "0" + "1" * 22]
    assert all(m.count("1") in (0, 1, 22, 23) for m in payload["members"])


def test_verify_canonical_smoke(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify", "--n", "4", "--rate", "0.9", "--q", "2",
            "--px", "0.9,0.1", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    report = _read_json(str(out))
    assert report["passed"] is True
    assert report["decryption_condition"]["holds"] is True
    assert report["injective_on_members"] is True
    assert report["encoder"]["derandomized"] is True
    assert report["certificate"]["passed"] is True
    assert report["row_sums"]["holds"] is True
    assert report["converse"]["key_rate_proof_holds"] is True
    # the display-form key-rate reading is reported but never gates
    assert report["converse"]["informational"] == ["key_rate_display_holds"]


@pytest.mark.parametrize(
    "q, n, rate, attempts",
    [(2, 54, "0.9", 1), (3, 32, "1.2", 1), (2, 160, "0.9", 2)],
)
def test_search_encoder_past_the_sequence_cap_within_budget(tmp_path, q, n, rate, attempts):
    # far past MAX_ENUM keys a draw of full rank is scored from its types
    # alone; at binary n=160 (m = n) seed 0 draws a rank-deficient A, which
    # cannot be counted there, so the search certifies seed 1's instead
    assert q**n > MAX_ENUM
    out = tmp_path / "search.json"
    t0 = time.perf_counter()
    code = main(["search-encoder", "--q", str(q), "--n", str(n), "--rate", rate,
                 "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    payload = _read_json(out)
    assert payload["type_count"] == math.comb(n + q - 1, q - 1)
    assert payload["score"] <= payload["type_count"]
    assert (payload["attempts"], payload["seed"]) == (attempts, attempts - 1)
    assert elapsed < 10.0, elapsed


def test_search_encoder_refuses_types_past_the_cap_before_listing(capsys, monkeypatch):
    # q=257, n=3: 257^3 keys and 2.86M types, q counts each, both past
    # MAX_ENUM, so the search refuses as the key cap does, listing nothing
    def listing(*args):
        raise AssertionError("enumerate_types called")

    monkeypatch.setattr("typecipher.cipher.enumerate_types", listing)
    assert main(["search-encoder", "--q", "257", "--n", "3", "--m", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: refusing to materialize 257^3 vectors (cap MAX_ENUM = 2^22)\n"
    )


def test_codebook_refuses_types_past_the_cap_at_once(capsys):
    # the same two caps as the search: 2.86M types at q=257, n=3 would take
    # gigabytes to list; below them (n <= 2) the codebook is built
    start = time.perf_counter()
    assert main(["codebook", "--q", "257", "--n", "3", "--rate", "4"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: refusing to materialize 257^3 vectors (cap MAX_ENUM = 2^22)\n"
    )
    assert main(["codebook", "--q", "257", "--n", "1", "--rate", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["member_count"] == 257


def test_verify_binary_n10_exact_within_budget(tmp_path):
    # 2^17 words: out of reach for a per-codeword loop, one transform here;
    # 2^20 (key, plaintext) pairs, all decrypted in the exhaustive check
    out = tmp_path / "verify10.json"
    t0 = time.perf_counter()
    code = main(
        [
            "verify", "--q", "2", "--n", "10", "--rate", "0.9",
            "--px", "0.9,0.1", "--seed", "7", "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = _read_json(str(out))
    assert report["passed"] is True
    assert report["config"]["m"] == 17
    assert report["decryption_condition"] == {"holds": True, "checked": "exhaustive"}
    assert report["injective_on_members"] is True
    figures = report["certificate"]["report"]
    assert figures["provenance"] == "exact"
    assert math.isfinite(figures["mi_exact"]) and figures["mi_exact"] > 0
    assert report["converse"]["measured_delta"] == figures["mi_exact"]
    assert elapsed < 20.0, f"verify at binary n=10 took {elapsed:.1f}s"


def test_verify_explicit_m_skips_exponent_checks(tmp_path):
    out = tmp_path / "verify_m.json"
    assert main(["verify", "--n", "3", "--m", "2", "--q", "2", "--out", str(out)]) == 0
    report = _read_json(str(out))
    assert report["passed"] is True
    assert report["config"]["canonical"] is False
    assert "mi_vs_security_bound" in report["certificate"]["skipped"]
    names = [c["name"] for c in report["certificate"]["checks"]]
    assert "mi_vs_security_bound" not in names


def test_exact_mi_matches_library(tmp_path):
    out = tmp_path / "mi.json"
    argv = [
        "exact-mi", "--n", "4", "--rate", "0.9", "--q", "2",
        "--px", "0.8,0.2", "--pk", "0.6,0.4", "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    payload = _read_json(str(out))
    assert payload["provenance"] == "exact"
    assert payload["encoder"]["derandomized"] is True

    plan = make_rate_plan(4, 0.9, FieldSpec(2))
    cb = build_codebook(plan)
    search = derandomize(plan, base_seed=numpy_sub_seed(3, 1))
    sys_ = CipherSystem(codebook=cb, key_encoder=search.encoder)
    laws = exact_laws(sys_, Distribution([0.8, 0.2]), Distribution([0.6, 0.4]), search)
    want = exact_mutual_info(laws)
    assert payload["mi_exact"] == pytest.approx(want.mi_exact, abs=1e-12)


def test_search_encoder_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["search-encoder", "--n", "4", "--rate", "0.9", "--q", "2", "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = _read_json(str(a))
    assert payload["score"] <= payload["type_count"]
    assert payload["attempts"] >= 1


def test_sweep_rows_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sweep", "--n", "2,4,6", "--rate", "0.9", "--q", "2",
        "--px", "0.9,0.1", "--seed", "11",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = _read_csv(str(a))
    assert [r["n"] for r in rows] == ["2", "4", "6"]
    for r in rows:
        assert float(r["p_e_exact"]) <= float(r["err_bound"]) + 1e-12
        assert r["p_e_flag"] == "exact"
        assert r["err_bound_flag"] == "bound"
        assert r["mi_flag"] in {"exact", "estimate"}
        assert r["sec_bound_flag"] == "bound"
        n = int(r["n"])
        plan = make_rate_plan(n, 0.9, FieldSpec(2))
        assert float(r["rate"]) == pytest.approx(plan.m / n, abs=1e-12)


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "sweep_q2_n16.csv",
            ["sweep", "--q", "2", "--n", "16", "--rate", "0.9", "--px", "0.82,0.18",
             "--pk", "0.62,0.38", "--samples", "4000", "--seed", "2024"],
        ),
        (
            "sweep_q3_n9.csv",
            ["sweep", "--q", "3", "--n", "9", "--rate", "1.2", "--px", "0.65,0.2,0.15",
             "--pk", "0.4,0.35,0.25", "--samples", "4000", "--seed", "2025"],
        ),
        (
            # 2^23 words, past MAX_ENUM: exact-mi falls back to Monte Carlo
            "exact_mi_q2_n15_mc.json",
            ["exact-mi", "--q", "2", "--n", "15", "--rate", "0.9", "--px", "0.82,0.18",
             "--pk", "0.62,0.38", "--samples", "2000", "--seed", "2026"],
        ),
        (
            # several cut points per draw, and a zero key mass
            "sweep_q5_n6_8.csv",
            ["sweep", "--q", "5", "--n", "6,8", "--rate", "1.5",
             "--px", "0.38,0.24,0.15,0.13,0.10", "--pk", "0.35,0.30,0.20,0.15,0.0",
             "--samples", "2000", "--seed", "2027"],
        ),
    ],
)
def test_monte_carlo_outputs_match_golden(tmp_path, name, argv):
    # same seed, same bytes as the row-sorting estimator and the recursive
    # member generator that wrote these files
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_q2_n7_uniform_pk.json",
         ["verify", "--q", "2", "--n", "7", "--rate", "0.9", "--px", "0.82,0.18",
          "--seed", "41"]),
        ("verify_q2_n7.json",
         ["verify", "--q", "2", "--n", "7", "--rate", "0.9", "--px", "0.82,0.18",
          "--pk", "0.62,0.38", "--seed", "42"]),
        ("verify_q3_n4.json",
         ["verify", "--q", "3", "--n", "4", "--rate", "1.2", "--px", "0.65,0.2,0.15",
          "--pk", "0.4,0.35,0.25", "--seed", "43"]),
        ("verify_q2_n6_m8.json",
         ["verify", "--q", "2", "--n", "6", "--m", "8", "--px", "0.8,0.2",
          "--pk", "0.7,0.3", "--seed", "44"]),
        ("exact_mi_q2_n8.json",
         ["exact-mi", "--q", "2", "--n", "8", "--rate", "0.9", "--px", "0.82,0.18",
          "--pk", "0.62,0.38", "--seed", "45"]),
        ("codebook_q2_n10.json", ["codebook", "--q", "2", "--n", "10", "--rate", "0.9"]),
        ("codebook_q3_n6.json", ["codebook", "--q", "3", "--n", "6", "--rate", "1.2"]),
    ],
)
def test_exact_outputs_match_golden(tmp_path, name, argv):
    # exact reports, byte for byte as the tuple codebook and the scalar
    # encode/decode loops wrote them
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


_EXPONENT_LAWS = {  # the benchmark's base laws
    2: ("0.820,0.180", "0.620,0.380"),
    3: ("0.650,0.200,0.150", "0.400,0.350,0.250"),
    5: ("0.380,0.240,0.150,0.120,0.110", "0.300,0.250,0.200,0.150,0.100"),
}


@pytest.mark.parametrize("q", sorted(_EXPONENT_LAWS))
def test_exponents_match_golden(tmp_path, q):
    # the default rate grid, byte for byte as the solver with a separate
    # stack per law width wrote it
    px, pk = _EXPONENT_LAWS[q]
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--q", str(q), "--px", px, "--pk", pk, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"exponents_q{q}.csv").read_bytes()


_PROBE_LINES = {  # the benchmark's converse-probe lines of parameter set 0
    2: ["--n", "4,8,12,16,20,24", "--rate", "0.529", "--px", "0.818,0.182"],
    3: ["--n", "3,6,9,12,15", "--rate", "0.9", "--px", "0.651,0.212,0.137"],
}


@pytest.mark.parametrize("q", sorted(_PROBE_LINES))
def test_converse_probe_matches_golden(tmp_path, q):
    # byte for byte as the probe that read p_X as numpy scalars wrote it
    out = tmp_path / "probe.csv"
    assert main(["converse-probe", "--q", str(q), *_PROBE_LINES[q], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"converse_probe_q{q}.csv").read_bytes()


def test_exponents_and_probe_enter_no_numpy_python_wrapper():
    # A cold process pays more for the first call of a numpy function
    # written in Python (np.stack, np.full, ndarray.sum, ...) than for its
    # C-level form, so
    # the solver, the law checks and the probe keep to ufuncs, C methods and
    # constructors.  The dispatchers of C functions in _core/multiarray.py
    # (np.concatenate, np.where, np.copyto, np.empty_like) stay allowed.
    import numpy as np

    root = Path(np.__file__).parent
    wrappers = tuple(
        [str(root / "_core" / name) for name in
         ("_methods.py", "fromnumeric.py", "numeric.py", "shape_base.py")]
        + [str(root / "lib") + os.sep]
    )
    entered = set()

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(wrappers):
            entered.add(f"{code.co_filename}:{code.co_name}")

    lines = [["exponents", "--q", str(q), "--px", px, "--pk", pk]
             for q, (px, pk) in sorted(_EXPONENT_LAWS.items())]
    lines += [["converse-probe", "--q", str(q), *rest] for q, rest in sorted(_PROBE_LINES.items())]
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        codes = [main([*argv, "--out", os.devnull]) for argv in lines]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(lines)
    assert sorted(entered) == []


def test_exponents_q11_match_golden_to_round_off(tmp_path):
    # eleven symbols: the columns are summed in order, where the golden's
    # solver used numpy's pairwise order, so the last digits may move
    out = tmp_path / "exp.csv"
    argv = ["exponents", "--q", "11",
            "--px", "0.3,0.15,0.1,0.1,0.08,0.07,0.06,0.05,0.04,0.03,0.02",
            "--pk", "0.14,0.12,0.11,0.1,0.1,0.09,0.09,0.08,0.07,0.06,0.04",
            "--rate", "0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25,2.5,2.75,3.0,"
                      "3.1,3.2,3.25,3.3,3.4,3.45,3.5",
            "--out", str(out)]
    assert main(argv) == 0
    got, want = _read_csv(str(out)), _read_csv(str(GOLDEN / "exponents_q11.csv"))
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.keys() == ref.keys()
        for key in row:
            if key in ("E", "F"):
                assert float(row[key]) == pytest.approx(float(ref[key]), rel=1e-12, abs=0.0)
            else:
                assert row[key] == ref[key]


@pytest.mark.parametrize("command", ["codebook", "verify"])
def test_plan_with_more_members_than_words_exits_2(capsys, command):
    # at R=0.9 binary n=4 has 10 members; m=3 holds 7 codewords
    assert main([command, "--q", "2", "--n", "4", "--rate", "0.9", "--m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 10 members")
    assert "2^3 - 1 usable words" in captured.err
    assert "--m" in captured.err and "--rate" in captured.err


def test_sweep_never_lists_members(tmp_path, monkeypatch):
    # binary n=20 has 120,920 members; the sweep encodes its samples by rank
    # arithmetic and must not list one of them
    def refuse(*args):
        raise AssertionError("a member was unranked on the sweep path")

    for module in ("typeclasses", "code"):
        monkeypatch.setattr(f"typecipher.{module}._walk_members", refuse)
    monkeypatch.setattr(Codebook, "members", refuse)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--n", "20", "--rate", "0.9", "--px", "0.82,0.18",
            "--pk", "0.62,0.38", "--samples", "1000", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert _read_csv(str(out))[0]["mi_flag"] == "estimate"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "2", "--n", "16", "--rate", "0.9", "--px", "0.82,0.18",
         "--pk", "0.62,0.38", "--samples", "1000", "--seed", "6"],
        ["exact-mi", "--q", "2", "--n", "15", "--rate", "0.9", "--px", "0.82,0.18",
         "--pk", "0.62,0.38", "--samples", "1000", "--seed", "6"],
    ],
    ids=["sweep", "exact-mi"],
)
def test_only_exact_mi_draws_bootstrap_replicates(tmp_path, monkeypatch, argv):
    # a sweep row prints the point estimate alone; exact-mi's Monte Carlo
    # fallback prints its standard error too.  Neither sampled path unranks
    # a member
    from typecipher.leakage import monte_carlo_mi

    calls = []

    def spy(*args, **kwargs):
        calls.append((kwargs, monte_carlo_mi(*args, **kwargs)))
        return calls[-1][1]

    def refuse(*args):
        raise AssertionError("a member was unranked on a sampled path")

    monkeypatch.setattr("typecipher.cli.monte_carlo_mi", spy)
    monkeypatch.setattr(Codebook, "members", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    ((kwargs, est),) = calls
    if argv[0] == "sweep":
        assert kwargs["bootstrap"] == 0 and est.std_error is None
        assert _read_csv(str(out))[0]["mi"] == repr(est.estimate)
    else:
        assert "bootstrap" not in kwargs
        payload = _read_json(out)
        assert math.isfinite(payload["std_error"]) and payload["std_error"] > 0
        assert payload["std_error"] == est.std_error


def test_verify_computes_divergences_once_per_attempt(tmp_path, monkeypatch):
    # every divergence computation, the search's and omega_divergences', runs
    # through cipher._omega
    from typecipher.cipher import _omega

    calls = []

    def counting(enc, plan):
        calls.append(enc)
        return _omega(enc, plan)

    monkeypatch.setattr("typecipher.cipher._omega", counting)
    out = tmp_path / "verify.json"
    argv = ["verify", "--q", "2", "--n", "6", "--rate", "0.9", "--px", "0.8,0.2",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    report = _read_json(out)
    assert report["encoder"]["derandomized"]
    assert len(calls) == report["encoder"]["attempts"]


def test_verify_computes_the_pad_law_once(tmp_path, monkeypatch):
    from typecipher.cipher import pad_law

    calls = []

    def counting(enc, p_K, spec):
        calls.append(enc)
        return pad_law(enc, p_K, spec)

    monkeypatch.setattr("typecipher.cipher.pad_law", counting)
    monkeypatch.setattr("typecipher.leakage.pad_law", counting)
    out = tmp_path / "verify.json"
    argv = ["verify", "--q", "2", "--n", "6", "--rate", "0.9", "--px", "0.8,0.2",
            "--pk", "0.6,0.4", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "exact-mi"])
def test_one_key_pass_per_report(monkeypatch, command):
    # the search's encoder has full rank, so it is scored in closed form with
    # no pass over the keys; the one key pass of the report is the pad law's,
    # over the r = n pivot columns of A; verify's decryption check reads the
    # q^2 digit table and no key.  The pass is one block of 81 keys, so one
    # table over the low digits and one over the blocks' leading digits, and
    # no pad comes from the sampled keys' kernel
    import typecipher.cipher as cipher_mod

    calls = {"_key_blocks": [], "_pad_table": 0, "_key_pads": 0, "_omega": 0}

    def counting(name):
        real = getattr(cipher_mod, name)

        def spy(*args):
            if name == "_key_blocks":
                calls[name].append(args[0].m)
            else:
                calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(f"typecipher.cipher.{name}", counting(name))
    argv = [command, "--q", "3", "--n", "4", "--rate", "1.2", "--px", "0.6,0.3,0.1",
            "--pk", "0.5,0.3,0.2", "--seed", "5", "--out", os.devnull]
    assert main(argv) == 0
    assert calls.pop("_omega") == 1
    assert calls == {"_key_blocks": [4], "_pad_table": 2, "_key_pads": 0}


@pytest.mark.parametrize("command", ["verify", "exact-mi"])
def test_plaintext_side_builds_no_sequence_law(monkeypatch, command):
    # the plaintext side is read from the types, so the one law over q^n
    # sequences a report builds is the key law of the pad
    import importlib

    from typecipher.typeclasses import sequence_probs

    calls = []

    def spy(p, n, spec):
        calls.append((tuple(p), n))
        return sequence_probs(p, n, spec)

    for name in ("typeclasses", "code", "cipher", "leakage", "cli"):
        module = importlib.import_module(f"typecipher.{name}")
        if hasattr(module, "sequence_probs"):
            monkeypatch.setattr(module, "sequence_probs", spy)
    argv = [command, "--q", "2", "--n", "7", "--rate", "0.9", "--px", "0.82,0.18",
            "--pk", "0.62,0.38", "--seed", "42", "--out", os.devnull]
    assert main(argv) == 0
    assert calls == [((0.62, 0.38), 7)]
    assert not hasattr(Codebook, "rank_of")


def test_sweep_at_a_large_alphabet_refuses_its_word_index(capsys):
    # (n+1)^(4q) no longer converts to a float at q=257, so the bounds come
    # from their log2; the canonical word then leaves int64 (before any
    # two-byte digit row is built).  From q=59 on the slack gamma_n alone
    # puts even n=1 at the least rate past int64, so the message names the
    # --m that only verify and exact-mi read, which does fit there; at q=53
    # n=1 fits
    assert main(["sweep", "--q", "257", "--n", "1", "--rate", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: index range 257^33 exceeds int64; sweep fits no --rate or --n at q=257; "
        "verify and exact-mi: give an explicit --m whose word space q^m fits\n"
    )
    assert main(["sweep", "--q", "59", "--n", "1", "--rate", "0.1"]) == 2
    assert "59^11 exceeds int64; sweep fits no --rate or --n" in capsys.readouterr().err
    assert main(["sweep", "--q", "53", "--n", "1", "--rate", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,")
    assert main(["verify", "--q", "257", "--n", "1", "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize("command", ["verify", "exact-mi", "sweep", "search-encoder"])
def test_negative_seed_exits_2(capsys, command):
    argv = [command, "--q", "2", "--n", "4", "--rate", "0.9", "--seed", "-1"]
    assert main(argv) == 2
    assert "expected non-negative integer" in capsys.readouterr().err


def test_sweep_past_the_word_space_cap_draws_each_encoder_once(tmp_path, monkeypatch):
    # the gate refuses before derandomize is called, so the only draw is the
    # sampled path's
    from typecipher.cipher import draw_encoder

    draws = []

    def counting(plan, seed):
        draws.append((plan.n, seed))
        return draw_encoder(plan, seed)

    monkeypatch.setattr("typecipher.cipher.draw_encoder", counting)
    monkeypatch.setattr("typecipher.cli.draw_encoder", counting)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "3", "--n", "9", "--rate", "1.2", "--px", "0.65,0.2,0.15",
            "--pk", "0.4,0.35,0.25", "--samples", "4000", "--seed", "2025"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_q3_n9.csv").read_bytes()
    assert len(draws) == 1 and draws[0][0] == 9


def test_sweep_is_exact_wherever_derandomize_finds_an_encoder(tmp_path, monkeypatch):
    # 2^26 (key, plaintext) pairs but 2^13 words: exact, with no second draw
    from typecipher.cipher import draw_encoder

    draws = {"cipher": [], "cli": []}

    def spy(where):
        def counting(plan, seed):
            draws[where].append(seed)
            return draw_encoder(plan, seed)
        return counting

    monkeypatch.setattr("typecipher.cipher.draw_encoder", spy("cipher"))
    monkeypatch.setattr("typecipher.cli.draw_encoder", spy("cli"))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--n", "13", "--rate", "0.3", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    (row,) = _read_csv(str(out))
    assert (row["mi"], row["mi_flag"]) == ("0.0", "exact")
    # derandomize draws each seed once; the CLI draws nothing of its own
    assert draws["cli"] == []
    assert len(set(draws["cipher"])) == len(draws["cipher"]) >= 1


def test_verify_past_q_to_the_2n_pairs_is_exact(tmp_path):
    out = tmp_path / "verify13.json"
    assert main(["verify", "--q", "2", "--n", "13", "--rate", "0.5", "--out", str(out)]) == 0
    report = _read_json(str(out))
    assert report["passed"] is True
    assert report["decryption_condition"] == {"holds": True, "checked": "exhaustive"}
    assert report["injective_on_members"] is True
    assert report["certificate"]["report"]["provenance"] == "exact"


def test_verify_checks_decryption_exhaustively_past_q_to_the_2n_pairs(tmp_path):
    # binary n=16, R=0.9: 2^32 (key, plaintext) pairs, settled by the 4
    # (pad digit, word digit) pairs
    out = tmp_path / "verify16.json"
    argv = ["verify", "--q", "2", "--n", "16", "--rate", "0.9", "--px", "0.9,0.1"]
    assert main(argv + ["--out", str(out)]) == 0
    report = _read_json(str(out))
    assert report["decryption_condition"] == {"holds": True, "checked": "exhaustive"}
    assert report["passed"] is True


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (["verify", "--q", "2", "--n", "4", "--rate", "0.9", "--pk", "1,0"], 0,
         '"pad_entropy_cap": 0.0'),
        (["exact-mi", "--q", "2", "--n", "4", "--rate", "0.9", "--pk", "1,0"], 0,
         '"h_pad": 0.0'),
        (["converse-probe", "--q", "2", "--n", "4", "--rate", "0.3", "--px", "1,0"], 2,
         "source entropy 0.000000"),
    ],
    ids=["verify", "exact-mi", "converse-probe"],
)
def test_point_mass_laws_print_no_negative_zero(capsys, argv, code, shown):
    # a point-mass law has entropy +0.0, so no entropy, and no figure
    # scaled from one, prints as -0.0
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "-0.0" not in captured.out + captured.err
    assert shown in captured.out + captured.err


def test_verify_past_the_word_space_cap_exits_2_before_checking(capsys, monkeypatch):
    checks = []
    monkeypatch.setattr(
        "typecipher.cli.check_decryption_condition", lambda sys_: checks.append(sys_)
    )
    # a uniform key needs no word cap, so the key law is not uniform
    assert main(["verify", "--q", "2", "--n", "5", "--m", "23", "--pk", "0.62,0.38"]) == 2
    err = capsys.readouterr().err
    assert "word space 2^23 (cap MAX_ENUM = 2^22)" in err and "exact-mi --samples N" in err
    assert checks == []


def test_exact_caps_cover_what_derandomize_checks(monkeypatch, capsys):
    # `verify` exits 2 exactly where `exact_refusal` refuses: whatever the
    # exact path builds past the gate (the key pass, the pad and coset rows,
    # the member list) fits the one cap, and the decryption check reads no
    # cap.  The cap is lowered to 2^10 so that every plan is small; a
    # uniform key reads no word cap, and keys only where m < n
    monkeypatch.setattr("typecipher.fields.MAX_ENUM", 1 << 10)
    spec = FieldSpec(2)
    seen = []
    for pk in (None, "0.62,0.38"):
        p_k = uniform(2) if pk is None else Distribution.from_text(pk)
        law = [] if pk is None else ["--pk", pk]
        for n, m in ((6, 8), (6, 10), (6, 11), (10, 10), (10, 12), (11, 9)):
            cb = build_codebook(explicit_m_plan(n, m, spec, R=0.9))
            refused = exact_refusal(cb, p_k) is not None
            argv = ["verify", "--q", "2", "--n", str(n), "--m", str(m), "--rate", "0.9", *law]
            assert (main(argv) == 2) is refused, (pk, n, m)
            assert ("cap MAX_ENUM = 2^10" in capsys.readouterr().err) is refused
            seen.append((pk, refused))
    assert set(seen) == {(None, False), (None, True), (pk, False), (pk, True)}


def test_explicit_m_plans_on_both_sides_of_the_word_space_cap(tmp_path, capsys):
    # binary n=8: m=22 is at the cap, exact, and its decryption condition is
    # checked exhaustively; m=23 exits 2 naming the word space, the cap and
    # the way out
    law = ["verify", "--q", "2", "--n", "8", "--px", "0.82,0.18", "--pk", "0.62,0.38",
           "--seed", "3"]
    out = tmp_path / "verify.json"
    assert main(law + ["--m", "22", "--out", str(out)]) == 0
    report = _read_json(out)
    assert report["passed"] and report["certificate"]["report"]["provenance"] == "exact"
    assert report["decryption_condition"] == {"holds": True, "checked": "exhaustive"}
    assert main(law + ["--m", "23"]) == 2
    assert capsys.readouterr().err == (
        "error: refusing to materialize word space 2^23 (cap MAX_ENUM = 2^22); past it "
        "`exact-mi --samples N` and `sweep` estimate the leakage\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--n", "7,8", "--rate", "0.9"], "verify takes one --n value, got 2"),
        (["exact-mi", "--n", "7,8", "--rate", "0.9"], "exact-mi takes one --n value"),
        (["codebook", "--n", "7,8", "--rate", "0.9"], "codebook takes one --n value"),
        (["search-encoder", "--n", "7,8", "--rate", "0.9"], "search-encoder takes one --n"),
        (["verify", "--n", "7", "--rate", "0.9,0.5"], "verify takes one --rate value"),
        (["sweep", "--n", "7", "--rate", "0.9,0.5"], "sweep takes one --rate value"),
        (["converse-probe", "--n", "4", "--rate", "0.3,0.4", "--px", "0.7,0.3"],
         "converse-probe takes one --rate value"),
        (["sweep", "--n", "7", "--rate", "0.9", "--m", "3"], "sweep takes no --m"),
        (["converse-probe", "--n", "4", "--rate", "0.3", "--px", "0.7,0.3", "--m", "5"],
         "converse-probe takes no --m"),
        (["converse-probe", "--n", "4", "--rate", "0.3", "--px", "0.7,0.3", "--pk", "0.5,0.5"],
         "converse-probe takes no --pk"),
        (["exponents", "--px", "0.8,0.2", "--n", "4"], "exponents takes no --n"),
        (["exponents", "--px", "0.8,0.2", "--m", "3"], "exponents takes no --m"),
        (["verify", "--n", "7x", "--rate", "0.9"], "invalid literal for int()"),
    ],
    ids=["verify-n", "exact-mi-n", "codebook-n", "search-encoder-n", "verify-rate",
         "sweep-rate", "converse-probe-rate", "sweep-m", "converse-probe-m",
         "converse-probe-pk", "exponents-n", "exponents-m", "malformed-n"],
)
def test_input_a_command_would_ignore_exits_2(capsys, argv, flag):
    # a list where the command reads one value, or a flag the command never
    # reads (--m where sweep plans its own words), is refused rather than cut
    # to its first value or dropped; so is a list entry that is not a number
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


_FINITE_RATE = "target rate must be positive and finite, got inf"
_PAST_2_53 = "at n=4 asks a word length past 2^53"
_INT64 = "exceeds int64"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["verify", "--rate", "inf"], _FINITE_RATE),
        (["sweep", "--rate", "inf"], _FINITE_RATE),
        (["codebook", "--rate", "inf"], _FINITE_RATE),
        (["verify", "--rate", "1e308"], _PAST_2_53),
        (["sweep", "--rate", "1e308"], _PAST_2_53),
        (["codebook", "--rate", "1e308"], _PAST_2_53),
        (["verify", "--rate", "1e300"], _PAST_2_53),
        (["verify", "--rate", "1e300", "--pk", "0.7,0.3"], _PAST_2_53),
        (["verify", "--m", "3000000000"], f"index range 2^3000000000 {_INT64}"),
        (["exact-mi", "--m", "3000000000"], f"index range 2^3000000000 {_INT64}"),
        (["verify", "--m", "64", "--pk", "0.7,0.3"], _INT64),
        (["exact-mi", "--m", "64", "--pk", "0.7,0.3", "--samples", "0"], _INT64),
        (["exact-mi", "--m", "1" + "0" * 400], "word length must be in [1, 2^53)"),
        (["sweep", "--rate", "1e6"], f"index range 2^4000006 {_INT64}"),
        (["sweep", "--q", "2", "--rate", "16"],
         f"index range 2^70 {_INT64}; give a lower --rate or a smaller --n\n"),
        (["sweep", "--q", "59", "--rate", "0.1"],
         f"index range 59^24 {_INT64}; sweep fits no --rate or --n at q=59; verify and "
         "exact-mi: give an explicit --m whose word space q^m fits\n"),
        (["sweep", "--q", "257", "--rate", "4"],
         f"index range 257^77 {_INT64}; sweep fits no --rate or --n at q=257; verify and "
         "exact-mi: give an explicit --m whose word space q^m fits\n"),
        (["verify", "--m", "70"],
         f"index range 2^70 {_INT64}; give an explicit --m whose word space q^m fits\n"),
        (["exponents", "--px", "0.5,nan"], "probabilities must be finite, got [0.5, nan]"),
        (["exponents", "--px", "nan,nan"], "probabilities must be finite, got [nan, nan]"),
        (["verify", "--rate", "0.9", "--gamma", "nan"], "gamma must be positive and finite, got nan"),
        (["verify", "--rate", "0.9", "--gamma", "inf"], "gamma must be positive and finite, got inf"),
        (["verify", "--rate", "0.9", "--px", "0.8,0.2", "--gamma", "300"],
         "gamma 300.0 at n=4: the peak cap 2^(n(gamma - H(X))) overflows"),
        (["verify", "--rate", "0.9", "--px", "0.8,0.2", "--gamma", "1e308"],
         "gamma 1e+308 at n=4: the peak cap"),
        (["converse-probe", "--rate", "-inf", "--px", "0.9,0.1"],
         "target rate must be positive and finite, got -inf"),
        (["converse-probe", "--rate", "-1", "--px", "0.9,0.1"],
         "target rate must be positive and finite, got -1.0"),
        (["converse-probe", "--rate", "nan", "--px", "0.9,0.1"],
         "target rate must be positive and finite, got nan"),
        (["search-encoder", "--rate", "1e12"], "encoder digits (cap MAX_ENUM = 2^22)"),
        (["search-encoder", "--m", "100000000000"],
         "refusing to materialize 4x100000000000 encoder digits (cap MAX_ENUM = 2^22)"),
        (["exponents", "--q", "0"], "modulus 0 is not prime"),
        (["exponents", "--q", "-1"], "modulus -1 is not prime"),
        (["exponents", "--q", "4"], "modulus 4 is not prime"),
    ],
    ids=["verify-inf", "sweep-inf", "codebook-inf", "verify-1e308", "sweep-1e308",
         "codebook-1e308", "verify-1e300", "verify-1e300-pk", "verify-m", "exact-mi-m", "verify-m64-pk",
         "exact-mi-m64-pk-samples0", "exact-mi-m-10^400",
         "sweep-1e6", "sweep-rate-16", "sweep-q59", "sweep-q257", "verify-m70", "exponents-nan", "exponents-nan-nan", "verify-gamma-nan", "verify-gamma-inf",
         "verify-gamma-300", "verify-gamma-1e308", "probe-rate-minus-inf", "probe-rate-minus-1",
         "probe-rate-nan",
         "search-encoder-1e12", "search-encoder-m",
         "exponents-q0", "exponents-q-1", "exponents-q4"],
)
def test_input_that_crashed_or_hung_exits_2_at_once(argv, shown):
    # a rate past 2^53 words loops in the float sandwich, a vast word length
    # builds q**m, leaves the floats or draws a vast encoder, and sampled
    # words need an int64 index: each is refused before any of that, as are
    # NaN laws, a gamma that is not finite or overflows the converse's peak
    # cap, a probe rate that is not positive and finite, and a modulus that
    # is not prime
    if argv[0] != "exponents":
        argv = [*argv, "--n", "4"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "typecipher.cli", *argv], capture_output=True,
        text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and shown in proc.stderr


@pytest.mark.parametrize("law", [[], ["--pk", "0.7,0.3"]], ids=["uniform", "skewed"])
def test_every_exact_or_sampled_command_checks_the_word_index_first(monkeypatch, capsys, law):
    # exact and sampled paths alike index the q^m words in int64, so under
    # either key law each command refuses m >= 64 with that reason, not a
    # cap's, before it builds the codebook or searches or draws an encoder
    def refuse(*args, **kwargs):
        raise AssertionError("built before the word index was checked")

    for name in ("build_codebook", "derandomize", "draw_encoder"):
        monkeypatch.setattr(f"typecipher.cli.{name}", refuse)
    for argv in (["verify", "--m", "64"], ["exact-mi", "--m", "64", "--samples", "0"],
                 ["exact-mi", "--m", "64", "--samples", "2000"], ["sweep", "--rate", "16"]):
        assert main([*argv, "--n", "4", *law]) == 2, argv
        assert _INT64 in capsys.readouterr().err, argv


_PROBE = ["--n", "4", "--rate", "0.3", "--px", "0.7,0.3"]
_PROBE_ROWS = "n,log2_size,error,provenance\n4,1,0.6570000000000001,exact\n"


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (["converse-probe", "--n=4", "--rate=0.3", "--px=0.7,0.3"], 0, _PROBE_ROWS),
        ([*_PROBE, "converse-probe"], 0, _PROBE_ROWS),
        (["converse-probe", "--n", "9", *_PROBE], 0, _PROBE_ROWS),
        (None, 0, _PROBE_ROWS),
        (["converse-probe", *_PROBE, "--n"], 2, "--n expects a value"),
        (["converse-probe", "--n", "--rate", "0.3", "--px", "0.7,0.3"], 2, "--n expects a value"),
        (["converse-probe", *_PROBE, "--q", "3.0"], 2,
         "--q: invalid literal for int() with base 10: '3.0'"),
        (["verify", "--n", "4", "--rate", "0.9", "--gamma", "x"], 2,
         "--gamma: could not convert string to float: 'x'"),
        (["converse-probe", *_PROBE, "--bogus", "1"], 2, "unknown flag --bogus"),
        (["sweep", "--n", "4", "--rate", "0.9", "--sam", "1000"], 2, "unknown flag --sam"),
        (["probe", *_PROBE], 2, "expected one command of: exponents codebook"),
        (_PROBE, 2, "got none"),
        (["-h"], 0, None),
        (["verify", "--n", "4", "--help"], 0, None),
    ],
    ids=["equals", "flags-first", "last-wins", "sys-argv", "missing-value", "flag-as-value",
         "bad-int", "bad-float", "unknown-flag", "abbreviated-flag", "unknown-command",
         "no-command", "h", "help"],
)
def test_command_line_reader(capsys, monkeypatch, argv, code, shown):
    # main() with no argv reads sys.argv[1:], as the console script calls it
    monkeypatch.setattr(sys, "argv", ["typecipher", "converse-probe", *_PROBE])
    assert (main() if argv is None else main(argv)) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and shown in captured.err
    elif shown is None:
        # the help page names every flag of the table
        assert captured.out.startswith("usage: typecipher COMMAND")
        assert all(f"  {flag} " in captured.out for flag in _FLAGS) and captured.err == ""
    else:
        assert (captured.out, captured.err) == (shown, "")


def test_each_command_on_both_sides_of_the_word_space_cap(tmp_path, capsys):
    # binary R=0.9: n=14 has 2^22 words, at MAX_ENUM; n=15 has 2^23.  The
    # cap holds for key laws that are not uniform
    spec = FieldSpec(2)
    assert 2 ** make_rate_plan(14, 0.9, spec).m == MAX_ENUM
    assert 2 ** make_rate_plan(15, 0.9, spec).m == 2 * MAX_ENUM
    plan = ["--q", "2", "--rate", "0.9", "--seed", "1"]
    law = [*plan, "--pk", "0.62,0.38"]
    out = tmp_path / "out"
    assert main(["sweep", "--n", "14,15", "--samples", "1000", *law, "--out", str(out)]) == 0
    assert [r["mi_flag"] for r in _read_csv(out)] == ["exact", "estimate"]
    for n, provenance in (("14", "exact"), ("15", "estimate")):
        argv = ["exact-mi", "--n", n, "--samples", "1000", *law, "--out", str(out)]
        assert main(argv) == 0
        payload = _read_json(out)
        assert payload["provenance"] == provenance
        assert payload["encoder"]["derandomized"] is (provenance == "exact")
        # the encoder search builds nothing over the words (and reads no
        # law), so it runs on both sides
        assert main(["search-encoder", "--n", n, *plan, "--out", str(out)]) == 0
        assert _read_json(out)["provenance"] == "exact"
    assert main(["verify", "--n", "14", *law, "--out", str(out)]) == 0
    assert _read_json(out)["certificate"]["report"]["provenance"] == "exact"
    for argv in (["verify", "--n", "15"], ["exact-mi", "--n", "15", "--samples", "0"]):
        assert main(argv + law) == 2
        assert "word space 2^23 (cap MAX_ENUM = 2^22)" in capsys.readouterr().err


def test_each_command_past_the_sequence_cap(tmp_path, capsys):
    # binary n=23: 2^23 sequences pass MAX_ENUM while the words fit
    law = ["--q", "2", "--n", "23", "--seed", "1"]
    out = tmp_path / "out"
    argv = ["sweep", "--rate", "0.3", "--samples", "1000", *law, "--out", str(out)]
    assert 2 ** make_rate_plan(23, 0.3, FieldSpec(2)).m <= MAX_ENUM
    assert main(argv) == 0
    assert [r["mi_flag"] for r in _read_csv(out)] == ["estimate"]
    argv = ["exact-mi", "--m", "5", "--samples", "1000", *law, "--out", str(out)]
    assert main(argv) == 0
    payload = _read_json(out)
    assert payload["provenance"] == "estimate" and payload["encoder"]["derandomized"] is False
    for argv in (["verify"], ["exact-mi", "--samples", "0"], ["search-encoder"]):
        assert main(argv + ["--m", "5", *law]) == 2
        assert "refusing to materialize 2^23 keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "plan, cap, built",
    [(["--n", "15", "--rate", "0.9", "--pk", "0.62,0.38"], "word space 2^23", ["build_codebook"]),
     (["--n", "23", "--m", "5"], "refusing to materialize 2^23 keys", [])],
    ids=["words", "sequences"],
)
def test_verify_past_either_cap_exits_2_before_building(capsys, monkeypatch, plan, cap, built):
    # the keys are refused from the plan alone; the rest of the gate reads
    # the codebook, built from the types alone.  No encoder is searched or
    # drawn
    calls = []
    for name in ("derandomize", "draw_encoder"):
        monkeypatch.setattr(f"typecipher.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    monkeypatch.setattr("typecipher.cli.build_codebook",
                        lambda plan: calls.append("build_codebook") or build_codebook(plan))
    assert main(["verify", "--q", "2", *plan]) == 2
    assert cap in capsys.readouterr().err
    assert calls == built


def test_keys_past_the_cap_refuse_before_the_codebook(capsys, monkeypatch):
    # where m < n the q^n keys are refused from the plan: binary n = 10^6
    # with m = 8 exits at once, where listing its types first took 40 s.
    # A sampled run needs the codebook at any n, so it still builds it
    def refuse(plan):
        raise AssertionError("built the codebook")

    monkeypatch.setattr("typecipher.cli.build_codebook", refuse)
    for command in (["verify"], ["exact-mi", "--samples", "0"]):
        start = time.perf_counter()
        assert main([*command, "--q", "2", "--n", "1000000", "--m", "8"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "refusing to materialize 2^1000000 keys (cap MAX_ENUM = 2^22)" in err
    with pytest.raises(AssertionError, match="built the codebook"):
        main(["exact-mi", "--q", "2", "--n", "23", "--m", "5", "--samples", "1000"])


def test_verify_with_few_words_for_many_keys_refuses_within_seconds(capsys):
    # binary n=20000 with m=8: the gate reads the codebook, whose 20,001
    # types are listed once; the default decode takes the error type with
    # the most 0s, where comparing each error type's sorted sequence took
    # about 25 s
    start = time.perf_counter()
    assert main(["verify", "--q", "2", "--n", "20000", "--m", "8"]) == 2
    assert "refusing to materialize 2^20000 keys" in capsys.readouterr().err
    cb = build_codebook(explicit_m_plan(20000, 8, FieldSpec(2)))
    assert cb.default_decode == (0,) * 19999 + (1,)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("q, rate, n_list", [(2, 0.9, "16,20"), (2, 0.9, "23"), (3, 1.2, "9")])
def test_uniform_key_sweep_is_exact_past_the_word_space_cap(tmp_path, q, rate, n_list):
    # q^m words past MAX_ENUM, but a uniform key builds no coset row, so
    # each row is H(J), under its ceiling (m - rank A) log2 q; at binary
    # n=23 the 2^23 keys pass the cap too, and the 781,313 codewords do not
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", str(q), "--n", n_list, "--rate", str(rate), "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == n_list.split(",")
    for row in rows:
        plan = make_rate_plan(int(row["n"]), rate, FieldSpec(q))
        assert q**plan.m > MAX_ENUM
        search = derandomize(plan, base_seed=numpy_sub_seed(3, plan.n))
        ceiling = (plan.m - len(search.reduced[1])) * math.log2(q)
        assert row["mi_flag"] == "exact" and 0.0 < float(row["mi"]) <= ceiling


def test_uniform_key_verify_at_binary_n16_within_budget(tmp_path):
    # 2^24 words; every figure from coset masses
    out = tmp_path / "verify.json"
    start = time.perf_counter()
    argv = ["verify", "--q", "2", "--n", "16", "--rate", "0.9", "--px", "0.82,0.18",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    elapsed = time.perf_counter() - start
    payload = _read_json(out)
    assert payload["passed"] and payload["certificate"]["report"]["provenance"] == "exact"
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("command", ["verify", "exact-mi"])
def test_uniform_key_reports_take_no_key_pass_and_no_transform(monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("called under a uniform key")

    for name in ("pad_law", "_digit_transform"):
        monkeypatch.setattr(f"typecipher.leakage.{name}", refuse)
    monkeypatch.setattr("typecipher.leakage._TransformLaws.pad", property(refuse))
    argv = [command, "--q", "2", "--n", "7", "--rate", "0.9", "--px", "0.82,0.18",
            "--out", os.devnull]
    assert main(argv) == 0
    # the spies are live: a key law that is not uniform reaches them
    with pytest.raises(AssertionError, match="uniform key"):
        main(argv + ["--pk", "0.62,0.38"])


def test_uniform_key_at_a_small_cap_is_exact_past_its_keys(monkeypatch, tmp_path, capsys):
    # at a cap of 2^10, uniform binary n=12 (R=0.9) has 4,096 keys past it
    # and 599 codewords in use within it: `verify`, `exact-mi` and `sweep`
    # are exact, and every mixture of the report matches the dense oracle.
    # The keys still refuse where m < n, and so do the codewords in use of
    # a uniform plan past the cap (binary n=13: 2,187)
    spec, p_x = FieldSpec(2), Distribution([0.82, 0.18])
    plan = make_rate_plan(12, 0.9, spec)
    cb = build_codebook(plan)
    assert cb.member_count + 1 == 599 and plan.m > plan.n
    monkeypatch.setattr("typecipher.fields.MAX_ENUM", 1 << 10)
    law = ["--q", "2", "--px", "0.82,0.18", "--seed", "3"]
    out = tmp_path / "out"
    exact = {
        "verify": lambda: _read_json(out)["certificate"]["report"]["provenance"],
        "exact-mi": lambda: _read_json(out)["provenance"],
        "sweep": lambda: _read_csv(out)[0]["mi_flag"],
    }
    for command, provenance in exact.items():
        assert main([command, "--n", "12", "--rate", "0.9", *law, "--out", str(out)]) == 0
        assert provenance() == "exact", command
    for argv, cap in ((["--n", "12", "--m", "8"], "2^12 keys"),
                      (["--n", "13", "--rate", "0.9"], "2187 codewords in use")):
        assert main(["verify", *argv, *law]) == 2
        assert f"refusing to materialize {cap} (cap MAX_ENUM = 2^10)" in capsys.readouterr().err
    search = derandomize(plan, base_seed=numpy_sub_seed(3, 1))
    sys_ = CipherSystem(cb, search.encoder)
    laws = exact_laws(sys_, p_x, uniform(2), search)
    floor = entropy(p_x) - 0.1 - 1e-12
    typical = {P for P in enumerate_types(12, spec) if -_log2_sequence_prob(P, p_x) / 12 >= floor}
    members = np.ones(cb.member_count + 1)
    members[0] = 0.0
    conditioned = laws.codeword_weights(typical)
    mixtures = laws.ciphertext, laws.mixture(members), laws.mixture(conditioned)
    # the oracles list the 2^12 keys and sequences, past the lowered cap
    monkeypatch.setattr("typecipher.fields.MAX_ENUM", 1 << 22)
    pad = pad_law(search.encoder, uniform(2), spec)
    for mix, weights in zip(mixtures, (oracles.codeword_weights(sys_, p_x), members, conditioned)):
        dense = np.zeros(2**plan.m)
        dense[: len(weights)] = weights
        want = oracles.transform_mixture(pad, dense, 2, plan.m)
        assert np.max(np.abs(oracles.dense_mixture(laws, mix) - want)) <= 1e-12
        assert abs(mix.max - want.max()) <= 1e-12
        assert abs(mix.entropy - entropy(want)) <= 1e-10 * max(1.0, entropy(want))


def test_uniform_key_sweep_row_at_binary_n22_stays_small():
    # no pad array over the 2^22 coordinates and no int64 copy of the
    # codeword digits: with both, this row's traced peak was 138.8 MB
    argv = ["sweep", "--q", "2", "--n", "22", "--rate", "0.9", "--px", "0.9,0.1",
            "--seed", "3", "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, peak


def test_sweep_reaches_word_length_63(tmp_path, capsys):
    # binary n=55 at R=0.9 has m=63: the largest word index, 2^63 - 1, fits
    # int64; n=56 (m=64) still stops where it does not
    assert make_rate_plan(55, 0.9, FieldSpec(2)).m == 63
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--rate", "0.9", "--samples", "1000", "--seed", "1"]
    assert main(argv + ["--n", "55", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == ["55"] and rows[0]["mi_flag"] == "estimate"
    assert main(argv + ["--n", "56"]) == 2
    assert "2^64 exceeds int64" in capsys.readouterr().err


def test_verify_leak_margins_match_exact_type_sums(tmp_path):
    # the typical set and the error set nearly cover the space here, so
    # 1 - nu_n - eps is 1e-14: the margins divide by it, and take it as the
    # typical members' mass less the atypical errors', with no difference of
    # numbers near 1; the law's decimals as exact rationals sum to 1, so
    # both forms agree there
    out = tmp_path / "verify.json"
    argv = ["verify", "--q", "2", "--n", "14", "--rate", "0.3", "--px", "0.9,0.1",
            "--pk", "0.6,0.4", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    d = _read_json(out)["converse"]
    n, spec, p_x = 14, FieldSpec(2), Distribution([0.9, 0.1])
    exact = [Fraction("0.9"), Fraction("0.1")]
    cb = build_codebook(make_rate_plan(n, 0.3, spec))
    floor = entropy(p_x) - d["gamma"] - 1e-12
    mass = {P: class_prob_fraction(P, exact) for P in enumerate_types(n, spec)}
    typical = {P for P in mass if -_log2_sequence_prob(P, p_x) / n >= floor}
    nu = sum(v for P, v in mass.items() if P not in typical)
    eps = sum(mass[P] for P in cb.error_types)
    shrink = sum(mass[P] for P in cb.member_types if P in typical) - sum(
        mass[P] for P in cb.error_types if P not in typical)
    assert shrink == 1 - nu - eps and 0 < shrink < 1e-13
    for key, numerator in (("leak_margin", eps), ("leak_margin_delta", d["measured_delta"])):
        want = (float(Fraction(numerator) / shrink) + math.log2(1 / shrink)) / n
        assert abs(d[key] - want) <= 1e-12 * want, key


def test_degenerate_converse_writes_null_not_infinity(tmp_path):
    # shrink <= 0 makes the margins infinite; the report stays strict JSON
    out = tmp_path / "verify.json"
    argv = ["verify", "--q", "2", "--n", "3", "--rate", "0.9", "--px", "0.6,0.4",
            "--gamma", "0.01", "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text(encoding="utf-8")

    def refuse(constant):
        raise AssertionError(f"{constant} in the report")

    d = json.loads(text, parse_constant=refuse)["converse"]
    for key in ("leak_margin", "leak_margin_delta", "key_rate_display_rhs", "key_rate_proof_rhs"):
        assert d[key] is None, key


def test_converse_probe_csv(tmp_path):
    out = tmp_path / "probe.csv"
    argv = [
        "converse-probe", "--px", "0.7,0.3", "--rate", "0.6",
        "--n", "4,8,12", "--out", str(out),
    ]
    assert main(argv) == 0
    rows = _read_csv(str(out))
    errors = [float(r["error"]) for r in rows]
    assert errors == sorted(errors)
    assert all(r["provenance"] == "exact" for r in rows)


def test_malformed_distribution_exits_2(capsys):
    assert main(["verify", "--n", "4", "--rate", "0.9", "--px", "0.9,0.2"]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_missing_plan_inputs_exit_2(capsys):
    assert main(["codebook", "--rate", "0.9"]) == 2
    assert main(["codebook", "--n", "4"]) == 2
    capsys.readouterr()


def test_converse_probe_checks_px_against_q(capsys):
    argv = ["converse-probe", "--q", "3", "--px", "0.7,0.3", "--rate", "0.6", "--n", "4"]
    assert main(argv) == 2
    assert "--px has 2 entries but q=3" in capsys.readouterr().err


def test_rate_at_entropy_probe_exits_2(capsys):
    assert main(["converse-probe", "--px", "0.5,0.5", "--rate", "1.0", "--n", "4"]) == 2
    capsys.readouterr()


def test_sweep_past_the_member_list_cap(tmp_path, capsys):
    # the sweep ranks members by arithmetic, so its 5,067,975 codewords in
    # use past MAX_ENUM run sampled under a uniform key; binary n=64 still
    # stops cleanly where word indices leave int64
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--rate", "0.9", "--samples", "1000", "--seed", "1"]
    assert build_codebook(make_rate_plan(26, 0.9, FieldSpec(2))).member_count + 1 > MAX_ENUM
    assert main(argv + ["--n", "26", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert [r["n"] for r in rows] == ["26"] and rows[0]["mi_flag"] == "estimate"
    assert main(argv + ["--n", "64"]) == 2
    assert "int64" in capsys.readouterr().err


def test_cold_verify_imports_neither_fft_nor_masked_arrays():
    assert _run_cold(_COLD_VERIFY) == "[]"


def test_cold_exact_commands_do_not_import_numpy_random():
    # the encoder and sub-seed draws copy numpy's stream in Python; importing
    # numpy.random at module level would only move its cost to start-up
    assert _run_cold(_COLD_EXACT) == "False"


def test_cold_sampled_commands_do_not_import_numpy_random():
    # the Monte Carlo draws read the same copied stream (`cipher._PCG64`),
    # and grouping sampled rows by type loads no numpy.ma either
    assert _run_cold(_COLD_SAMPLED) == "False False"


def test_cold_import_loads_neither_fractions_nor_decimal():
    # type laws divide their integer counts as floats, the same doubles a
    # Fraction converts to
    # and the flags are read from a table, so no invocation builds an
    # argparse parser or imports locale for its messages; the records are
    # plain classes, so no import generates dataclass methods
    assert _run_cold(_COLD_IMPORT) == "[] [] []"


def test_sweep_solves_both_exponents_in_one_stack(monkeypatch):
    # E(R|p_X) and F(R|p_K) are the same for every n of a sweep: one stacked
    # bisection gives both
    from typecipher import exponents

    calls = []
    tilted = exponents._tilted

    def counting(rates, requests, argmins):
        calls.append([kind.__name__ for kind, _ in requests])
        return tilted(rates, requests, argmins)

    monkeypatch.setattr(exponents, "_tilted", counting)
    argv = ["sweep", "--q", "2", "--n", "16,20", "--rate", "0.9", "--px", "0.82,0.18",
            "--pk", "0.62,0.38", "--samples", "1000", "--out", os.devnull]
    assert main(argv) == 0
    assert calls == [["_TiltedE", "_TiltedF"]]
