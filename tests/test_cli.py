"""Command-line surface: outputs, exit codes, determinism."""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from typecipher.cipher import CipherSystem, derandomize
from typecipher.cli import main
from typecipher.code import build_codebook, make_rate_plan
from typecipher.fields import FieldSpec
from typecipher.leakage import exact_laws, exact_mutual_info
from typecipher.simplex import Distribution, uniform

GOLDEN = Path(__file__).parent / "golden"


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
    import numpy as np

    sub = int(np.random.SeedSequence([3, 1]).generate_state(1)[0])
    search = derandomize(plan, base_seed=sub)
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
            # 2^26 pairs: exact-mi refuses and falls back to Monte Carlo
            "exact_mi_q2_n13_mc.json",
            ["exact-mi", "--q", "2", "--n", "13", "--rate", "0.9", "--px", "0.82,0.18",
             "--pk", "0.62,0.38", "--samples", "2000", "--seed", "2026"],
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
    def refuse(P):
        raise AssertionError("class_members called on the sweep path")

    for module in ("typeclasses", "code"):
        monkeypatch.setattr(f"typecipher.{module}.class_members", refuse)
    built = []

    def recording_build(plan):
        built.append(build_codebook(plan))
        return built[-1]

    monkeypatch.setattr("typecipher.cli.build_codebook", recording_build)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--n", "20", "--rate", "0.9", "--px", "0.82,0.18",
            "--pk", "0.62,0.38", "--samples", "1000", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert _read_csv(str(out))[0]["mi_flag"] == "estimate"
    (cb,) = built
    assert "member_idx" not in vars(cb) and "rank_of" not in vars(cb)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "2", "--n", "16", "--rate", "0.9", "--px", "0.82,0.18",
         "--pk", "0.62,0.38", "--samples", "1000", "--seed", "6"],
        ["exact-mi", "--q", "2", "--n", "13", "--rate", "0.9", "--px", "0.82,0.18",
         "--pk", "0.62,0.38", "--samples", "1000", "--seed", "6"],
    ],
    ids=["sweep", "exact-mi"],
)
def test_only_exact_mi_draws_bootstrap_replicates(tmp_path, monkeypatch, argv):
    # a sweep row prints the point estimate alone; exact-mi's Monte Carlo
    # fallback prints its standard error too
    from typecipher.leakage import monte_carlo_mi

    calls = []

    def spy(*args, **kwargs):
        calls.append((kwargs, monte_carlo_mi(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr("typecipher.cli.monte_carlo_mi", spy)
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
    from typecipher.cipher import omega_divergences

    calls = []

    def counting(enc, plan):
        calls.append(enc)
        return omega_divergences(enc, plan)

    monkeypatch.setattr("typecipher.cipher.omega_divergences", counting)
    monkeypatch.setattr("typecipher.leakage.omega_divergences", counting)
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
    # the sweep ranks members by arithmetic, so q^n past MAX_MEMBERS runs;
    # binary n=64 still stops cleanly where word indices leave int64
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--q", "2", "--rate", "0.9", "--samples", "1000", "--seed", "1"]
    assert main(argv + ["--n", "23", "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert [r["n"] for r in rows] == ["23"] and rows[0]["mi_flag"] == "estimate"
    assert main(argv + ["--n", "64"]) == 2
    assert "int64" in capsys.readouterr().err
