"""Command-line front end: build systems, run sweeps, emit reports.

Sweeps and curves go to CSV, structured reports to JSON.  Identical
configuration and seed produce byte-identical output; every number carries a
provenance flag (exact / bound / estimate).  All randomness descends from
--seed through per-component SeedSequence spawns.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cipher import (
    CipherSystem,
    check_decryption_condition,
    derandomize,
    draw_encoder,
    encoder_to_json,
    injective_on_members,
)
from .code import (
    build_codebook,
    codebook_to_json,
    exact_error_prob,
    explicit_m_plan,
    make_rate_plan,
)
from .exponents import exponent_E, exponent_F, positivity_region
from .fields import FieldError, FieldSpec
from .leakage import (
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    monte_carlo_mi,
    security_bound,
    security_certificate,
    strong_converse_probe,
)
from .simplex import Distribution, uniform

DEFAULT_RATE_GRID = [round(0.05 * i, 10) for i in range(1, 31)]
# The exhaustive decryption check covers q**(2n) (key, plaintext) pairs in
# one array pass per key: binary n <= 10, ternary n <= 6.
CONDITION_CHECK_CAP = 1 << 20


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_dist(text: str, q: int, name: str) -> Distribution:
    try:
        d = Distribution.from_text(text)
    except (ValueError, FieldError) as exc:
        raise FieldError(f"bad {name} distribution {text!r}: {exc}") from exc
    if len(d) != q:
        raise FieldError(f"{name} has {len(d)} entries but q={q}")
    return d


def _dist_or_uniform(text: str | None, q: int, name: str) -> Distribution:
    if text is None:
        return uniform(q)
    return _parse_dist(text, q, name)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _plan(args, spec: FieldSpec):
    if args.n is None:
        raise FieldError("--n is required")
    if args.m is not None:
        return explicit_m_plan(args.n, args.m, spec, R=args.rate_scalar)
    if args.rate_scalar is None:
        raise FieldError("either --rate or --m is required")
    return make_rate_plan(args.n, args.rate_scalar, spec)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_exponents(args) -> int:
    q = args.q
    p_x = _dist_or_uniform(args.px, q, "--px")
    p_k = _dist_or_uniform(args.pk, q, "--pk")
    grid = args.rate_list if args.rate_list else DEFAULT_RATE_GRID
    rows = []
    for entry in positivity_region(p_x, p_k, grid):
        rows.append(
            [
                entry["R"],
                entry["E"],
                entry["F"],
                int(entry["E_positive"]),
                int(entry["F_positive"]),
                "exact",
            ]
        )
    _write_text(
        _csv(["R", "E", "F", "E_positive", "F_positive", "provenance"], rows),
        args.out,
    )
    return 0


def cmd_codebook(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    cb = build_codebook(plan)
    include = cb.member_count <= 4096
    payload = codebook_to_json(cb, include_members=include)
    payload["provenance"] = "exact"
    _write_text(_json_text(payload), args.out)
    return 0


def _build_system(plan, seed: int, cb):
    """The system with the encoder `derandomize` finds from `seed`, and its
    search result; past the word-space cap, the encoder drawn at `seed` and
    no search."""
    try:
        result = derandomize(plan, max_attempts=1000, base_seed=seed)
        enc, search = result.encoder, result
    except FieldError:
        enc, search = draw_encoder(plan, seed), None
    return CipherSystem(codebook=cb, key_encoder=enc), search


def cmd_verify(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    p_x = _dist_or_uniform(args.px, args.q, "--px")
    p_k = _dist_or_uniform(args.pk, args.q, "--pk")
    sys_, search = _build_system(plan, _sub_seed(args.seed, 1), build_codebook(plan))

    report: dict = {
        "config": {
            "n": plan.n,
            "q": plan.q,
            "R": plan.R,
            "m": plan.m,
            "canonical": plan.canonical,
            "p_X": p_x.to_text(),
            "p_K": p_k.to_text(),
            "seed": args.seed,
            "gamma": args.gamma,
        },
        "encoder": encoder_to_json(sys_.key_encoder, spec),
    }
    report["encoder"]["derandomized"] = search is not None
    if search is not None:
        report["encoder"]["score"] = search.score
        report["encoder"]["type_count"] = search.type_count
        report["encoder"]["attempts"] = search.attempts

    gating: list[bool] = []
    if spec.q ** (2 * plan.n) <= CONDITION_CHECK_CAP:
        ok = check_decryption_condition(sys_)
        report["decryption_condition"] = {"holds": ok, "checked": "exhaustive"}
        gating.append(ok)
        inj = injective_on_members(sys_)
        report["injective_on_members"] = inj
        gating.append(inj)
    else:
        report["decryption_condition"] = {"holds": None, "checked": "skipped"}

    laws = exact_laws(sys_, p_x, p_k, search)
    cert = security_certificate(laws)
    report["certificate"] = cert.to_json()
    max_row = check_birkhoff(laws)
    row_ok = max_row <= 1.0 + 1e-12
    report["row_sums"] = {"max": max_row, "holds": row_ok}
    diag = converse_diagnostics(laws, gamma=args.gamma)
    report["converse"] = diag.to_json()

    gating.extend([cert.passed, row_ok, diag.passed])
    report["passed"] = all(gating)
    _write_text(_json_text(report), args.out)
    return 0 if report["passed"] else 1


def cmd_sweep(args) -> int:
    spec = FieldSpec(args.q)
    p_x = _dist_or_uniform(args.px, args.q, "--px")
    p_k = _dist_or_uniform(args.pk, args.q, "--pk")
    if args.rate_scalar is None:
        raise FieldError("--rate is required for sweep")
    if not args.n_list:
        raise FieldError("--n (comma list allowed) is required for sweep")
    R = args.rate_scalar
    e_val = exponent_E(R, p_x).rounded_down()
    f_res = exponent_F(R, p_k)
    rows = []
    for n in args.n_list:
        plan = make_rate_plan(n, R, spec)
        seed = _sub_seed(args.seed, n)
        sys_, search = _build_system(plan, seed, build_codebook(plan))
        p_e = exact_error_prob(sys_.codebook, p_x)
        err_bound = (n + 1) ** spec.q * 2.0 ** (-n * e_val)
        sec_bound = security_bound(plan, f_res.rounded_down())
        mi_value, mi_flag = _sweep_mi(sys_, search, p_x, p_k, seed, args.samples)
        rows.append(
            [
                n,
                (plan.m / n) * math.log2(spec.q),
                p_e,
                "exact",
                err_bound,
                "bound",
                mi_value,
                mi_flag,
                sec_bound,
                "bound",
            ]
        )
    _write_text(
        _csv(
            [
                "n",
                "rate",
                "p_e_exact",
                "p_e_flag",
                "err_bound",
                "err_bound_flag",
                "mi",
                "mi_flag",
                "sec_bound",
                "sec_bound_flag",
            ],
            rows,
        ),
        args.out,
    )
    return 0


def _sweep_mi(sys_, search, p_x, p_k, seed: int, samples: int) -> tuple[float, str]:
    """Exact MI of a derandomized system within the pair cap; otherwise the
    Monte Carlo point estimate with the encoder drawn at `seed`.  The row
    prints no standard error, so no bootstrap replicate is drawn."""
    if search is not None:
        try:
            laws = exact_laws(sys_, p_x, p_k, search)
            return exact_mutual_info(laws).mi_exact, "exact"
        except FieldError:
            enc = draw_encoder(sys_.plan, seed)
            sys_ = CipherSystem(codebook=sys_.codebook, key_encoder=enc)
    est = monte_carlo_mi(sys_, p_x, p_k, samples=max(samples, 1000), seed=seed, bootstrap=0)
    return est.estimate, "estimate"


def cmd_exact_mi(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    p_x = _dist_or_uniform(args.px, args.q, "--px")
    p_k = _dist_or_uniform(args.pk, args.q, "--pk")
    sys_, search = _build_system(plan, _sub_seed(args.seed, 1), build_codebook(plan))
    try:
        payload = exact_mutual_info(exact_laws(sys_, p_x, p_k, search)).to_json()
    except FieldError:
        if args.samples <= 0:
            raise
        est = monte_carlo_mi(
            sys_, p_x, p_k, samples=max(args.samples, 1000),
            seed=_sub_seed(args.seed, 2),
        )
        payload = est.to_json()
    payload["encoder"] = encoder_to_json(sys_.key_encoder, spec)
    payload["encoder"]["derandomized"] = search is not None
    _write_text(_json_text(payload), args.out)
    return 0


def cmd_search_encoder(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    result = derandomize(plan, max_attempts=1000, base_seed=args.seed)
    payload = {
        "seed": result.seed,
        "score": result.score,
        "attempts": result.attempts,
        "type_count": result.type_count,
        "encoder": encoder_to_json(result.encoder, spec),
        "provenance": "exact",
    }
    _write_text(_json_text(payload), args.out)
    return 0


def cmd_converse_probe(args) -> int:
    if args.px is None:
        raise FieldError("--px is required for converse-probe")
    p_x = _parse_dist(args.px, args.q, "--px")
    if args.rate_scalar is None:
        raise FieldError("--rate is required for converse-probe")
    if not args.n_list:
        raise FieldError("--n (comma list allowed) is required for converse-probe")
    rows = [
        [r["n"], r["log2_size"], r["error"], "exact"]
        for r in strong_converse_probe(p_x, args.rate_scalar, args.n_list)
    ]
    _write_text(_csv(["n", "log2_size", "error", "provenance"], rows), args.out)
    return 0


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=str, default=None, help="block length (or comma list)")
    sub.add_argument("--rate", type=str, default=None, help="target rate R in bits (or comma list)")
    sub.add_argument("--m", type=int, default=None, help="explicit word length (non-canonical plan)")
    sub.add_argument("--q", type=int, default=2, help="prime alphabet size")
    sub.add_argument("--px", type=str, default=None, help="plaintext law, comma-separated decimals")
    sub.add_argument("--pk", type=str, default=None, help="key law, comma-separated decimals")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--samples", type=int, default=5000, help="Monte Carlo sample count")
    sub.add_argument("--gamma", type=float, default=0.1, help="typicality slack for converse diagnostics")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def _normalize(args) -> None:
    args.n_list = _int_list(args.n) if args.n else []
    args.n = args.n_list[0] if args.n_list else None
    args.rate_list = _float_list(args.rate) if args.rate else []
    args.rate_scalar = args.rate_list[0] if args.rate_list else None


_COMMANDS = {
    "exponents": cmd_exponents,
    "codebook": cmd_codebook,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "exact-mi": cmd_exact_mi,
    "search-encoder": cmd_search_encoder,
    "converse-probe": cmd_converse_probe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typecipher",
        description="Type-class source coding with an affine one-time pad: "
        "exponents, codebooks, leakage bounds, and converse probes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(subs.add_parser(name))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _normalize(args)
    try:
        return _COMMANDS[args.command](args)
    except (FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
