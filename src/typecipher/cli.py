"""Command-line front end: build systems, run sweeps, emit reports.

Sweeps and curves go to CSV, structured reports to JSON.  Identical
configuration and seed produce byte-identical output; every number carries a
provenance flag (exact / bound / estimate).  All randomness descends from
--seed: each component draws from its own sub-seed, SeedSequence([seed, key])
hashed to one 32-bit word by `cipher.seed_state`.  The encoder draw and the
Monte Carlo samples then read numpy's PCG64 stream as `cipher._PCG64`
computes it, so the output does not depend on the installed numpy's random
module, which no command imports.

Flags are read from one table, `_FLAGS`, with the commands that read each:
a command given another flag exits 2, as does an abbreviated flag name, and
`--help` prints the table.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

from .cipher import (
    CipherSystem,
    check_decryption_condition,
    derandomize,
    draw_encoder,
    encoder_to_json,
    injective_on_members,
    seed_state,
)
from .code import (
    build_codebook,
    codebook_to_json,
    exact_error_prob,
    explicit_m_plan,
    make_rate_plan,
)
from .exponents import exponent_pair, positivity_region
from .fields import FieldError, FieldSpec, _check_index_range, _power
from .leakage import (
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    exact_refusal,
    monte_carlo_mi,
    scaled_power,
    security_bound,
    security_certificate,
    strong_converse_probe,
)
from .simplex import Distribution, uniform

DEFAULT_RATE_GRID = [round(0.05 * i, 10) for i in range(1, 31)]


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


def _finite(obj):
    """`obj` with each float that is not finite as None, which JSON writes null."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json_text(obj) -> str:
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    return seed_state([seed, *key], 1)[0]


def _one(values: list, flag: str, command: str, required: bool = False):
    """The single value of a flag that `command` reads once, None if absent
    (refused if `required`); a list is refused rather than cut to its first
    value."""
    if len(values) > 1:
        raise FieldError(f"{command} takes one {flag} value, got {len(values)}")
    if required and not values:
        raise FieldError(f"{flag} is required for {command}")
    return values[0] if values else None


def _plan(args, spec: FieldSpec):
    n = _one(args.n_list, "--n", args.command, required=True)
    rate = _one(args.rate_list, "--rate", args.command)
    if args.m is not None:
        return explicit_m_plan(n, args.m, spec, R=rate)
    if rate is None:
        raise FieldError("either --rate or --m is required")
    return make_rate_plan(n, rate, spec)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


# The way out `verify` and `exact-mi` name when their q**m words leave an
# int64 index; `sweep`, which plans its own words, names its own.
_EXPLICIT_M = "give an explicit --m whose word space q^m fits"


def _system(plan, p_x: Distribution, p_k: Distribution, seed: int, sampled: bool, way_out: str):
    """The cipher system of `plan` and its `ExactLaws`, None past the exact
    path's caps: the one gate of `verify`, `sweep` and `exact-mi`.  First
    the q**m words must have an int64 index, which both paths need whatever
    the key law (else the command's `way_out` ends the refusal); then
    `exact_refusal`'s refusal is raised unless `sampled`; nothing is built
    before either.  Within the caps the encoder is the one `derandomize`
    finds from `seed`; past them it is drawn at `seed`.
    """
    _check_index_range(plan.m, plan.spec, way_out)
    refusal = exact_refusal(plan, p_k)
    if refusal is not None and not sampled:
        raise refusal
    cb = build_codebook(plan)
    if refusal is not None:
        return CipherSystem(codebook=cb, key_encoder=draw_encoder(plan, seed)), None
    search = derandomize(plan, base_seed=seed)
    sys_ = CipherSystem(codebook=cb, key_encoder=search.encoder)
    return sys_, exact_laws(sys_, p_x, p_k, search)


def cmd_exponents(args) -> int:
    q = FieldSpec(args.q).q
    p_x = _dist_or_uniform(args.px, q, "--px")
    p_k = _dist_or_uniform(args.pk, q, "--pk")
    grid = args.rate_list if args.rate_list else DEFAULT_RATE_GRID
    rows = [
        [r["R"], r["E"], r["F"], int(r["E_positive"]), int(r["F_positive"]), "exact"]
        for r in positivity_region(p_x, p_k, grid)
    ]
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


def cmd_verify(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    p_x = _dist_or_uniform(args.px, args.q, "--px")
    p_k = _dist_or_uniform(args.pk, args.q, "--pk")
    sys_, laws = _system(plan, p_x, p_k, _sub_seed(args.seed, 1), False, _EXPLICIT_M)
    search = laws.search

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
        "encoder": {
            **encoder_to_json(search.encoder, spec), "derandomized": True,
            "score": search.score, "type_count": search.type_count,
            "attempts": search.attempts,
        },
    }

    inj = injective_on_members(sys_)
    report["injective_on_members"] = inj
    ok = check_decryption_condition(sys_)
    # exhaustive over the q^2 digit pairs, which settle every key and plaintext
    report["decryption_condition"] = {"holds": ok, "checked": "exhaustive"}
    gating = [inj, ok]

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
    R = _one(args.rate_list, "--rate", "sweep", required=True)
    if not args.n_list:
        raise FieldError("--n (comma list allowed) is required for sweep")
    (e_res,), (f_res,) = exponent_pair(p_x, p_k, [R])
    e_val, f_val = e_res.rounded_down(), f_res.rounded_down()
    # the slack gamma_n alone carries q log2(n+1) bits: from q=59 on even n=1
    # at the least rate has words past int64, so no --rate or --n fits
    least = make_rate_plan(1, sys.float_info.min, spec).m
    way_out = "give a lower --rate or a smaller --n"
    if _power(spec.q, least, 64) > 2**63:
        way_out = f"sweep fits no --rate or --n at q={spec.q}; verify and exact-mi: {_EXPLICIT_M}"
    rows = []
    for n in args.n_list:
        plan = make_rate_plan(n, R, spec)
        seed = _sub_seed(args.seed, n)
        sys_, laws = _system(plan, p_x, p_k, seed, True, way_out)
        if laws is not None:
            mi_value, mi_flag = laws.mi, "exact"
        else:
            # the row prints no standard error, so no bootstrap replicate is drawn
            est = monte_carlo_mi(sys_, p_x, p_k, max(args.samples, 1000), seed, bootstrap=0)
            mi_value, mi_flag = est.estimate, "estimate"
        p_e = exact_error_prob(sys_.codebook, p_x)
        err_bound = scaled_power(1.0, n + 1, spec.q, -n * e_val)
        sec_bound = security_bound(plan, f_val)
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


def cmd_exact_mi(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    p_x = _dist_or_uniform(args.px, args.q, "--px")
    p_k = _dist_or_uniform(args.pk, args.q, "--pk")
    sys_, laws = _system(plan, p_x, p_k, _sub_seed(args.seed, 1), args.samples > 0, _EXPLICIT_M)
    if laws is not None:
        payload = exact_mutual_info(laws).to_json()
    else:
        samples = max(args.samples, 1000)
        payload = monte_carlo_mi(sys_, p_x, p_k, samples, _sub_seed(args.seed, 2)).to_json()
    payload["encoder"] = encoder_to_json(sys_.key_encoder, spec)
    payload["encoder"]["derandomized"] = laws is not None
    _write_text(_json_text(payload), args.out)
    return 0


def cmd_search_encoder(args) -> int:
    spec = FieldSpec(args.q)
    plan = _plan(args, spec)
    result = derandomize(plan, base_seed=args.seed)
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
    rate = _one(args.rate_list, "--rate", "converse-probe", required=True)
    if not args.n_list:
        raise FieldError("--n (comma list allowed) is required for converse-probe")
    rows = [
        [r["n"], r["log2_size"], r["error"], "exact"]
        for r in strong_converse_probe(p_x, rate, args.n_list)
    ]
    _write_text(_csv(["n", "log2_size", "error", "provenance"], rows), args.out)
    return 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


_COMMANDS = {
    "exponents": cmd_exponents,
    "codebook": cmd_codebook,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "exact-mi": cmd_exact_mi,
    "search-encoder": cmd_search_encoder,
    "converse-probe": cmd_converse_probe,
}

_ALL = " ".join(_COMMANDS)
_PLAN, _LAWS = "codebook verify exact-mi search-encoder", "exponents verify sweep exact-mi"
_HELP = ("-h", "--help")

# flag -> (attribute, converter, default, help, the commands that read it)
_FLAGS = {
    "--n": ("n_list", _int_list, (), "block length (or comma list)", f"{_PLAN} sweep converse-probe"),
    "--rate": ("rate_list", _float_list, (), "target rate R in bits (or comma list)", _ALL),
    "--m": ("m", int, None, "explicit word length (non-canonical plan)", _PLAN),
    "--q": ("q", int, 2, "prime alphabet size", _ALL),
    "--px": ("px", str, None, "plaintext law, comma-separated decimals", f"{_LAWS} converse-probe"),
    "--pk": ("pk", str, None, "key law, comma-separated decimals", _LAWS),
    "--seed": ("seed", int, 0, "master seed", "verify sweep exact-mi search-encoder"),
    "--samples": ("samples", int, 5000, "Monte Carlo sample count", "sweep exact-mi"),
    "--gamma": ("gamma", float, 0.1, "typicality slack for converse diagnostics", "verify"),
    "--out": ("out", str, None, "output path (default stdout)", _ALL),
}


def _read(argv):
    """The namespace `main` reads from `argv`, None if it asks for help.  A
    flag's value is the next word or follows `=`; flags may precede the
    command, and the last of a repeated flag wins."""
    given, commands, words = {}, [], iter(argv)
    for word in words:
        if word in _HELP:
            return None
        flag, eq, text = word.partition("=")
        if not word.startswith("-"):
            commands.append(word)
        elif flag not in _FLAGS:
            raise FieldError(f"unknown flag {flag} (see --help)")
        else:
            text = text if eq else next(words, None)
            if text is None or text in _FLAGS or text in _HELP:
                raise FieldError(f"{flag} expects a value")
            given[flag] = text
    if len(commands) != 1 or commands[0] not in _COMMANDS:
        raise FieldError(f"expected one command of: {_ALL}; got {' '.join(commands) or 'none'}")
    args = SimpleNamespace(command=commands[0])
    for flag, (name, convert, default, _, readers) in _FLAGS.items():
        if flag in given and args.command not in readers.split():
            raise FieldError(f"{args.command} takes no {flag}")
        try:
            setattr(args, name, convert(given[flag]) if flag in given else default)
        except ValueError as exc:
            raise FieldError(f"{flag}: {exc}") from exc
    return args


def _help() -> int:
    lines = ["usage: typecipher COMMAND [--flag VALUE | --flag=VALUE ...]",
             "Type-class source coding with an affine one-time pad: exponents, codebooks,",
             "leakage bounds and converse probes.", f"commands: {_ALL}",
             "flags (full names only; a command refuses a flag it does not read):"]
    for flag, (_, _, default, text, readers) in _FLAGS.items():
        shown = "" if default in (None, ()) else f" (default {default})"
        lines += [f"  {flag:<11}{text}{shown}", f"{'':13}read by: {readers}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> SimpleNamespace:
    """An object whose `parse_args(argv)` gives the namespace `main` reads."""
    return SimpleNamespace(parse_args=_read)


def main(argv=None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
        return _help() if args is None else _COMMANDS[args.command](args)
    except (FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
