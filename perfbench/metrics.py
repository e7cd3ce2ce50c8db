"""Metric definitions, the layer-to-workload map, and the traced figures.

`END_TO_END` and `PER_LAYER` mirror the metric lists of BENCHMARK.json (the
self-test checks that they agree).  Each per-layer metric names the
end-to-end metrics and workloads it is expected to move; `report.py` prints
that map.  `failed_frac` and `exact_frac` are end-to-end figures reported by
every run and by `report.py`, but they are not in BENCHMARK.json: both are 0
on some workload today, and a bound there is a share of a median.  The run
result carries `failed_frac` as `failed / attempted`.
"""

from __future__ import annotations

from collections import Counter

from tracer import (ERROR, NAME, PARENT, function_self_times, function_times,
                    layer_self_times)

LAYERS = ("fields", "simplex", "typeclasses", "code", "cipher", "leakage",
          "exponents", "cli")

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "job_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
EXTRA_END_TO_END = {
    "failed_frac": ("1", "lower"),
    "exact_frac": ("1", "higher"),
}

VE, SM, TA = "verify-exact", "sweep-mc", "types-analytic"

# name -> (unit, better, [(end-to-end metric, workload) it should move])
PER_LAYER = {
    "fields.self_s": ("s", "lower", [("wall_s", VE)]),
    "simplex.self_s": ("s", "lower", [("wall_s", TA)]),
    "typeclasses.self_s": ("s", "lower", [("wall_s", TA), ("wall_s", SM)]),
    "code.self_s": ("s", "lower", [("wall_s", SM)]),
    "cipher.self_s": ("s", "lower", [("wall_s", VE), ("job_p50_s", VE)]),
    "leakage.self_s": ("s", "lower", [("wall_s", VE), ("wall_s", SM)]),
    "exponents.self_s": ("s", "lower", [("wall_s", TA)]),
    "cli.self_s": ("s", "lower", [("job_p50_s", TA)]),
    "fields.all_vectors.rows": ("count", "lower", [("wall_s", VE)]),
    "fields.vec_calls": ("count", "lower", [("wall_s", VE)]),
    "typeclasses.enumerate_types.types": ("count", "lower", [("wall_s", TA), ("wall_s", SM)]),
    "typeclasses.class_prob.calls": ("count", "lower", [("wall_s", TA), ("wall_s", SM)]),
    "typeclasses.class_members.s": ("s", "lower", [("wall_s", TA), ("wall_s", SM)]),
    "code.build_codebook.s": ("s", "lower", [("wall_s", SM), ("peak_rss_mb", SM)]),
    "code.build_codebook.members": ("count", "lower", [("wall_s", SM), ("peak_rss_mb", SM)]),
    "code.encode_decode.calls": ("count", "lower", [("wall_s", VE), ("wall_s", SM)]),
    "code.exact_error_prob.s": ("s", "lower", [("wall_s", SM)]),
    "cipher.check_decryption_condition.s": ("s", "lower", [("wall_s", VE), ("job_p50_s", VE)]),
    "cipher.check_decryption_condition.pairs": ("count", "lower", [("wall_s", VE), ("job_p50_s", VE)]),
    "cipher.pad_law.s": ("s", "lower", [("wall_s", VE)]),
    "cipher.pad_law.calls_per_report": ("ratio", "lower", [("wall_s", VE)]),
    "cipher.derandomize.s": ("s", "lower", [("wall_s", VE)]),
    "cipher.derandomize.attempts": ("count", "lower", [("wall_s", VE)]),
    "cipher.omega_divergences.calls": ("count", "lower", [("wall_s", VE)]),
    "cipher.injective_on_members.s": ("s", "lower", [("wall_s", VE)]),
    "leakage.exact_mutual_info.s": ("s", "lower", [("wall_s", VE)]),
    "leakage.security_certificate.self_s": ("s", "lower", [("wall_s", VE)]),
    "leakage.check_birkhoff.s": ("s", "lower", [("wall_s", VE)]),
    "leakage.converse_diagnostics.s": ("s", "lower", [("wall_s", VE)]),
    "leakage.word_space": ("count", "lower", [("wall_s", VE)]),
    "leakage.monte_carlo_mi.s": ("s", "lower", [("wall_s", SM)]),
    "leakage.monte_carlo_mi.samples": ("count", "lower", [("wall_s", SM)]),
    "leakage.exact_fallbacks": ("count", "lower", [("exact_frac", SM)]),
    "leakage.exact_figures": ("count", "higher", [("exact_frac", VE), ("exact_frac", SM)]),
    "leakage.strong_converse_probe.s": ("s", "lower", [("wall_s", TA)]),
    "exponents.exponent_E.s": ("s", "lower", [("wall_s", TA)]),
    "exponents.exponent_E.calls": ("count", "lower", [("wall_s", TA)]),
    "exponents.exponent_F.s": ("s", "lower", [("wall_s", TA)]),
    "exponents.exponent_F.calls": ("count", "lower", [("wall_s", TA)]),
    "exponents.positivity_region.s": ("s", "lower", [("wall_s", TA)]),
    "cli.output_bytes": ("B", "lower", [("job_p50_s", TA)]),
    # wall_s of the traced run; minus untraced wall_s it is the tracing overhead.
    "traced_wall_s": ("s", "lower", []),
}

# Scalar helpers called ~10^5 times per job: counted, never spanned.
COUNT_ONLY = {
    "fields.vec_add", "fields.vec_sub", "fields.vec_affine",
    "fields.index_encode", "fields.index_decode",
    "code.encode", "code.decode",
    "cipher.encrypt", "cipher.decrypt",
    "typeclasses.class_prob",
}

# Entry points whose FieldError, seen from the CLI, means "fall back to
# sampling" (see cli._sweep_mi and cmd_exact_mi).
EXACT_ENTRIES = {"cipher.derandomize", "leakage.exact_mutual_info"}


def _system(args: tuple, kwargs: dict):
    return args[0] if args else kwargs["sys"]


def _word_space(args, kwargs, result) -> dict:
    s = _system(args, kwargs)
    return {"leakage.word_space": s.spec.q ** s.plan.m}


PROBES = {
    "fields.all_vectors": lambda a, k, r: {"fields.all_vectors.rows": len(r)},
    "typeclasses.enumerate_types": lambda a, k, r: {"typeclasses.enumerate_types.types": len(r)},
    "code.build_codebook": lambda a, k, r: {"code.build_codebook.members": len(r.members)},
    "cipher.check_decryption_condition": lambda a, k, r: {
        "cipher.check_decryption_condition.pairs":
            _system(a, k).spec.q ** (2 * _system(a, k).plan.n)},
    "cipher.derandomize": lambda a, k, r: {"cipher.derandomize.attempts": r.attempts},
    "leakage.exact_mutual_info": _word_space,
    "leakage.check_birkhoff": _word_space,
    "leakage.converse_diagnostics": _word_space,
    "leakage.monte_carlo_mi": lambda a, k, r: {"leakage.monte_carlo_mi.samples": r.samples},
}

_TIMED = ("typeclasses.class_members", "code.build_codebook", "code.exact_error_prob",
          "cipher.check_decryption_condition", "cipher.pad_law", "cipher.derandomize",
          "cipher.injective_on_members", "leakage.exact_mutual_info",
          "leakage.check_birkhoff", "leakage.converse_diagnostics",
          "leakage.monte_carlo_mi", "leakage.strong_converse_probe",
          "exponents.exponent_E", "exponents.exponent_F", "exponents.positivity_region")
_COUNTED = {
    "fields.all_vectors.rows": ("fields.all_vectors.rows",),
    "fields.vec_calls": ("fields.vec_add", "fields.vec_sub", "fields.vec_affine"),
    "typeclasses.enumerate_types.types": ("typeclasses.enumerate_types.types",),
    "typeclasses.class_prob.calls": ("typeclasses.class_prob",),
    "code.build_codebook.members": ("code.build_codebook.members",),
    "code.encode_decode.calls": ("code.encode", "code.decode"),
    "cipher.check_decryption_condition.pairs": ("cipher.check_decryption_condition.pairs",),
    "cipher.derandomize.attempts": ("cipher.derandomize.attempts",),
    "cipher.omega_divergences.calls": ("cipher.omega_divergences",),
    "leakage.word_space": ("leakage.word_space",),
    "leakage.monte_carlo_mi.samples": ("leakage.monte_carlo_mi.samples",),
    "exponents.exponent_E.calls": ("exponents.exponent_E",),
    "exponents.exponent_F.calls": ("exponents.exponent_F",),
}


def is_time(name: str) -> bool:
    """Whether a per-layer figure is a time (and so scaled like one)."""
    return name in PER_LAYER and PER_LAYER[name][0] == "s"


def job_layer_values(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one job execution, from its spans and counts.

    Also returns `cipher.pad_law.calls`, the numerator of
    `cipher.pad_law.calls_per_report`, which `finish_layer_values` divides.
    """
    out: dict[str, float] = {}
    layers = layer_self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    inclusive = function_times(spans)
    for name in _TIMED:
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    out["leakage.security_certificate.self_s"] = function_self_times(spans).get(
        "leakage.security_certificate", 0.0)
    for metric, keys in _COUNTED.items():
        out[metric] = float(sum(counts.get(k, 0) for k in keys))
    out["cipher.pad_law.calls"] = float(counts.get("cipher.pad_law", 0))
    out["leakage.exact_fallbacks"] = float(sum(
        1 for span in spans
        if span[NAME] in EXACT_ENTRIES and span[ERROR] == "FieldError"
        and span[PARENT] is not None and spans[span[PARENT]][NAME].startswith("cli.")))
    return out


def finish_layer_values(summed: dict[str, float], reports: int) -> dict[str, float]:
    """Turn per-pass sums into the PER_LAYER figures."""
    out = {k: v for k, v in summed.items() if k in PER_LAYER}
    out["cipher.pad_law.calls_per_report"] = (
        summed["cipher.pad_law.calls"] / reports if reports else 0.0)
    return out
