"""Output checks for benchmark jobs against recorded reference outputs.

Every job must exit 0; `verify` must also report `"passed": true`.  Each
number in the recorded output must match the job's output within
`TOLERANCE`, the bound-chain slack of `typecipher.leakage`:
|got - ref| <= TOLERANCE * max(1, |ref|).  Strings and booleans (flags,
provenance, encoder rows) must match exactly.  Keys the reference lacks are
ignored, so opt-in output added later does not fail the check.

Monte Carlo figures are the exception.  A `sweep` row whose reference `mi`
is flagged `estimate` passes when the new value is finite, flagged `estimate`
or `exact`, and lies inside the recorded interval
`estimate +- MC_INTERVAL_SE * std_error`.  A new sampler or engine may thus
move the figure, but only by as much as the recorded estimate's own error.
"""

from __future__ import annotations

import csv
import io
import json
import math

TOLERANCE = 1e-9
MC_INTERVAL_SE = 4.0

JSON_KINDS = {"verify", "exact-mi"}


def parse(kind: str, text: str):
    """CLI output as JSON (reports) or a list of row dicts (CSV tables)."""
    if kind in JSON_KINDS:
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def figures(kind: str, parsed) -> list[str]:
    """Provenance of every leakage figure the output reports."""
    if kind == "verify":
        return [parsed["certificate"]["report"]["provenance"]]
    if kind == "exact-mi":
        return [parsed["provenance"]]
    if kind == "sweep":
        return [row["mi_flag"] for row in parsed]
    return []


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def compare(ref, got, path: str, problems: list[str]) -> None:
    """Append a problem for every reference leaf that `got` does not match."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                compare(value, got[key], f"{path}.{key}", problems)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            compare(r, g, f"{path}[{i}]", problems)
        return
    r, g = _number(ref), _number(got)
    if r is not None and g is not None:
        if r == g or abs(g - r) <= TOLERANCE * max(1.0, abs(r)):
            return
        problems.append(f"{path}: {got!r} differs from reference {ref!r}")
    elif ref != got:
        problems.append(f"{path}: {got!r} differs from reference {ref!r}")


def _check_mc_rows(ref: dict, got: list, problems: list[str]) -> None:
    for i, (r, g) in enumerate(zip(ref["output"], got)):
        if r["mi_flag"] != "estimate":
            continue
        value = _number(g.get("mi"))
        flag = g.get("mi_flag")
        if flag not in ("estimate", "exact"):
            problems.append(f"row {i}: mi_flag {flag!r}")
        elif value is None or not math.isfinite(value):
            problems.append(f"row {i}: mi {g.get('mi')!r} is not a finite number")
        else:
            lo, hi = ref["mc_interval"][i]
            if not lo <= value <= hi:
                problems.append(f"row {i}: {flag} mi {value} outside [{lo}, {hi}]")


def check(kind: str, argv: list[str], code: int, text: str, ref: dict | None) -> list[str]:
    """Problems with one job's exit code and output; empty when it passed."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        got = parse(kind, text)
    except (ValueError, csv.Error) as exc:
        return problems + [f"unparsable output: {exc}"]
    if kind == "verify" and not (isinstance(got, dict) and got.get("passed") is True):
        problems.append("verify did not report passed: true")
    if ref is None:
        return problems + ["no reference output recorded for this job"]
    if list(argv) != ref["argv"]:
        return problems + [f"job {argv} differs from the recorded {ref['argv']}"]
    expected = ref["output"]
    if kind == "sweep":
        if not isinstance(got, list) or len(got) != len(expected):
            return problems + [f"expected {len(expected)} sweep rows"]
        _check_mc_rows(ref, got, problems)
        expected = [
            {k: v for k, v in row.items()
             if row["mi_flag"] != "estimate" or k not in ("mi", "mi_flag")}
            for row in expected
        ]
    compare(expected, got, "output", problems)
    return problems
