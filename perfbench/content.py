"""The mathematical content of a CLI output, and its digest.

Correctness is judged on what the output says mathematically, not on its
bytes: report headers, rows, check names and pass flags, decisions,
empirical sups, certificate bounds and transfer tables, tau3 rows and
rounded families.  Free-text witnesses (check witness strings, the gh
witness and the identity-check witness) are left out, so that witnesses
can be restructured without counting as wrong answers.
"""

from __future__ import annotations

import hashlib
import json


def _report(obj):
    rows = [
        {k: v["fraction"] if isinstance(v, dict) else v for k, v in row.items()}
        for row in obj["rows"]
    ]
    return {
        "header": obj["header"],
        "columns": obj["columns"],
        "rows": rows,
        "checks": [[c["name"], c["passed"]] for c in obj["checks"]],
        "passed": obj["passed"],
    }


def _gh(obj):
    keys = ("coboundary", "cycle_sum", "horizon", "empirical_sup", "growth_slope", "certificate")
    return {k: obj.get(k) for k in keys}


def _solve(obj):
    return {k: obj.get(k) for k in ("coboundary", "cycle_sum", "certificate")}


def _ok(obj):
    return {"ok": obj["ok"]}


EXTRACT = {
    "report": _report,
    "rows": lambda obj: obj,
    "gh": _gh,
    "solve": _solve,
    "verify": _ok,
    "roundtrip": _ok,
    "happrox": lambda obj: obj,
}


def digest(kind: str, exit_code, text: str) -> str:
    """Short digest of (exit code, mathematical content) of one output.

    Output that is not the expected JSON document digests as its raw text,
    so it can never match a recorded reference by accident.
    """
    try:
        content = EXTRACT[kind](json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError):
        content = {"unparsed": text}
    blob = json.dumps([exit_code, content], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def coboundary_decisions(kind: str, text: str) -> list:
    """gh decisions (True for a coboundary) contained in one output."""
    try:
        obj = json.loads(text)
    except ValueError:
        return []
    if kind == "gh":
        return [bool(obj.get("coboundary"))]
    if kind == "report" and obj.get("suite") == "gh":
        return [bool(row["coboundary"]) for row in obj["rows"]]
    return []
