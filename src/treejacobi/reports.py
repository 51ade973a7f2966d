"""Machine-readable reports: one JSON object per CLI invocation.

Reports are deterministic: all numbers are exact "p/q" (or Gaussian
"a/b+c/di") strings, keys are sorted, and no timestamps or environment
details are embedded, so identical inputs and flags produce byte-identical
output."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .exactmath import GaussianRational, Poly, format_rational

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "treejacobi report",
    "type": "object",
    "required": ["command", "inputs_digest", "results", "pass", "failures"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "array", "items": {"type": "string"}},
        "inputs_digest": {"type": "string",
                          "pattern": "^sha256:[0-9a-f]{64}$"},
        "results": {"type": "object"},
        "pass": {"type": "boolean"},
        "failures": {"type": "array", "items": {"type": "string"}},
    },
}


def to_jsonable(x):
    """The one renderer: package values into JSON-safe structures,
    recursively, and a dataclass into the object of its fields."""
    # the most frequent kinds first: ids, flags and counts, then rationals
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, GaussianRational):
        return str(x)
    if isinstance(x, Poly):
        return [format_rational(c) for c in x.coeffs]
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: to_jsonable(getattr(x, f.name)) for f in fields(x)}
    raise TypeError(f"cannot serialize {type(x).__name__} into a report")


def digest(obj) -> str:
    blob = json.dumps(to_jsonable(obj), sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def make_report(command: list[str], inputs, results, failures: list[str]) -> dict:
    return {
        "command": list(command),
        "inputs_digest": digest(inputs),
        "results": to_jsonable(results),
        "pass": not failures,
        "failures": list(failures),
    }


def render(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
