"""Scalar coercion and equality rules used by projection, joins, and filters.

The same rules apply everywhere a log value meets a declared attribute type:
numeric leaves bound for string attributes are stringified, digit strings
bound for integer attributes are parsed, and any other mismatch becomes null.
"""

from __future__ import annotations

import json
import re
from typing import Any

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


def canonical_json(value: Any) -> str:
    """Serialize a document deterministically (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def coerce_scalar(value: Any, tag: str) -> tuple[Any, bool]:
    """Coerce a raw leaf into the attribute's declared type.

    Returns (coerced value or None, mismatch flag). None input passes
    through without counting as a mismatch.
    """
    if value is None:
        return None, False
    if tag == "document":
        return canonical_json(value), False
    if tag in ("string", "enum"):
        if isinstance(value, bool):
            return None, True
        if isinstance(value, str):
            return value, False
        if isinstance(value, (int, float)):
            return str(value), False
        return None, True
    if tag in ("integer", "timestamp-millis"):
        if isinstance(value, bool):
            return None, True
        if isinstance(value, int):
            return value, False
        if isinstance(value, str) and _INT_RE.match(value):
            return int(value), False
        return None, True
    if tag == "float":
        if isinstance(value, bool):
            return None, True
        if isinstance(value, (int, float)):
            return float(value), False
        return None, True
    if tag == "boolean":
        if isinstance(value, bool):
            return value, False
        return None, True
    raise ValueError(f"unknown type tag {tag!r}")


def values_equal(a: Any, b: Any) -> bool:
    """Scalar equality; null never equals anything, booleans only match booleans."""
    if a is None or b is None:
        return False
    a_bool = isinstance(a, bool)
    b_bool = isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return type(a) is type(b) and a == b


def value_key(value: Any) -> tuple[str, Any] | None:
    """Hashable key with the same equivalence classes as values_equal."""
    if value is None:
        return None
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    return ("o", canonical_json(value))


def get_path(doc: Any, segments: tuple[str, ...]) -> tuple[bool, Any]:
    """Navigate a nested document; returns (found, value at path)."""
    node = doc
    for seg in segments:
        if not isinstance(node, dict) or seg not in node:
            return False, None
        node = node[seg]
    return True, node

