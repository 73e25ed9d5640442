"""Scalar coercion and the equality rule of projection, joins, filters and IN.

The same rules apply everywhere a log value meets a declared attribute type:
numeric leaves bound for string attributes are stringified, digit strings
bound for integer attributes are parsed, and any other mismatch becomes null.

The module also holds `Record`, the base of every record class in the
package: every command loads this module.
"""

from __future__ import annotations

import json
import re
from typing import Any

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


def canonical_json(value: Any) -> str:
    """Serialize a document deterministically (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# per type tag, the class of a leaf that coerce_scalar returns unchanged:
# callers may skip coercion for a value of exactly that class
SCALAR_CLASSES = {
    "string": str,
    "enum": str,
    "integer": int,
    "timestamp-millis": int,
    "boolean": bool,
    "float": float,
}


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


def value_key(value: Any) -> tuple[str, Any] | None:
    """Hashable key of a value: the one equality rule of joins, filters and IN.

    Two values are equal when their keys are. Null has no key and equals
    nothing, booleans only match booleans, and a number keeps its own value:
    Python compares and hashes int and float exactly, so 1 matches 1.0 and
    integers beyond 2**53 stay apart.
    """
    if isinstance(value, str):  # the most common key: test it first
        return ("s", value)
    if value is None:
        return None
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", value)
    return ("o", canonical_json(value))


class Record:
    """Base of the package's records: ==, hash and repr from their fields.

    A record declares its `__slots__` and writes its own `__init__`, whose
    parameters, in order, are its fields; a slot that is not one holds
    state derived from them, which ==, hash and repr leave out. Records are
    equal when they are of one class and their fields are. A dataclass
    decorator would generate these methods by exec'ing their source as each
    class is decorated, a cost every command would pay at start-up.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # a subclass that adds no slot (one that only wraps __init__) keeps its base's fields
        if cls.__dict__.get("__slots__"):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def get_path(doc: Any, segments: tuple[str, ...]) -> tuple[bool, Any]:
    """Navigate a nested document; returns (found, value at path)."""
    node = doc
    for seg in segments:
        if not isinstance(node, dict) or seg not in node:
            return False, None
        node = node[seg]
    return True, node

