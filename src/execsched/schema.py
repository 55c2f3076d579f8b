"""Input-file checks shared by the run-config and fills readers.

A violation raises :class:`SchemaError`, whose message leads with the path
of the offending field, so the command line can print it as it stands.
"""
import json
import math
import sys


class SchemaError(ValueError):
    """Input-file violation; the message leads with the offending field path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        super().__init__(f"{path}: {problem}" if path else problem)


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _num(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(path, f"must be finite, got {value!r}")
    if positive and v <= 0.0:
        raise SchemaError(path, f"must be > 0, got {value!r}")
    return v


def _intval(value, path: str, *, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise SchemaError(path, f"must be >= {lo}, got {value}")
    if hi is not None and value >= hi:
        raise SchemaError(path, f"must be < {hi}, got {value}")
    return value


def _choice(value, path: str, options) -> str:
    if value not in options:
        raise SchemaError(path, f"expected one of {sorted(options)}, got {value!r}")
    return value


def _required(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}" if path else key, "required field is missing")
    return obj[key]


def _no_unknown(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else str(key), "unknown field")


def _parse_json(raw: bytes, label: str):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(label, f"not valid UTF-8 ({e})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(label, f"invalid JSON: {e}") from None
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        raise SchemaError(
            label,
            f"an integer literal is too long (over {sys.get_int_max_str_digits()} digits)",
        ) from None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()
