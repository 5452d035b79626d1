"""Canonical report serialization: fixed field order, 17-digit floats, hashes.

Reports must be byte-identical across runs for golden-file regression, so
serialization is done here rather than with the default JSON encoder: dict
insertion order is preserved as the fixed field order, floats are written
with 17 significant digits, and non-finite values are spelled explicitly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def format_float(value: float) -> str:
    if value != value:  # NaN
        return '"nan"'
    if value == float("inf"):
        return '"inf"'
    if value == float("-inf"):
        return '"-inf"'
    return format(float(value), ".17g")


def _serialize(obj, pieces: list[str], indent: int, level: int):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            pieces.append(pad_in + json.dumps(key, ensure_ascii=True) + ": ")
            _serialize(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray):
        _serialize(obj.tolist(), pieces, indent, level)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, value in enumerate(obj):
            pieces.append(pad_in)
            _serialize(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    """Canonical text form of a report document."""
    pieces: list[str] = []
    _serialize(obj, pieces, indent=2, level=0)
    pieces.append("\n")
    return "".join(pieces)


def dump_bytes(obj) -> bytes:
    return dumps(obj).encode("ascii")


def input_hash(obj) -> str:
    """Stable content hash of a resolved input document."""
    return hashlib.sha256(dump_bytes(obj)).hexdigest()
