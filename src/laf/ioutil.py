"""Small I/O helpers: exact float serialization, JSON-object reads and atomic writes."""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, LafError


def encode_f64(values: np.ndarray) -> str:
    """Base64 of the array's IEEE-754 64-bit little-endian bytes (row-major)."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_f64(text: str, where: str = "") -> np.ndarray:
    """Inverse of :func:`encode_f64`; returns a read-only 1-D float64 array."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise CorpusFormatError(f"{where}: invalid base64 feature data ({exc})") from exc
    if len(raw) % 8 != 0:
        raise CorpusFormatError(f"{where}: feature byte length {len(raw)} is not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8")


def read_json_object(path: str | Path, fmt: str | None = None, version: int | None = None,
                     error: type[LafError] = CorpusFormatError) -> dict:
    """Parse a file that must hold one JSON object.

    With ``fmt``, the object's ``format`` and ``version`` fields must equal
    ``fmt`` and ``version``. Every failure raises ``error`` naming the path.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: expected a JSON object, got {type(obj).__name__}")
    if fmt is not None and (obj.get("format") != fmt or obj.get("version") != version):
        raise error(f"{path}: not a {fmt} v{version} checkpoint")
    return obj


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write the full text to a temp file in the target directory, then rename.

    Guarantees no partially-written output file is left behind on error.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")
