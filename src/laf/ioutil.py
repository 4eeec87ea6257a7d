"""Small I/O helpers: exact float serialization, JSON-object reads and atomic writes."""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CorpusFormatError, LafError


def encode_f64(values: np.ndarray) -> str:
    """Base64 of the array's IEEE-754 64-bit little-endian bytes (row-major)."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_f64(text: str, where: str = "") -> np.ndarray:
    """Inverse of :func:`encode_f64`; returns a read-only 1-D float64 array."""
    return decode_f64_rows([text], where)[0]


def decode_f64_rows(texts: list, where: str = "") -> np.ndarray:
    """Decode :func:`encode_f64` strings of one byte length into a read-only (n, w) array."""
    try:
        rows = [base64.b64decode(text.encode("ascii"), validate=True) for text in texts]
    except (AttributeError, ValueError) as exc:  # not a string, not ASCII, or not base64
        raise CorpusFormatError(f"{where}: invalid base64 feature data ({exc})") from exc
    sizes = {len(row) for row in rows}
    if len(sizes) > 1 or sum(sizes) % 8:
        raise CorpusFormatError(f"{where}: rows of {sorted(sizes)} bytes; need one multiple of 8")
    return np.frombuffer(b"".join(rows), dtype="<f8").reshape(len(rows), sum(sizes) // 8)


def json_floats(values, where: str) -> np.ndarray:
    """A JSON list of numbers (booleans excluded) as a read-only float64 vector."""
    try:
        if type(values) is list and all(type(v) in (int, float) for v in values):
            out = np.array(values, dtype=np.float64)
            out.setflags(write=False)
            return out
    except OverflowError:  # an integer beyond the float range
        pass
    raise CorpusFormatError(f"{where}: must be a list of numbers")


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of each nonblank line of a JSON Lines file; a line that
    is not UTF-8 or not JSON raises naming its number."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:  # exc.object holds the whole file's bytes
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"line {line_no}: not UTF-8 text ({exc.reason})") from exc
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                value = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
            yield line_no, value


def read_json_object(path: str | Path, fmt: str | None = None, version: int | None = None,
                     error: type[LafError] = CorpusFormatError) -> dict:
    """Parse a file that must hold one JSON object.

    With ``fmt``, the object's ``format`` and ``version`` fields must equal
    ``fmt`` and ``version``. Every failure raises ``error`` naming the path.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
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
