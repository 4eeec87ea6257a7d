"""Small I/O helpers: exact float serialization, strict JSON reads and atomic writes."""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CorpusFormatError, LafError


def encode_f64(values: np.ndarray) -> str:
    """Base64 of the array's IEEE-754 64-bit little-endian bytes (row-major)."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_f64(text: str, where: str, shape: tuple) -> np.ndarray:
    """Inverse of :func:`encode_f64`; a read-only float64 array of ``shape``."""
    try:
        flat = np.frombuffer(base64.b64decode(text.encode("ascii"), validate=True), dtype="<f8")
    except (AttributeError, ValueError) as exc:  # not ASCII base64 of whole float64 values
        raise CorpusFormatError(f"{where}: invalid base64 float64 data ({exc})") from exc
    if min(shape) < 0 or flat.size != math.prod(shape):
        raise CorpusFormatError(f"{where}: {flat.size} values, expected shape {shape}")
    return flat.reshape(shape)


JSON_KINDS = {bool: "a JSON boolean", int: "a JSON integer", float: "a finite JSON number",
              str: "a JSON string", list: "a JSON list"}


def json_value(value, kind: type, where: str, error: type[LafError] = CorpusFormatError,
               key: str | None = None):
    """``value`` as a JSON ``kind``, the one type rule of every file laf reads.

    bool is not int; an int field takes only a JSON integer; a float field
    takes an integer or a finite float and returns a float; str, bool and list
    take exactly that type; a failure names ``where``, then ``key`` if given.
    """
    if kind is float and type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif type(value) is kind:
        return value
    where = where if key is None else f"{where}: {key!r}"  # formatted only on failure
    raise error(f"{where}: must be {JSON_KINDS[kind]}")


def json_fields(rec, kinds: dict, where: str, optional=()) -> dict:
    """The values of a JSON object for the keys of ``kinds``, each checked by
    :func:`json_value`; a key in ``optional`` may be absent (its value is then
    None), never null."""
    if not isinstance(rec, dict):
        raise CorpusFormatError(f"{where}: must be a JSON object")
    fields = {}
    for key, kind in kinds.items():
        if key in rec:
            fields[key] = json_value(rec[key], kind, where, key=key)
        elif key in optional:
            fields[key] = None
        else:
            raise CorpusFormatError(f"{where}: missing {key!r}")
    return fields


def json_floats(values, where: str) -> np.ndarray:
    """A JSON list of finite numbers (booleans excluded) as a read-only float64 vector; a list
    that fails the whole-list check raises :func:`json_value`'s error for its first bad value."""
    values = json_value(values, list, where)
    try:
        out = np.array(values, np.float64) if {*map(type, values)} <= {int, float} else None
    except OverflowError:  # an integer beyond the float range
        out = None
    if out is None or not np.isfinite(out).all():
        for value in values:
            json_value(value, float, where)
    out.setflags(write=False)
    return out


def json_line(raw: bytes, line_no: int):
    """The JSON value of one line's bytes; an error names the line."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc}") from exc


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
    if fmt is not None and json_fields(obj, {"format": str, "version": int}, str(path)) \
            != {"format": fmt, "version": version}:
        raise error(f"{path}: not a {fmt} v{version} checkpoint")
    return obj


def atomic_write_bytes(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to a temp file in the target directory, each as
    the iterable yields it, then rename the file; no partially-written output file is
    left behind on error."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600; open(path, "w") gives this
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")
