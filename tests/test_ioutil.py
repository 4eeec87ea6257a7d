import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laf.corpus import Interval, save_corpus
from laf.errors import ConfigError, CorpusFormatError
from laf.ioutil import (atomic_write_bytes, decode_f64, encode_f64, json_fields, json_floats,
                        json_value)
from laf.localization import Detection, DetectionTable, save_detections
from laf.lstm import init_model, save_lstm

from conftest import random_corpus


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3), (-1, int, -1), (3, float, 3.0), (0.5, float, 0.5), (True, bool, True),
    ("", str, ""), ([1, "a"], list, [1, "a"])])
def test_json_value_accepts_its_kind(value, kind, expected):
    out = json_value(value, kind, "x")
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize("value, kind", [
    (1.0, int), (True, int), ("1", int), (None, int), (10 ** 400, float), (math.nan, float),
    (math.inf, float), (-math.inf, float), (False, float), ("0.5", float), (1, bool),
    (None, str), ((1, 2), list), ({}, list)])
def test_json_value_rejects_other_kinds(value, kind):
    with pytest.raises(CorpusFormatError, match="^x: must be "):
        json_value(value, kind, "x")
    with pytest.raises(ConfigError):
        json_value(value, kind, "x", ConfigError)


def test_json_fields_optional_keys_are_absent_never_null():
    kinds = {"id": str, "flag": bool}
    assert json_fields({"id": "a", "extra": 1}, kinds, "rec", ("flag",)) == {"id": "a", "flag": None}
    with pytest.raises(CorpusFormatError, match="^rec: 'flag': must be a JSON boolean"):
        json_fields({"id": "a", "flag": None}, kinds, "rec", ("flag",))
    with pytest.raises(CorpusFormatError, match="^rec: missing 'id'"):
        json_fields({"flag": True}, kinds, "rec", ("flag",))
    with pytest.raises(CorpusFormatError, match="^rec: must be a JSON object"):
        json_fields([], kinds, "rec")


def test_json_floats_takes_only_finite_numbers():
    assert json_floats([0, 0.5, 1], "w").tolist() == [0.0, 0.5, 1.0]
    for bad in ([0.5, math.nan], [math.inf], [True], [10 ** 400], "0.5", [[1.0]]):
        with pytest.raises(CorpusFormatError, match="^w: must be"):
            json_floats(bad, "w")


def per_value_floats(values, where):
    """The rule json_floats states, applied one value at a time."""
    return np.array([json_value(v, float, where) for v in json_value(values, list, where)],
                    dtype=np.float64)


def outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


FINITE = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 2 ** 53 + 1, 2 ** 1024 - 2 ** 971]))
TOO_LARGE = st.integers(2 ** 1024 - 2 ** 970, 2 ** 1100).map(lambda v: v * (-1) ** (v % 2))
MIXED = st.one_of(FINITE, st.floats(), st.booleans(), st.text(max_size=3), TOO_LARGE)


@given(st.one_of(st.lists(FINITE, max_size=8),
                 st.lists(st.one_of(MIXED, st.lists(MIXED, max_size=2)), max_size=8), MIXED))
@settings(max_examples=400, deadline=None)
def test_json_floats_matches_the_per_value_rule(values):
    assert outcome(json_floats, values, "w") == outcome(per_value_floats, values, "w")


def test_decode_f64_checks_the_shape():
    values = np.arange(6.0).reshape(2, 3)
    text = encode_f64(values)
    assert decode_f64(text, "p", (2, 3)).tobytes() == values.tobytes()
    assert decode_f64(text, "p", (6,)).shape == (6,)
    for shape in ((3, 3), (6, 1, 2), (-2, -3)):
        with pytest.raises(CorpusFormatError, match=r"^p: 6 values, expected shape"):
            decode_f64(text, "p", shape)


def test_atomic_write_bytes_writes_the_chunks_in_order_or_nothing(tmp_path):
    values = np.array([1.5, -0.0, 5e-324])
    atomic_write_bytes(tmp_path / "out.bin", iter([b"text\n", values]))
    assert (tmp_path / "out.bin").read_bytes() == b"text\n" + values.astype("<f8").tobytes()
    with pytest.raises(TypeError):
        atomic_write_bytes(tmp_path / "bad.bin", [b"text\n", "not bytes"])
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_get_the_mode_of_a_plain_open(tmp_path, umask):
    writers = {"corpus.bin": lambda p: save_corpus(random_corpus(np.random.default_rng(0)), p),
               "lstm.json": lambda p: save_lstm(init_model(4, 3, 2, 3), p),
               "det.jsonl": lambda p: save_detections(
                   DetectionTable.of([Detection("v", 0, Interval(0, 2), 0.5)]), p)}
    old = os.umask(umask)
    try:
        for name, write in writers.items():
            write(tmp_path / name)
    finally:
        os.umask(old)
    for name in writers:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name
