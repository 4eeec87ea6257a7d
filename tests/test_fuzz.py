"""Property-based corruption of the files laf reads.

Small valid inputs are built once: the corpus, detections and scores of
``laf eval``, the config and LSTM checkpoint of ``laf localize``, and a
classifier checkpoint. Each example corrupts one of them in a way that always
leaves it malformed:

* truncation inside a record, so the record is no longer whole JSON (and a
  corpus loses its payload);
* a byte flip (XOR 0x80), which leaves the JSON text invalid UTF-8;
* one JSON value swapped for a value of another type: a string, an integer,
  a float, a boolean, null, a (nested) list, NaN or Infinity. Null is not
  swapped in where a key is optional (the config's ``seed`` and
  ``lstm.gradient_clip``), since that leaves the document valid;
* for the corpus, whose record lines are followed by a binary payload: the
  three above on the record lines with the payload kept intact, plus a flip
  of one payload byte and a truncation inside the payload.

The CLI must then exit 1 or 2 with exactly one ``error:`` or ``i/o error:``
line on stderr, write no output, and let no exception escape. No command
reads the classifier checkpoint, so ``load_classifier`` must raise
``ValidationError`` on it.
"""

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laf.classifier import Classifier, load_classifier, save_classifier
from laf.cli import main
from laf.corpus import save_corpus, with_laf_weights
from laf.errors import ValidationError
from laf.experiments import DESK_CONFIG
from laf.ioutil import atomic_write_json
from laf.localization import Detection, DetectionTable, save_detections
from laf.lstm import init_model, save_lstm
from laf.synth import SynthSpec, generate_corpus

from conftest import corpus_parts

SPEC = SynthSpec(num_activities=2, actions_per_activity=2, feature_dim=3,
                 train_videos_per_action=1, validation_videos_per_action=1,
                 test_videos_per_action=1, frames_per_video=(4, 6),
                 action_segment_fraction=0.5, images_per_action=2)

REPLACEMENTS = (("str", "x"), ("str", ""), ("int", 0), ("int", -1), ("int", 10**30),
                ("float", 0.5), ("float", -2.0), ("bool", True), ("bool", False), ("null", None),
                ("list", []), ("list", [[1], [1, 2]]), ("nan", float("nan")),
                ("inf", float("inf")), ("inf", float("-inf")))


def json_type(value) -> str:
    for name, kind in (("null", type(None)), ("bool", bool), ("int", int), ("float", float),
                       ("str", str), ("list", list), ("dict", dict)):
        if type(value) is kind:
            return name
    raise TypeError(value)


def value_paths(value, prefix=()):
    """Paths to every value nested in a JSON document, the root excluded."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


def encode(records: list[str]) -> bytes:
    return "".join(record + "\n" for record in records).encode("ascii")


def whole(path: Path) -> list[str]:
    """A file holding one JSON document, as the one JSON text ``corrupt`` takes."""
    return [path.read_text().rstrip("\n")]


@dataclass
class CliInputs:
    root: Path
    records: dict  # file name -> its JSON texts: one per line, or the whole document
    argv: list
    outputs: tuple  # file names the call writes
    payloads: dict = field(default_factory=dict)  # file name -> bytes after its JSON lines

    def argv_with(self, name: str, content: bytes) -> list[str]:
        """The call with file ``name`` replaced by a file holding ``content``."""
        path = self.root / ("bad." + name)
        path.write_bytes(content)
        return [str(path) if arg == str(self.root / name) else arg for arg in self.argv]

    def assert_one_error_line(self, name: str, content: bytes) -> None:
        for output in self.outputs:
            (self.root / output).unlink(missing_ok=True)
        code, err = run_cli(self.argv_with(name, content))
        assert code in (1, 2)
        assert len(err) == 1 and err[0].startswith(("error:", "i/o error:")), err
        assert not any((self.root / output).exists() for output in self.outputs)


def build_corpus(root: Path):
    corpus = generate_corpus(SPEC)
    corpus = with_laf_weights(corpus, {v.id: np.linspace(0.0, 1.0, v.num_steps)
                                       for v in corpus.train_videos})
    save_corpus(corpus, root / "corpus.jsonl")
    return corpus


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = build_corpus(root)
    save_detections(DetectionTable.of([Detection(v.id, v.label, seg, 1.0)
                                       for v in corpus.test_videos for seg in v.gt_segments]),
                    root / "detections.jsonl")
    atomic_write_json(root / "scores.json",
                      {v.id: [1.0 / SPEC.num_labels] * SPEC.num_labels for v in corpus.test_videos})
    (root / "config.json").write_text(json.dumps({"eval": {"hit_ks": [1, 2]}}))
    lines, payload = corpus_parts(root / "corpus.jsonl")
    records = {"corpus.jsonl": [line.decode("ascii") for line in lines],
               "detections.jsonl": (root / "detections.jsonl").read_text().splitlines(),
               "scores.json": whole(root / "scores.json")}
    argv = ["eval", "--config", str(root / "config.json"), "--corpus", str(root / "corpus.jsonl"),
            "--detections", str(root / "detections.jsonl"), "--scores", str(root / "scores.json"),
            "--out", str(root / "report.json")]
    assert run_cli(argv) == (0, [])  # valid before corruption
    return CliInputs(root, records, argv, ("report.json",), {"corpus.jsonl": payload})


@pytest.fixture(scope="module")
def localize_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_localize")
    build_corpus(root)
    (root / "config.json").write_text(DESK_CONFIG.read_text())
    save_lstm(init_model(SPEC.feature_dim, 3, 2, SPEC.num_labels), root / "lstm.json")
    records = {name: whole(root / name) for name in ("config.json", "lstm.json")}
    argv = ["localize", "--config", str(root / "config.json"), "--checkpoint",
            str(root / "lstm.json"), "--corpus", str(root / "corpus.jsonl"),
            "--out", str(root / "detections.jsonl")]
    assert run_cli(argv) == (0, [])  # valid before corruption
    return CliInputs(root, records, argv, ("detections.jsonl", "detections.jsonl.scores.json"))


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def flip(data, raw: bytes) -> bytes:
    raw = bytearray(raw)
    raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 0x80
    return bytes(raw)


def corrupt(data, records: list[str], nullable=(), payload=b"") -> bytes:
    """The bytes of one malformed variant of a file given as its JSON texts and
    the ``payload`` after them; ``nullable`` holds the value paths where null is
    valid."""
    kinds = ["truncate", "flip", "swap"] + (["payload_flip", "payload_cut"] if payload else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "payload_flip":
        return encode(records) + flip(data, payload)
    if kind == "payload_cut":
        return encode(records) + payload[:data.draw(st.integers(0, len(payload) - 1), label="cut")]
    if kind == "flip":
        return flip(data, encode(records)) + payload
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    text = records[index]
    if kind == "truncate":  # keep the records before, cut this one short
        cut = data.draw(st.integers(1, len(text) - 1), label="cut")
        return encode(records[:index]) + text[:cut].encode("ascii")
    document = json.loads(text)
    path = data.draw(st.sampled_from(list(value_paths(document))), label="path")
    *parents, key = path
    holder = document
    for step in parents:
        holder = holder[step]
    original = json_type(holder[key])
    excluded = {original, "int"} if original == "float" else {original}
    if path in nullable:
        excluded.add("null")
    holder[key] = data.draw(st.sampled_from([value for name, value in REPLACEMENTS
                                             if name not in excluded]), label="value")
    return encode(records[:index] + [json.dumps(document, separators=(",", ":"))]
                  + records[index + 1:]) + payload


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_eval_input_is_one_error_line(inputs, data):
    name = data.draw(st.sampled_from(sorted(inputs.records)), label="file")
    inputs.assert_one_error_line(name, corrupt(data, inputs.records[name],
                                               payload=inputs.payloads.get(name, b"")))


@pytest.mark.parametrize("name, nullable", [("config.json", {("seed",), ("lstm", "gradient_clip")}),
                                            ("lstm.json", ())])
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_localize_input_is_one_error_line(localize_inputs, name, nullable, data):
    localize_inputs.assert_one_error_line(name, corrupt(data, localize_inputs.records[name],
                                                        nullable))


@pytest.fixture(scope="module")
def classifier_records(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_classifier") / "classifier.json"
    rng = np.random.default_rng(0)
    save_classifier(Classifier(rng.normal(size=(SPEC.num_labels, SPEC.feature_dim)),
                               rng.normal(size=SPEC.num_labels)), path)
    load_classifier(path)  # valid before corruption
    return path, whole(path)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_classifier_checkpoint_raises_validation_error(classifier_records, data):
    path, records = classifier_records
    bad = path.with_name("bad.classifier.json")
    bad.write_bytes(corrupt(data, records))
    with pytest.raises(ValidationError):
        load_classifier(bad)
