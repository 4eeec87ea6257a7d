import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laf
from laf import localization, lstm, pipeline
from laf.cli import main
from laf.corpus import Corpus, Interval, VideoSequence, load_corpus, save_corpus
from laf.errors import LafError, ValidationError
from laf.localization import DetectionTable, load_detections, save_detections, Detection
from laf.lstm import PARAM_FIELDS, load_lstm, train_lstm
from laf.config import run_config_from_dict
from laf.experiments import DESK_CONFIG, weighting_trial
from laf.pipeline import training_videos_for_mode

from conftest import edit_corpus_lines, table_rows, true_label_scores
from oracles import line_by_line_brace_check, reference_inference_groups
from test_config import REPEATED_EVAL_KEYS

TINY = {
    "seed": 3,
    "synth": {"num_activities": 2, "actions_per_activity": 2, "feature_dim": 8,
              "train_videos_per_action": 3, "validation_videos_per_action": 1,
              "test_videos_per_action": 2, "frames_per_video": [12, 16],
              "action_segment_fraction": 0.3, "images_per_action": 12,
              "image_noise_fraction": 0.25},
    "classifier": {"epochs": 30},
    "transfer": {"max_iterations": 2, "frames_per_video": 5},
    "lstm": {"num_cells": 8, "proj_dim": 4, "learning_rate": 0.1, "lr_decay": 1.0,
             "epochs": 2, "batch_size": 8},
    "eval": {"hit_ks": [1, 2], "overlap_ratios": [0.1, 0.5]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def synth(config_path, tmp_path, name="corpus.jsonl"):
    out = tmp_path / name
    assert run_cli("synth", "--config", config_path, "--out", str(out)) == 0
    return out


def scores_file(corpus_path, tmp_path):
    """A ``--scores`` file that ranks each test video's own label first."""
    corpus = load_corpus(corpus_path)
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({vid: vec.tolist() for vid, vec in
                                true_label_scores(corpus.test_videos, corpus.num_labels).items()}))
    return path


def transfer(config_path, tmp_path, corpus):
    out = tmp_path / "corpus.laf.jsonl"
    assert run_cli("transfer", "--config", config_path, "--corpus", str(corpus),
                   "--out", str(out)) == 0
    return out


# --- synth ------------------------------------------------------------------

def test_synth_writes_loadable_corpus_and_prints_stats(config_path, tmp_path, capsys):
    out = synth(config_path, tmp_path)
    corpus = load_corpus(out)
    assert corpus.num_labels == 4 and corpus.feature_dim == 8
    stats = json.loads(capsys.readouterr().out)
    assert stats["num_images"] == 48
    assert 0 < stats["image_purity"] < 1


def test_synth_is_byte_identical_for_same_seed(config_path, tmp_path):
    a = synth(config_path, tmp_path, "a.jsonl")
    b = synth(config_path, tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_synth_modes_sidecar(config_path, tmp_path):
    out = tmp_path / "c.jsonl"
    modes = tmp_path / "modes.json"
    assert run_cli("synth", "--config", config_path, "--out", str(out),
                   "--modes-out", str(modes)) == 0
    data = json.loads(modes.read_text())
    assert data["format"] == "laf-synth-modes"
    assert len(data["action"]) == 4


def test_bad_config_key_is_exit_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lstm": {"cells": 4}}))
    code = run_cli("synth", "--config", str(bad), "--out", str(tmp_path / "c.jsonl"))
    assert code == 1
    assert "lstm.cells" in capsys.readouterr().err
    assert not (tmp_path / "c.jsonl").exists()


# --- transfer ---------------------------------------------------------------

def test_transfer_annotates_all_train_videos(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    annotated_path = transfer(config_path, tmp_path, corpus_path)
    annotated = load_corpus(annotated_path)
    assert all(v.laf_weights is not None for v in annotated.train_videos)
    log = json.loads((tmp_path / "corpus.laf.jsonl.log.json").read_text())
    assert 1 <= len(log) <= 2
    assert {"iteration", "size_I", "size_V", "validation_accuracy"} <= set(log[0])
    # the proposal model checkpoint is readable
    from laf.classifier import load_classifier
    model = load_classifier(tmp_path / "corpus.laf.jsonl.model.json")
    assert model.num_labels == 4


def test_transfer_identical_reruns(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    first = transfer(config_path, tmp_path, corpus_path).read_bytes()
    second = transfer(config_path, tmp_path, corpus_path).read_bytes()
    assert first == second


def test_transfer_requires_validation_videos(tmp_path, capsys):
    config = dict(TINY)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    corpus_path = synth(str(path), tmp_path)
    corpus = load_corpus(corpus_path)
    stripped = dataclasses.replace(corpus, validation_videos=())
    save_corpus(stripped, corpus_path)
    assert run_cli("transfer", "--config", str(path), "--corpus", str(corpus_path),
                   "--out", str(tmp_path / "x.jsonl")) == 1
    assert not (tmp_path / "x.jsonl").exists()


# --- train ------------------------------------------------------------------

def test_uniform_mode_equals_explicit_ones(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    out = tmp_path / "uniform.json"
    assert run_cli("train", "--config", config_path, "--corpus", str(corpus_path),
                   "--mode", "uniform", "--out", str(out)) == 0
    via_cli = load_lstm(out)

    config = run_config_from_dict(TINY)
    corpus = load_corpus(corpus_path)
    videos = [dataclasses.replace(v, laf_weights=np.ones(v.num_steps))
              for v in corpus.train_videos]
    direct, _ = train_lstm(videos, config.lstm, corpus.num_labels, corpus.feature_dim)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(via_cli, name), getattr(direct, name))


def test_random30_sets_floor_fraction_of_steps(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    corpus = load_corpus(corpus_path)
    videos = training_videos_for_mode(corpus, "random30", seed=3)
    for video in videos:
        weights = video.laf_weights
        assert set(np.unique(weights)) <= {0.0, 1.0}
        assert int(weights.sum()) == int(0.3 * video.num_steps)
    # and the CLI path trains with it
    assert run_cli("train", "--config", config_path, "--corpus", str(corpus_path),
                   "--mode", "random30", "--out", str(tmp_path / "r30.json")) == 0


def test_laf_mode_requires_weights(config_path, tmp_path, capsys):
    corpus_path = synth(config_path, tmp_path)
    code = run_cli("train", "--config", config_path, "--corpus", str(corpus_path),
                   "--mode", "laf", "--out", str(tmp_path / "m.json"))
    assert code == 1
    assert "laf_weights" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_laf_mode_after_transfer(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    annotated = transfer(config_path, tmp_path, corpus_path)
    out = tmp_path / "laf.json"
    assert run_cli("train", "--config", config_path, "--corpus", str(annotated),
                   "--mode", "laf", "--out", str(out)) == 0
    losses = json.loads((tmp_path / "laf.json.losses.json").read_text())
    assert losses["mode"] == "laf" and len(losses["epoch_losses"]) == 2
    model = load_lstm(out)
    assert model.num_labels == 4 and model.input_dim == 8


def test_train_from_a_file_holds_only_the_training_split(config_path, tmp_path, monkeypatch):
    annotated = transfer(config_path, tmp_path, synth(config_path, tmp_path))
    config = run_config_from_dict(TINY)
    loads, calls = [], []

    def spy_load(path):
        corpus = load_corpus(path)
        loads.append(weakref.ref(corpus))
        return corpus

    def spy_train(videos, *args):
        calls.append(([ref() for ref in loads], list(videos)))
        return train_lstm(videos, *args)

    monkeypatch.setattr(pipeline, "load_corpus", spy_load)
    monkeypatch.setattr(pipeline, "train_lstm", spy_train)
    pipeline.stage_train(config, annotated, "laf", tmp_path / "a.json", tmp_path / "a.losses.json")
    assert calls[0][0] == [None]  # the file's corpus is gone before training starts
    assert all(video.frames.flags.owndata for video in calls[0][1])  # and so is its buffer
    given = load_corpus(annotated)
    pipeline.stage_train(config, given, "laf", tmp_path / "b.json", tmp_path / "b.losses.json")
    assert len(loads) == 1
    for ours, theirs in zip(calls[1][1], given.train_videos, strict=True):
        assert np.shares_memory(ours.frames, theirs.frames)  # an in-memory corpus is not copied
    for name in ("json", "losses.json"):
        assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()


# --- localize ---------------------------------------------------------------

def full_chain(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    annotated = transfer(config_path, tmp_path, corpus_path)
    checkpoint = tmp_path / "model.json"
    assert run_cli("train", "--config", config_path, "--corpus", str(annotated),
                   "--mode", "laf", "--out", str(checkpoint)) == 0
    detections = tmp_path / "detections.jsonl"
    assert run_cli("localize", "--config", config_path, "--checkpoint", str(checkpoint),
                   "--corpus", str(annotated), "--out", str(detections)) == 0
    return annotated, checkpoint, detections


def test_localize_covers_every_test_video(config_path, tmp_path):
    annotated, _, detections_path = full_chain(config_path, tmp_path)
    detections = load_detections(detections_path)
    corpus = load_corpus(annotated)
    assert {d.video_id for d in table_rows(detections)} == {v.id for v in corpus.test_videos}
    scores = json.loads((tmp_path / "detections.jsonl.scores.json").read_text())
    assert set(scores) == {v.id for v in corpus.test_videos}
    for vec in scores.values():
        assert len(vec) == 4 and abs(sum(vec) - 1.0) < 1e-9


def test_localize_rejects_dim_mismatch(config_path, tmp_path, capsys):
    annotated, checkpoint, _ = full_chain(config_path, tmp_path)
    other = dict(TINY)
    other["synth"] = dict(TINY["synth"], feature_dim=5)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    other_corpus = synth(str(other_path), tmp_path, "other.jsonl")
    code = run_cli("localize", "--config", config_path, "--checkpoint", str(checkpoint),
                   "--corpus", str(other_corpus), "--out", str(tmp_path / "d.jsonl"))
    assert code == 1
    assert "dims" in capsys.readouterr().err


# --- eval -------------------------------------------------------------------

def test_eval_reports_metrics(config_path, tmp_path, capsys):
    annotated, _, detections = full_chain(config_path, tmp_path)
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "--config", config_path, "--detections", str(detections),
                   "--corpus", str(annotated), "--scores",
                   str(tmp_path / "detections.jsonl.scores.json"),
                   "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert list(report["hit_at"]) == ["1", "2"]
    assert list(report["map_at"]) == ["0.1", "0.5"]
    out = capsys.readouterr().out
    assert "hit@1" in out and "mAP@0.5" in out


def test_eval_perfect_detections_reach_full_map(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    corpus = load_corpus(corpus_path)
    perfect = [Detection(v.id, v.label, seg, 1.0)
               for v in corpus.test_videos for seg in v.gt_segments]
    det_path = tmp_path / "perfect.jsonl"
    save_detections(DetectionTable.of(perfect), det_path)
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "--config", config_path, "--detections", str(det_path),
                   "--corpus", str(corpus_path), "--scores", str(scores_file(corpus_path, tmp_path)),
                   "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert all(value == 1.0 for value in report["map_at"].values())
    assert report["hit_at"]["1"] == 1.0


def test_eval_empty_detections_give_zero_map(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    det_path = tmp_path / "empty.jsonl"
    det_path.write_text("")
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "--config", config_path, "--detections", str(det_path),
                   "--corpus", str(corpus_path), "--scores", str(scores_file(corpus_path, tmp_path)),
                   "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert all(value == 0.0 for value in report["map_at"].values())


def test_eval_unknown_video_id_fails(config_path, tmp_path, capsys):
    corpus_path = synth(config_path, tmp_path)
    det_path = tmp_path / "bad.jsonl"
    save_detections(DetectionTable.of([Detection("ghost", 0, Interval(0, 5), 1.0)]), det_path)
    code = run_cli("eval", "--config", config_path, "--detections", str(det_path),
                   "--corpus", str(corpus_path), "--scores", str(scores_file(corpus_path, tmp_path)),
                   "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert "unknown video" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


RECORD = '"video_id":"v","label":0,"start":0,"end":5,"score":1.0'
NOT_ONE_RECORD_PER_LINE = {  # the one parse must leave each to the line parser
    "two_records_then_one_split_record": [f"{{{RECORD}}},{{{RECORD}}}",
                                          '{"video_id":"v","label":0,"start":0,"end":5,"score":[{}',
                                          "{}]}"],
    "string_across_a_line_break": ['{"video_id":"a}', '{","label":0,"start":0,"end":5,"score":1.0}'],
    "extra_key_split_then_two_records": [f'{{{RECORD},"x":[{{}}', "{}]}",
                                         f"{{{RECORD}}},{{{RECORD}}}"],
    "flat_record_split_then_two_records": ['{"video_id":"v","label":0',
                                           '"start":0,"end":5,"score":1.0}',
                                           f"{{{RECORD}}},{{{RECORD}}}"],
    "two_records_on_one_line": [f"{{{RECORD}}},{{{RECORD}}}"],
    "repeated_key_hides_a_split_record_alone": ['{"video_id":"v","label":0,"start":0,"end":5,"score":[1',
                                                '{}],"score":1.0}'],
    "repeated_key_hides_a_split_record": ['{"video_id":"v","label":0,"start":0,"end":5,"score":[{}',
                                          '{}],"score":1.0}', f"{{{RECORD}}},{{{RECORD}}}"],
}


@pytest.mark.parametrize("case", sorted(NOT_ONE_RECORD_PER_LINE))
def test_detections_not_one_record_per_line_fail_by_line(case, config_path, tmp_path, capsys):
    corpus_path = synth(config_path, tmp_path)
    det_path = tmp_path / "det.jsonl"
    det_path.write_text("\n".join(NOT_ONE_RECORD_PER_LINE[case]) + "\n")
    code = run_cli("eval", "--config", config_path, "--detections", str(det_path),
                   "--corpus", str(corpus_path), "--scores", str(scores_file(corpus_path, tmp_path)),
                   "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: line 1: invalid JSON"), err
    assert not (tmp_path / "r.json").exists()


def detection_lines(escape_brace, **extra):
    """The lines of ROWS; ``escape_brace`` writes the ``{`` of an id as ``\\u007b``."""
    lines = [json.dumps({"video_id": vid, "label": label, "start": start, "end": end,
                         "score": score, **extra}, separators=(",", ":"))
             for vid, label, start, end, score in ROWS]
    return [line.replace("v{1", "v\\u007b1") if escape_brace else line for line in lines]


ROWS = [("b", 1, 0, 5, 0.5), ("v{1", 0, 2, 6, 0.75), ("a", 1, 1, 4, 0.5), ("b", 0, 3, 7, 0.25)]
ONLY_THE_LINE_PARSER_READS = {  # valid files, each with (file, an equal file the one parse reads)
    "brace_in_a_video_id": (detection_lines(False), detection_lines(True)),
    "extra_key": (detection_lines(True, note="x"), detection_lines(True)),
}


def assert_same_table(loaded, expected):
    assert loaded.videos == expected.videos
    for name in ("video", "label", "start", "end", "score"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


def spy_on_the_line_parser(monkeypatch) -> list:
    """The paths that ``load_detection_lines`` reads from now on."""
    line_parser, parsed = localization.load_detection_lines, []
    monkeypatch.setattr(localization, "load_detection_lines",
                        lambda path: parsed.append(path) or line_parser(path))
    return parsed


@pytest.mark.parametrize("case", sorted(ONLY_THE_LINE_PARSER_READS))
def test_valid_detections_read_by_the_line_parser(case, config_path, tmp_path, monkeypatch):
    parsed = spy_on_the_line_parser(monkeypatch)
    slow, fast = tmp_path / "slow.jsonl", tmp_path / "fast.jsonl"
    for path, lines in zip((slow, fast), ONLY_THE_LINE_PARSER_READS[case]):
        path.write_text("\n".join(lines) + "\n")
    expected = load_detections(fast)
    assert parsed == []
    loaded = load_detections(slow)
    assert parsed == [slow]
    assert table_rows(loaded) == [Detection(vid, label, Interval(start, end), score)
                                  for vid, label, start, end, score in ROWS]
    assert loaded.videos == ("a", "b", "v{1")
    assert_same_table(loaded, expected)

    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(num_labels=2, feature_dim=1, images=(), train_videos=(),
                       validation_videos=(),
                       test_videos=tuple(VideoSequence(vid, label, np.zeros((8, 1)),
                                                       gt_segments=(Interval(0, 5),))
                                         for vid, label in (("a", 1), ("b", 0), ("v{1", 0)))),
                corpus_path)
    assert run_cli("eval", "--config", config_path, "--detections", str(slow),
                   "--corpus", str(corpus_path), "--scores", str(scores_file(corpus_path, tmp_path)),
                   "--out", str(tmp_path / "r.json")) == 0
    assert json.loads((tmp_path / "r.json").read_text())["map_at"]["0.1"] > 0


@pytest.mark.parametrize("ending", [" ", " \r"])
def test_lines_ending_in_whitespace_are_read_by_the_one_parse(ending, tmp_path, monkeypatch):
    parsed = spy_on_the_line_parser(monkeypatch)
    lf, padded = tmp_path / "lf.jsonl", tmp_path / "padded.jsonl"
    lines = detection_lines(True)
    lf.write_bytes("".join(f"{line}\n" for line in lines).encode())
    padded.write_bytes("".join(f"{line}{ending}\n" for line in lines).encode())
    loaded, expected = load_detections(padded), load_detections(lf)
    assert parsed == []
    assert_same_table(loaded, expected)


def outcome(load, path):
    """What ``load`` makes of ``path``: its rows, or its error's type and message."""
    try:
        return table_rows(load(path))
    except LafError as exc:
        return type(exc), str(exc)


def flat_record_lines(lines: list[bytes]) -> bool:
    """Whether the one parse's brace check accepts ``lines``."""
    try:
        localization._parse_at_once(lines)
    except ValueError as exc:
        return str(exc) != "not one flat record per line"
    return True


CR_VARIANTS = [f"{{{RECORD}}}\r", f"{{{RECORD}}}\r\r", f"\r{{{RECORD}}}", f"{{{RECORD}\r}}",
               f"{{{RECORD}}}\rx", f"{{{RECORD}}}\r}}", f"{{{RECORD}}} ", f" {{{RECORD}}}"]


@pytest.mark.parametrize("lines", [*NOT_ONE_RECORD_PER_LINE.values(),
                                   *(lines for pair in ONLY_THE_LINE_PARSER_READS.values()
                                     for lines in pair),
                                   *([f"{{{RECORD}}}", cr] for cr in CR_VARIANTS)])
def test_one_parse_reads_what_the_line_parser_reads(lines, tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_bytes("\n".join(lines).encode() + b"\n")
    assert outcome(load_detections, path) == outcome(localization.load_detection_lines, path)
    raw = [line for line in path.read_bytes().split(b"\n") if line.strip()]
    assert flat_record_lines(raw) == line_by_line_brace_check(raw)


def test_brace_check_matches_the_line_by_line_check():
    rng = np.random.default_rng(5)
    inner = np.frombuffer(b"{}\r ,x", dtype=np.uint8)

    def line():  # mostly "{...}" with "\r"s after it, with every way to miss the form
        return b"".join([rng.choice([b"", b"", b"", b" ", b"\r", b"}"]), b"{",
                         rng.choice(inner, rng.integers(0, 4)).tobytes(),
                         rng.choice([b"}", b"}", b"", b"{"]),
                         rng.choice([b"", b"\r", b"\r\r", b" ", b"\rx", b"\r}"])])

    accepted = 0
    for _ in range(2000):
        lines = [line() for _ in range(rng.integers(1, 4))]
        accepted += line_by_line_brace_check(lines)
        assert flat_record_lines(lines) == line_by_line_brace_check(lines), lines
    assert 100 < accepted < 1900  # both outcomes are well sampled


IDS = ['"a"', '"}"', '"v\\u007b1"']  # as written in the file; "{" is in the ids of `records`
RECORD_FORM = '{{"video_id":{},"label":{},"start":{},"end":{},"score":{}{}}}'.format
whitespace = st.sampled_from(["", " ", "\r", " \r", "\t", "\r\r"])
valid_records = st.builds(RECORD_FORM, st.sampled_from(IDS), st.sampled_from(["0", "1"]),
                          st.sampled_from(["0", "2"]), st.sampled_from(["5", "6"]),
                          st.sampled_from(["0.5", "1", "1e-3"]), st.just(""))
records = st.builds(RECORD_FORM, st.sampled_from([*IDS, '"v{1"', '"{}"']),
                    st.sampled_from(["0", "-1", "true"]),
                    st.sampled_from(["0", "2"]), st.sampled_from(["5", "2"]),
                    st.sampled_from(["0.5", "{}", '{"a":[{}]}', '"x"']),
                    st.sampled_from(["", ',"note":{}', ',"note":{"a":[1]}', ',"note":"x"']))


def split_record(record, at):
    """``record`` cut in two lines at one of its commas, which joining the lines into one
    array puts back."""
    at = [k for k, char in enumerate(record) if char == ","][at % record.count(",")]
    return [record[:at], record[at + 1:]]


def hidden_split(record, key, after):
    """``record`` whose ``key`` first holds a list split across two lines, nesting the
    second line's ``{``; the record's own fields follow, repeating ``key``, then ``after``."""
    return [f'{record[:-1]},"{key}":[1', "{}]," + record[1:] + after]


def one_line(*parts):
    return ["".join(parts)]


valid_lines = st.builds(one_line, valid_records, whitespace)  # maybe "\r"s and spaces after
broken_lines = st.one_of(
    st.builds(one_line, records, whitespace),  # "{" in ids, nested objects, wrong values
    st.builds(split_record, st.one_of(valid_records, records), st.integers(0, 20)),
    st.builds(hidden_split, valid_records, st.sampled_from(["score", "note"]),
              st.sampled_from(["", ",1"])),
    st.builds(one_line, valid_records, st.sampled_from([",", ""]), valid_records),
    st.builds(one_line, valid_records, st.sampled_from(["", " ", ","]),  # an extra value
              st.sampled_from(["1", '"x"', "[]", "null", "]", "}", "{}", "],["])),
    st.builds(one_line, st.sampled_from([" ", "\r", "\t", "["]), valid_records),
    st.sampled_from([[""], [" "], ["\r"]]),
)
# Two valid lines to each broken one, so that whole files often pass every check.
line_shapes = st.integers(0, 2).flatmap(lambda k: valid_lines if k else broken_lines)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(shapes=st.lists(line_shapes, min_size=1, max_size=4), last_newline=st.booleans())
def test_one_parse_reads_what_the_line_parser_reads_in_every_line_shape(shapes, last_newline,
                                                                        tmp_path_factory):
    path = tmp_path_factory.mktemp("shapes") / "det.jsonl"
    path.write_bytes(("\n".join(line for shape in shapes for line in shape)
                      + "\n" * last_newline).encode())
    assert outcome(load_detections, path) == outcome(localization.load_detection_lines, path)


def test_repeated_localize_and_eval_keep_no_state(config_path, tmp_path):
    annotated, checkpoint, _ = full_chain(config_path, tmp_path)

    def localize_and_eval(tag):
        det, report = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.report.json"
        scores = tmp_path / f"{tag}.jsonl.scores.json"
        assert run_cli("localize", "--config", config_path, "--checkpoint", str(checkpoint),
                       "--corpus", str(annotated), "--out", str(det)) == 0
        assert run_cli("eval", "--config", config_path, "--detections", str(det), "--corpus",
                       str(annotated), "--scores", str(scores), "--out", str(report)) == 0
        gc.collect()
        return [path.read_bytes() for path in (det, scores, report)], \
            tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first, after_first = localize_and_eval("first")
        second, after_second = localize_and_eval("second")
    finally:
        tracemalloc.stop()
    assert first == second
    assert abs(after_second - after_first) < 64 * 1024


# --- exit codes and atomicity -----------------------------------------------

def test_missing_input_is_exit_code_two(config_path, tmp_path, capsys):
    code = run_cli("transfer", "--config", config_path,
                   "--corpus", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "o.jsonl"))
    assert code == 2


CORPUS_EDITS = {  # test-video fields that each make the corpus malformed
    "corpus_gt_segments_not_a_list": {"gt_segments": 5},
    "corpus_gt_segment_of_strings": {"gt_segments": [["a", 1]]},
    "corpus_gt_segment_with_null": {"gt_segments": [[None, 1]]},
    "corpus_gt_segment_of_floats": {"gt_segments": [[0.7, 1.9]]},
    "corpus_weights_not_numbers": {"laf_weights": ["a", "b"]},
    "corpus_weights_ragged": {"laf_weights": [[1], [1, 2]]},
    "corpus_duplicate_video_id": {"id": "v"},
}
CONFIG_EDITS = {  # one config value each that is not a finite JSON number
    "config_lstm_learning_rate_nan": ("lstm", "learning_rate", float("nan")),
    "config_lstm_gradient_clip_nan": ("lstm", "gradient_clip", float("nan")),
    "config_classifier_learning_rate_nan": ("classifier", "learning_rate", float("nan")),
    "config_synth_mode_separation_infinite": ("synth", "mode_separation", float("inf")),
}
CONFIG_REPEATS = {f"config_eval_{key}_repeated": key for key in REPEATED_EVAL_KEYS}
SEED_CONFIGS = {  # configs that each set a negative seed
    "config_seed_negative": {"seed": -3},
    "config_synth_seed_negative": {"synth": {"seed": -3}},
}
DETECTION_LINES = {  # one detection record each, with a field of the wrong JSON type
    "detection_fields_are_floats": {"label": 0.9, "start": 0.2, "end": 1.7},
    "detection_label_is_true": {"label": True, "start": 0, "end": 2},
    "detection_start_is_a_string": {"label": 0, "start": "1", "end": 2},
}


def update_test_videos(corpus_path, fields):
    """Set ``fields`` on every test-video record line of a corpus file."""
    edit_corpus_lines(corpus_path, lambda lines: [
        json.dumps({**json.loads(line), **fields}).encode() if b'"split":"test"' in line else line
        for line in lines])


def malformed_call(case, config_path, tmp_path):
    """Argv of one CLI call that reads a malformed input file."""
    corpus_path = synth(config_path, tmp_path)
    videos = load_corpus(corpus_path).test_videos
    scores = scores_file(corpus_path, tmp_path)  # before any corpus edit
    if case in CORPUS_EDITS:
        update_test_videos(corpus_path, CORPUS_EDITS[case])
    elif case == "corpus_not_utf8":
        edit_corpus_lines(corpus_path, lambda lines: [
            line.replace(b'"test"', b'"t\xffst"') for line in lines])
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    detections = tmp_path / "det.jsonl"
    save_detections(DetectionTable.of([]), detections)
    evaluate = ["eval", "--config", config_path, "--corpus", str(corpus_path),
                "--detections", str(detections), "--out", str(tmp_path / "r.json")]
    if case == "checkpoint_dims_not_integers":  # read as int(2.9), it would run on 2 labels
        two_labels = tmp_path / "two_labels.json"
        two_labels.write_text(json.dumps({**TINY, "synth": {**TINY["synth"], "num_activities": 1}}))
        corpus_path = synth(str(two_labels), tmp_path, "two_labels.jsonl")
        lstm.save_lstm(lstm.init_model(8, 2, 2, 2), bad)
        bad.write_text(bad.read_text().replace('"outputs": 2', '"outputs": 2.9'))
    if case.startswith("checkpoint_"):
        return ["localize", "--config", config_path, "--checkpoint", str(bad),
                "--corpus", str(corpus_path), "--out", str(tmp_path / "d.jsonl")]
    if case in CONFIG_EDITS:
        block, key, value = CONFIG_EDITS[case]
        bad.write_text(json.dumps({**TINY, block: {**TINY.get(block, {}), key: value}}))
        return ["synth", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")]
    if case in CONFIG_REPEATS:
        key = CONFIG_REPEATS[case]
        bad.write_text(json.dumps({**TINY, "eval": {**TINY["eval"], key: REPEATED_EVAL_KEYS[key][0]}}))
        return ["synth", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")]
    if case == "config_not_utf8":
        bad.write_bytes(b"\xff\xfe{}")
        return ["synth", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")]
    if case in SEED_CONFIGS:
        bad.write_text(json.dumps(SEED_CONFIGS[case]))
        return ["synth", "--config", str(bad), "--out", str(tmp_path / "c.jsonl")]
    if case == "seed_flag_negative":
        return ["synth", "--config", config_path, "--seed", "-1", "--out", str(tmp_path / "c.jsonl")]
    if case == "detections_not_utf8":
        detections.write_bytes(b'{"video_id":"\xff"}\n')
    elif case in DETECTION_LINES:
        detections.write_text(json.dumps(dict(video_id=videos[0].id, score=1.0,
                                              **DETECTION_LINES[case])) + "\n")
    if case.startswith("scores_"):
        if case == "scores_not_finite":
            bad.write_text(json.dumps({v.id: [float("nan")] + [0.1] * 3 for v in videos}))
        elif case == "scores_not_numbers":
            bad.write_text(json.dumps({v.id: "high" for v in videos}))
        elif case == "scores_of_unequal_length":
            bad.write_text(json.dumps({v.id: [0.25] * (4 + i) for i, v in enumerate(videos)}))
        scores = bad
    video = videos[0]
    if case == "detection_label_out_of_range":
        save_detections(DetectionTable.of([Detection(video.id, 99, Interval(0, 5), 1.0)]),
                        detections)
    elif case == "detection_past_video_end":
        save_detections(DetectionTable.of([Detection(video.id, video.label, Interval(0, 5000),
                                                     1.0)]), detections)
    return evaluate + ["--scores", str(scores)]


def assert_one_error_line(argv):
    """Run the CLI in a fresh process: exit 1, one `error:` line on stderr, no traceback."""
    src = str(Path(laf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "laf.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    return lines[0]


@pytest.mark.parametrize("case", ["checkpoint_is_a_list", "checkpoint_dims_not_integers",
                                  "config_not_utf8", *CONFIG_EDITS, *CONFIG_REPEATS,
                                  "seed_flag_negative",
                                  *SEED_CONFIGS, "scores_are_a_list",
                                  "scores_not_numbers", "scores_of_unequal_length",
                                  "scores_not_finite", "detection_label_out_of_range",
                                  "detection_past_video_end", "detections_not_utf8",
                                  *DETECTION_LINES, *CORPUS_EDITS, "corpus_not_utf8"])
def test_malformed_input_is_one_error_line(case, config_path, tmp_path):
    line = assert_one_error_line(malformed_call(case, config_path, tmp_path))
    if case.startswith("corpus_") or case in DETECTION_LINES or case == "detections_not_utf8":
        assert line.startswith("error: line "), line
    if case in CONFIG_EDITS:
        assert "{}.{}: must be a finite JSON number".format(*CONFIG_EDITS[case]) in line, line
    if case in CONFIG_REPEATS:
        assert line == f"error: {REPEATED_EVAL_KEYS[CONFIG_REPEATS[case]][1]}", line
    if case == "checkpoint_dims_not_integers":
        assert "dims: 'outputs': must be a JSON integer" in line, line
    if case == "seed_flag_negative":
        assert "seed must be nonnegative, got -1" in line, line
    if case in SEED_CONFIGS:
        assert "seed must be nonnegative, got -3" in line, line
    if case == "config_synth_seed_negative":
        assert line.startswith("error: synth: seed"), line


def test_eval_without_scores_is_a_usage_error(config_path, tmp_path, capsys):
    corpus_path, det_path = synth(config_path, tmp_path), tmp_path / "empty.jsonl"
    det_path.write_text("")  # inputs that evaluate with a --scores file
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run_cli("eval", "--config", config_path, "--detections", str(det_path),
                "--corpus", str(corpus_path), "--out", str(tmp_path / "r.json"))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: laf eval") and "--scores SCORES" in err
    assert [line for line in err.splitlines() if "error:" in line] == \
        ["laf eval: error: the following arguments are required: --scores"]
    assert not (tmp_path / "r.json").exists()


def test_localize_runs_the_model_once_per_test_video(config_path, tmp_path, monkeypatch):
    annotated, checkpoint, _ = full_chain(config_path, tmp_path)
    calls = []

    def counted(model, frames, *args, lengths=None, **kwargs):
        calls.append((frames, lengths))
        return lstm.lstm_forward(model, frames, *args, lengths=lengths, **kwargs)

    for module in (localization, pipeline):
        monkeypatch.setattr(module, "lstm_forward", counted, raising=False)
    monkeypatch.setattr(localization, "INFERENCE_ROWS", 40)  # 8 videos of 12-16 steps
    assert run_cli("localize", "--config", config_path, "--checkpoint", str(checkpoint),
                   "--corpus", str(annotated), "--out", str(tmp_path / "again.jsonl")) == 0
    videos = load_corpus(annotated).test_videos
    lengths = [video.num_steps for video in videos]
    groups = reference_inference_groups(lengths, 40)
    assert len(groups) >= 3
    assert [sizes for _, sizes in calls] == [[lengths[k] for k in g] for g in groups]
    assert sum(len(frames) for frames, _ in calls) == sum(lengths)
    # each test video's frames went through exactly one call, once
    forwarded = sorted(block.tobytes() for frames, sizes in calls
                       for block in np.split(frames, np.cumsum(sizes)[:-1]))
    assert forwarded == sorted(video.frames.tobytes() for video in videos)


def test_diverging_training_is_one_error_line_and_writes_nothing(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)
    config = dict(TINY, lstm=dict(TINY["lstm"], learning_rate=1e300, gradient_clip=None))
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "m.json"
    line = assert_one_error_line(["train", "--config", str(path), "--corpus", str(corpus_path),
                                  "--mode", "uniform", "--out", str(out)])
    assert "diverged at epoch" in line and "batch" in line
    assert not out.exists() and not (tmp_path / "m.json.losses.json").exists()


def test_pipeline_rejects_hit_k_above_label_count_before_any_stage(tmp_path):
    config = dict(TINY, eval=dict(TINY["eval"], hit_ks=[1, 5]))  # the corpus has 4 labels
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    line = assert_one_error_line(["pipeline", "--config", str(path), "--out-dir", str(out_dir)])
    assert "k=5" in line
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_unwritable_output_is_exit_code_two(config_path, tmp_path):
    target = tmp_path / "subdir" / "corpus.jsonl"  # parent does not exist
    code = run_cli("synth", "--config", config_path, "--out", str(target))
    assert code == 2


def test_no_temp_droppings_after_success(config_path, tmp_path):
    synth(config_path, tmp_path)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# --- pipeline ---------------------------------------------------------------

def test_pipeline_end_to_end_reproducible(config_path, tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert run_cli("pipeline", "--config", config_path, "--out-dir", str(run_a)) == 0
    assert run_cli("pipeline", "--config", config_path, "--out-dir", str(run_b)) == 0
    names = [p.name for p in sorted(run_a.iterdir())]
    assert "report.json" in names and "detections.jsonl" in names
    for name in names:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_pipeline_writes_what_the_subcommand_chain_writes(config_path, tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("pipeline", "--config", config_path, "--out-dir", str(run_a)) == 0
    run_b.mkdir()
    common = ("--config", config_path)
    for argv in (
        ("synth", "--out", "corpus.bin", "--modes-out", "mode_centers.json"),
        ("transfer", "--corpus", "corpus.bin", "--out", "corpus.laf.bin",
         "--model-out", "proposal_model.json", "--log-out", "transfer_log.json"),
        ("train", "--corpus", "corpus.laf.bin", "--out", "lstm_model.json",
         "--loss-out", "loss_curve.json"),
        ("localize", "--checkpoint", "lstm_model.json", "--corpus", "corpus.laf.bin",
         "--out", "detections.jsonl", "--scores-out", "video_scores.json"),
        ("eval", "--detections", "detections.jsonl", "--corpus", "corpus.laf.bin",
         "--scores", "video_scores.json", "--out", "report.json"),
    ):
        command, *args = argv  # every argument after a flag is a file name in run_b
        args = [arg if arg.startswith("--") else str(run_b / arg) for arg in args]
        assert run_cli(command, *common, *args) == 0, command
    names = sorted(p.name for p in run_a.iterdir())
    assert len(names) == 10 and names == sorted(p.name for p in run_b.iterdir())
    for name in names:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_pipeline_reads_no_artifact_back(config_path, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline read an artifact back")

    for name in ("load_corpus", "load_lstm", "load_detections", "read_json_object"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert run_cli("pipeline", "--config", config_path, "--out-dir", str(tmp_path / "run")) == 0
    assert len(list((tmp_path / "run").iterdir())) == 10


def test_config_paths_key_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY, "paths": {"report": "../x.json"}}))
    out_dir = tmp_path / "run"
    line = assert_one_error_line(["pipeline", "--config", str(path), "--out-dir", str(out_dir)])
    assert line == "error: unknown config key: paths"
    assert not out_dir.exists() and not (tmp_path / "x.json").exists()


def test_train_mode_defaults_to_the_config(config_path, tmp_path):
    corpus_path = synth(config_path, tmp_path)  # no transfer, so no LAF weights
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({**TINY, "train_mode": "uniform"}))
    out = tmp_path / "m.json"
    assert run_cli("train", "--config", str(path), "--corpus", str(corpus_path),
                   "--out", str(out)) == 0
    assert json.loads((tmp_path / "m.json.losses.json").read_text())["mode"] == "uniform"


def test_seed_flag_changes_outputs(config_path, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli("synth", "--config", config_path, "--out", str(a), "--seed", "1") == 0
    assert run_cli("synth", "--config", config_path, "--out", str(b), "--seed", "2") == 0
    assert a.read_bytes() != b.read_bytes()


def test_pipeline_and_weighting_trial_compute_one_map(tmp_path):
    run, shuffled = tmp_path / "run", tmp_path / "shuffled.jsonl"
    assert run_cli("pipeline", "--config", str(DESK_CONFIG), "--seed", "0",
                   "--out-dir", str(run)) == 0
    report = json.loads((run / "report.json").read_text())
    assert report["map_at"]["0.5"] == weighting_trial(0, modes=("laf",))["laf"]
    # the same detections in shuffled line order evaluate to the same report bytes
    lines = (run / "detections.jsonl").read_bytes().splitlines(keepends=True)
    order = np.random.default_rng(32).permutation(len(lines))
    shuffled.write_bytes(b"".join(lines[k] for k in order))
    assert shuffled.read_bytes() != (run / "detections.jsonl").read_bytes()
    assert run_cli("eval", "--config", str(DESK_CONFIG), "--seed", "0", "--detections",
                   str(shuffled), "--corpus", str(run / "corpus.laf.bin"), "--scores",
                   str(run / "video_scores.json"), "--out", str(tmp_path / "report.json")) == 0
    assert (tmp_path / "report.json").read_bytes() == (run / "report.json").read_bytes()


def test_weighting_trial_checks_the_ratio_before_any_work(monkeypatch):
    monkeypatch.setattr("laf.experiments.stage_synth", None)  # fails if it is reached
    with pytest.raises(ValidationError, match="overlap ratios"):
        weighting_trial(0, map_ratio=0.0)
