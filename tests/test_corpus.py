import hashlib
import json

import numpy as np
import pytest

from laf.corpus import Corpus, Interval, load_corpus, save_corpus, with_laf_weights
from laf.errors import CorpusFormatError, ValidationError

from conftest import (assert_corpora_equal, corpus_parts, edit_corpus_lines, make_image,
                      make_video, random_corpus, traced_peak)


def write_corpus_file(path, records, rows=(), num_labels=1, feature_dim=1):
    """A version-2 corpus file of literal record lines (dicts or raw text) and payload rows."""
    payload = np.asarray(rows, dtype="<f8").tobytes()
    header = {"format": "laf-corpus", "version": 2, "num_labels": num_labels,
              "feature_dim": feature_dim, "records": len(records), "rows": len(rows),
              "sha256": hashlib.sha256(payload).hexdigest()}
    lines = [rec if isinstance(rec, str) else json.dumps(rec) for rec in (header, *records)]
    path.write_bytes("".join(line + "\n" for line in lines).encode() + payload)


def test_minimal_corpus_loads(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = Corpus(num_labels=1, feature_dim=2,
                    images=(make_image(0, 0, [1.0, 2.0]),),
                    train_videos=(make_video(0, 0, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),),
                    validation_videos=(), test_videos=())
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.num_labels >= 1 and loaded.feature_dim == 2
    assert len(loaded.images) == 1 and len(loaded.train_videos) == 1
    assert loaded.train_videos[0].num_steps == 3


def test_round_trip_is_identity(tmp_path, rng):
    for trial in range(10):
        corpus = random_corpus(rng)
        path = tmp_path / f"c{trial}.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert_corpora_equal(corpus, loaded)
        arrays = [img.feature for img in loaded.images] + [
            a for v in loaded.all_videos for a in (v.frames, v.laf_weights) if a is not None]
        assert not any(a.flags.writeable for a in arrays)  # loaded arrays are read-only


def test_round_trip_preserves_bit_patterns(tmp_path):
    # Values chosen to drift under decimal round-tripping unless stored exactly.
    feature = np.array([1 / 3, np.nextafter(0.1, 1), 1e-308, -0.0])
    corpus = Corpus(num_labels=1, feature_dim=4, images=(make_image(0, 0, feature),),
                    train_videos=(make_video(0, 0, [feature * 7]),),
                    validation_videos=(), test_videos=())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.images[0].feature.tobytes() == feature.tobytes()
    assert loaded.train_videos[0].frames.tobytes() == (feature * 7).tobytes()


def test_round_trip_preserves_optional_absence(tmp_path):
    corpus = Corpus(num_labels=2, feature_dim=1, images=(make_image(0, 1, [0.5]),),
                    train_videos=(make_video(0, 1, [[1.0]]),),
                    validation_videos=(), test_videos=())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.images[0].relevant is None
    assert loaded.train_videos[0].gt_segments is None
    assert loaded.train_videos[0].laf_weights is None
    # and no spurious keys on disk
    records = [json.loads(line) for line in corpus_parts(path)[0]]
    assert "relevant" not in records[1] and "gt_segments" not in records[2]


def test_round_trip_preserves_gt_segments(tmp_path):
    video = make_video(0, 0, np.zeros((6, 2)), gt=[(1, 3), (4, 6)])
    corpus = Corpus(1, 2, (), (video,), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path).train_videos[0].gt_segments == (Interval(1, 3), Interval(4, 6))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError, match="no records"):
        load_corpus(path)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_corpus_file(path, ["{not json}"], feature_dim=2)
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_dimension_mismatch_names_record(tmp_path):
    image = make_image(0, 0, [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="image 'img-0': feature dimension 3"):
        Corpus(1, 2, (image,), (), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus(1, 3, (image,), (), (), ()), path)
    edit_corpus_lines(path, lambda lines: [lines[0].replace(b'"feature_dim":3', b'"feature_dim":2'),
                                           *lines[1:]])
    with pytest.raises(ValidationError, match="line 2.*dimension"):
        load_corpus(path)


def test_header_required(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"kind":"image","id":"a","label":0}\n')
    with pytest.raises(CorpusFormatError, match="header"):
        load_corpus(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus_file(path, [{"kind": "audio", "id": "a"}])
    with pytest.raises(CorpusFormatError, match="kind"):
        load_corpus(path)


def test_label_out_of_range_rejected(tmp_path):
    with pytest.raises(ValidationError, match="image 'img-0': label 7"):
        Corpus(5, 1, (make_image(0, 7, [0.0]),), (), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus(5, 1, (make_image(0, 4, [0.0]),), (), (), ()), path)
    edit_corpus_lines(path, lambda lines: [line.replace(b'"label":4', b'"label":7')
                                           for line in lines])
    with pytest.raises(ValidationError, match="line 2: image 'img-0': label 7"):
        load_corpus(path)


def test_weights_out_of_range_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus_file(path, [{"kind": "video", "split": "train", "id": "v", "label": 0,
                              "steps": 1, "laf_weights": [1.5]}], [[0.0]])
    with pytest.raises(ValidationError, match="laf_weights"):
        load_corpus(path)


def test_gt_segment_exceeding_video_rejected():
    with pytest.raises(ValidationError, match="segment"):
        make_video(0, 0, np.zeros((3, 1)), gt=[(0, 5)])


def test_nonfinite_feature_rejected():
    with pytest.raises(ValidationError, match="finite"):
        make_image(0, 0, [np.inf, 0.0])


def test_duplicate_video_id_rejected(tmp_path):
    first, second = make_video(0, 0, [[0.0]], split="test"), make_video(0, 1, [[1.0]], split="test")
    with pytest.raises(ValidationError, match="video 'test-0': duplicate video id"):
        Corpus(2, 1, (), (), (), (first, second))
    path = tmp_path / "c.jsonl"
    record = {"kind": "video", "split": "test", "id": "test-0", "label": 0, "steps": 1}
    write_corpus_file(path, [record, {**record, "label": 1}], [[0.0], [1.0]], num_labels=2)
    with pytest.raises(ValidationError, match="line 3: .*duplicate video id"):
        load_corpus(path)


def test_interval_invariants():
    assert Interval(0, 4).length == 4
    with pytest.raises(ValidationError):
        Interval(3, 3)
    with pytest.raises(ValidationError):
        Interval(-1, 2)
    with pytest.raises(ValidationError):
        Interval(5, 2)


@pytest.mark.parametrize("bounds", [(0.0, 1), (True, 2), (0, 2.0), ("0", 1), (np.True_, 3)])
def test_interval_rejects_non_integer_bounds(bounds):
    with pytest.raises(ValidationError, match="must be an integer"):
        Interval(*bounds)


def test_with_laf_weights_requires_full_coverage(rng):
    corpus = random_corpus(rng, with_optional=False)
    weights = {v.id: np.linspace(0, 1, v.num_steps) for v in corpus.train_videos[:-1]}
    with pytest.raises(ValidationError, match="missing"):
        with_laf_weights(corpus, weights)
    weights[corpus.train_videos[-1].id] = np.zeros(corpus.train_videos[-1].num_steps)
    annotated = with_laf_weights(corpus, weights)
    assert all(v.laf_weights is not None for v in annotated.train_videos)


def test_with_laf_weights_rejects_weights_outside_unit_interval(rng):
    corpus = random_corpus(rng, with_optional=False)
    for bad in (1.5, -0.25, np.nan):
        weights = {v.id: np.full(v.num_steps, 0.5) for v in corpus.train_videos}
        weights[corpus.train_videos[0].id][-1] = bad
        with pytest.raises(ValidationError, match="laf_weights"):
            with_laf_weights(corpus, weights)


def test_round_trip_is_bit_exact_for_extreme_values(tmp_path):
    extremes = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e-310, 1e308, -1e308,
                         np.finfo(np.float64).max, np.nextafter(1.0, 2.0)])
    frames = np.stack([extremes, -extremes[::-1], extremes * 0.5])
    corpus = Corpus(1, len(extremes), (make_image(0, 0, extremes), make_image(1, 0, -extremes)),
                    (make_video(0, 0, frames, weights=[0.0, 5e-324, 1.0]),), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    for before, after in [(img.feature, loaded.images[i].feature)
                          for i, img in enumerate(corpus.images)] + [
            (frames, loaded.train_videos[0].frames),
            (corpus.train_videos[0].laf_weights, loaded.train_videos[0].laf_weights)]:
        assert after.tobytes() == np.asarray(before, dtype="<f8").tobytes()


@pytest.mark.parametrize("damage", ["flip", "truncate_byte", "truncate_row", "extra_byte",
                                    "extra_row"])
def test_damaged_payload_is_a_format_error(tmp_path, rng, damage):
    path = tmp_path / "c.jsonl"
    save_corpus(random_corpus(rng), path)
    lines, payload = corpus_parts(path)
    payload = {"flip": lambda p: p[:5] + bytes([p[5] ^ 0x01]) + p[6:],
               "truncate_byte": lambda p: p[:-1], "truncate_row": lambda p: p[:-8 * 4],
               "extra_byte": lambda p: p + b"\0", "extra_row": lambda p: p + bytes(8 * 4)}[damage](payload)
    path.write_bytes(b"\n".join([*lines, payload]))
    with pytest.raises(CorpusFormatError, match="^payload: "):
        load_corpus(path)


VIDEO = {"kind": "video", "split": "train", "id": "v", "label": 0}


@pytest.mark.parametrize("steps, rows, error", [
    (3, [[0.0], [1.0]], "^line 2: needs 3 payload rows, but 1 to 2 are left$"),
    (0, [[0.0]], "^line 2: needs 0 payload rows"),
    (1, [[0.0], [1.0]], "^payload: 2 rows, but the records use 1$")])
def test_record_rows_must_match_the_payload(tmp_path, steps, rows, error):
    path = tmp_path / "c.jsonl"
    write_corpus_file(path, [{**VIDEO, "steps": steps}], rows)
    with pytest.raises(CorpusFormatError, match=error):
        load_corpus(path)


def test_missing_record_line_is_named(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus_file(path, [{**VIDEO, "steps": 1}], [[0.0]])
    edit_corpus_lines(path, lambda lines: [lines[0].replace(b'"records": 1', b'"records": 2'),
                                           *lines[1:]])
    with pytest.raises(CorpusFormatError, match="^line 3: missing"):
        load_corpus(path)


def test_load_checks_each_record_once(tmp_path, rng, monkeypatch):
    corpus = random_corpus(rng)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    checked, check = [], Corpus._check_member

    def counted(self, record, *args):
        checked.append(record)
        return check(self, record, *args)

    monkeypatch.setattr(Corpus, "_check_member", counted)
    load_corpus(path)
    assert len(checked) == len(corpus.images) + len(corpus.all_videos)


def test_version_1_file_fails_with_one_message(tmp_path):
    path = tmp_path / "v1.jsonl"
    path.write_text('{"format":"laf-corpus","version":1,"num_labels":1,"feature_dim":1}\n'
                    '{"kind":"image","id":"a","label":0,"feature":"AAAAAAAAAAA="}\n')
    with pytest.raises(CorpusFormatError, match="^line 1: expected a 'laf-corpus' version 2 "
                                                "header, got 'laf-corpus' version 1$"):
        load_corpus(path)


def test_loaded_features_are_read_only_views_of_the_file(tmp_path, rng):
    path = tmp_path / "c.jsonl"
    save_corpus(random_corpus(rng), path)
    loaded = load_corpus(path)
    features = [img.feature for img in loaded.images] + [v.frames for v in loaded.all_videos]

    def owner(array):
        while isinstance(array, np.ndarray):
            array = array.base
        return array

    assert not any(a.flags.writeable or a.flags.owndata for a in features)
    assert len({id(owner(a)) for a in features}) == 1
    assert isinstance(owner(features[0]), bytes)


def large_corpus() -> Corpus:
    """100 videos of 120-199 steps and 200 images, d = 64: a file of over 7 MB."""
    rng = np.random.default_rng(5)
    videos = tuple(make_video(i, i % 4, rng.normal(size=(int(rng.integers(120, 200)), 64)))
                   for i in range(100))
    images = tuple(make_image(i, i % 4, rng.normal(size=64)) for i in range(200))
    return Corpus(4, 64, images, videos, (), ())


def test_loading_makes_no_copy_of_the_payload(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(large_corpus(), path)
    size = path.stat().st_size
    assert size > 7e6
    loaded, peak = traced_peak(lambda: load_corpus(path))
    assert len(loaded.train_videos) == 100
    assert peak < 1.5 * size, (peak, size)


def test_saving_makes_no_copy_of_the_payload(tmp_path):
    corpus, path = large_corpus(), tmp_path / "c.jsonl"
    _, peak = traced_peak(lambda: save_corpus(corpus, path))
    size = path.stat().st_size
    assert size > 7e6
    assert peak < 0.1 * size, (peak, size)  # a concatenated payload alone is ~size

    # the bytes of a save that builds the payload in one piece
    payload = np.concatenate([np.stack([img.feature for img in corpus.images])]
                             + [vid.frames for vid in corpus.train_videos], dtype="<f8")
    lines = [json.dumps({"format": "laf-corpus", "version": 2, "num_labels": 4, "feature_dim": 64,
                         "records": 300, "rows": len(payload),
                         "sha256": hashlib.sha256(payload).hexdigest()}, separators=(",", ":"))]
    lines += [json.dumps({"kind": "image", "id": img.id, "label": img.label},
                         separators=(",", ":")) for img in corpus.images]
    lines += [json.dumps({"kind": "video", "split": "train", "id": vid.id, "label": vid.label,
                          "steps": vid.num_steps}, separators=(",", ":"))
              for vid in corpus.train_videos]
    text = "\n".join(lines).encode()
    assert path.read_bytes() == text + b" " * (-(len(text) + 1) % 8) + b"\n" + payload.tobytes()
