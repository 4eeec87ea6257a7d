import json

import numpy as np
import pytest

from laf.corpus import Corpus, Interval, load_corpus, save_corpus, with_laf_weights
from laf.errors import CorpusFormatError, ValidationError

from conftest import assert_corpora_equal, make_image, make_video, random_corpus


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
    records = [json.loads(line) for line in path.read_text().splitlines()]
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
    path.write_text('{"format":"laf-corpus","version":1,"num_labels":1,"feature_dim":2}\n'
                    "{not json}\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(path)


def test_dimension_mismatch_names_record(tmp_path):
    corpus = Corpus(1, 3, (make_image(0, 0, [1.0, 2.0, 3.0]),), (), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"format": "laf-corpus", "version": 1, "num_labels": 1, "feature_dim": 2})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 2.*dimension"):
        load_corpus(path)


def test_header_required(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"kind":"image","id":"a","label":0,"feature":""}\n')
    with pytest.raises(CorpusFormatError, match="header"):
        load_corpus(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"format":"laf-corpus","version":1,"num_labels":1,"feature_dim":1}\n'
                    '{"kind":"audio","id":"a"}\n')
    with pytest.raises(CorpusFormatError, match="kind"):
        load_corpus(path)


def test_label_out_of_range_rejected(tmp_path):
    corpus = Corpus(5, 1, (make_image(0, 4, [0.0]),), (), (), ())
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    text = path.read_text().replace('"label":4', '"label":7')
    path.write_text(text)
    with pytest.raises(ValidationError, match="label"):
        load_corpus(path)


def test_weights_out_of_range_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"format":"laf-corpus","version":1,"num_labels":1,"feature_dim":1}\n'
                    + json.dumps({"kind": "video", "split": "train", "id": "v", "label": 0,
                                  "frames": ["AAAAAAAAAAA="], "laf_weights": [1.5]}) + "\n")
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
    save_corpus(Corpus(2, 1, (), (), (), (first,)), path)
    line = path.read_text().splitlines()[1]
    path.write_text(path.read_text() + line + "\n")
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
