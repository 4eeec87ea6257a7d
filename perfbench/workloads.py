"""The benchmark's workloads: inputs built from the seed, CLI calls, checks.

Each workload writes its inputs under a directory of its own (``setup``),
lists the ``laf`` CLI calls of one pass (``calls``), and checks a finished
pass from the files it wrote (``check``). The program sees only the
generated files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from laf.corpus import Corpus, Interval, VideoSequence, save_corpus
from laf.lstm import init_model, save_lstm
from laf.synth import SynthSpec, mode_centers

DESK_CONFIG = Path("configs") / "desk_experiment.json"
MODES = ("laf", "uniform", "random30")
PAPER_ACTIVITIES, PAPER_ACTIONS, PAPER_DIM = 60, 4, 64  # N = 240 labels, d = 64
LOCALIZE_STEPS = 1000


@dataclass
class Call:
    argv: list[str]
    outputs: tuple[Path, ...]  # files this call writes, for attributing failed checks


@dataclass
class Outcome:
    """What the checks of one pass found."""

    failures: dict[int, list[str]] = field(default_factory=dict)  # call index -> messages
    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, str] = field(default_factory=dict)  # compared across passes

    def fail(self, call: int, message: str) -> None:
        self.failures.setdefault(call, []).append(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare_fingerprints(outcome: Outcome, previous: dict[str, str] | None,
                         calls: list[Call]) -> None:
    """Fail the call that wrote any artifact whose bytes changed since the last pass."""
    if previous is None:
        return
    for index, call in enumerate(calls):
        for path in call.outputs:
            if previous.get(path.name) != outcome.fingerprint.get(path.name):
                outcome.fail(index, f"{path.name} differs from the previous pass with the same seed")


@dataclass(frozen=True)
class TransferSummary:
    """What the checks need from one run_domain_transfer call, taken as it returns.

    Holding the corpus or the result instead would keep them alive through
    training and inflate the process's peak memory.
    """

    images_in: int
    purity: float
    bad_weights: str | None  # first video whose LAF weights leave [0, 1]
    num_labels: int
    test_lengths: dict[str, int]


def summarize_transfer(corpus, result) -> TransferSummary:
    pool = result.image_pool
    bad = next((video_id for video_id, w in result.laf_weights.items()
                if not (np.all(np.isfinite(w)) and np.min(w) >= 0.0 and np.max(w) <= 1.0)), None)
    return TransferSummary(len(corpus.images), sum(bool(img.relevant) for img in pool) / len(pool),
                           bad, corpus.num_labels,
                           {video.id: len(video.frames) for video in corpus.test_videos})


def transfer_checks(outcome: Outcome, call: int, observed: list[TransferSummary],
                    log_path: Path) -> None:
    """Purity of the kept web pool, LAF weights in [0, 1], pool sizes never growing."""
    if len(observed) != 1:
        outcome.fail(call, f"expected one run_domain_transfer call, saw {len(observed)}")
        return
    summary = observed[0]
    outcome.quality["purity_after_transfer"] = summary.purity
    if summary.bad_weights is not None:
        outcome.fail(call, f"LAF weights of {summary.bad_weights} leave [0, 1]")
    log = json.loads(log_path.read_text(encoding="utf-8"))
    sizes_i = [summary.images_in] + [entry["size_I"] for entry in log]
    sizes_v = [entry["size_V"] for entry in log]
    for name, sizes in (("|I|", sizes_i), ("|V|", sizes_v)):
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            outcome.fail(call, f"pool size {name} grew between rounds: {sizes}")


def detection_checks(outcome: Outcome, call: int, det_path: Path, lengths: dict[str, int],
                     num_labels: int, overlap: float) -> None:
    """Sorted, inside their video and label range, and NMS-clean within each (label, video)."""
    records = [json.loads(line) for line in det_path.read_text(encoding="utf-8").splitlines()]
    keys = [(r["label"], -r["score"], r["video_id"], r["start"]) for r in records]
    if keys != sorted(keys):
        outcome.fail(call, f"{det_path.name} is not sorted by (label, descending score)")
    groups: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for r in records:
        length = lengths.get(r["video_id"], -1)
        if not (0 <= r["start"] < r["end"] <= length and 0 <= r["label"] < num_labels):
            outcome.fail(call, f"{det_path.name}: {r} leaves its video [0, {length}) "
                               f"or labels [0, {num_labels})")
            return
        groups.setdefault((r["label"], r["video_id"]), []).append((r["start"], r["end"]))
    for (label, video_id), windows in groups.items():
        s, e = np.array(windows).T
        inter = np.clip(np.minimum(e[:, None], e) - np.maximum(s[:, None], s), 0, None)
        iou = inter / ((e - s)[:, None] + (e - s) - inter)
        np.fill_diagonal(iou, 0.0)
        if iou.max(initial=0.0) > overlap:
            outcome.fail(call, f"{det_path.name}: label {label} keeps two windows of "
                               f"{video_id} with IoU > {overlap}")
            return


def report_checks(outcome: Outcome, call: int, report_path: Path) -> float:
    """Every mAP in the eval report is a number in [0, 1]; returns mAP@0.5."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    maps = report["map_at"]
    if not maps or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in maps.values()):
        outcome.fail(call, f"{report_path.name}: mAP outside [0, 1]: {maps}")
    return maps["0.5"]


def loss_checks(outcome: Outcome, call: int, losses_path: Path) -> float:
    losses = json.loads(losses_path.read_text(encoding="utf-8"))["epoch_losses"]
    if not losses or not all(math.isfinite(x) for x in losses):
        outcome.fail(call, f"training loss is not finite: {losses}")
        return math.nan
    return losses[-1]


class Workload:
    name = ""
    min_passes = 1  # 2 where a check compares a pass with the one before it

    def setup(self, root: Path, inputs: Path, seed: int) -> None:
        raise NotImplementedError

    def calls(self, inputs: Path, out: Path, seed: int) -> list[Call]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, calls: list[Call], observed: list,
              previous: dict[str, str] | None) -> Outcome:
        raise NotImplementedError


def _common(config: Path, seed: int) -> list[str]:
    return ["--config", str(config), "--seed", str(seed)]


def _train_localize_eval(config: Path, seed: int, corpus: Path, out: Path, mode: str) -> list[Call]:
    model, det = out / f"lstm.{mode}.json", out / f"detections.{mode}.jsonl"
    losses, scores = out / f"lstm.{mode}.json.losses.json", out / f"detections.{mode}.jsonl.scores.json"
    report = out / f"report.{mode}.json"
    return [
        Call(["train", *_common(config, seed), "--corpus", str(corpus), "--mode", mode,
              "--out", str(model)], (model, losses)),
        Call(["localize", *_common(config, seed), "--checkpoint", str(model), "--corpus",
              str(corpus), "--out", str(det)], (det, scores)),
        Call(["eval", *_common(config, seed), "--detections", str(det), "--corpus", str(corpus),
              "--scores", str(scores), "--out", str(report)], (report,)),
    ]


def _synth_transfer(config: Path, seed: int, out: Path) -> list[Call]:
    corpus, annotated = out / "corpus.jsonl", out / "corpus.laf.jsonl"
    return [
        Call(["synth", *_common(config, seed), "--out", str(corpus)], (corpus,)),
        Call(["transfer", *_common(config, seed), "--corpus", str(corpus), "--out", str(annotated)],
             (annotated, out / "corpus.laf.jsonl.model.json", out / "corpus.laf.jsonl.log.json")),
    ]


class DeskWeighting(Workload):
    """One criterion-6 weighting trial through the CLI on the desk config."""

    name = "desk_weighting"
    min_passes = 2

    def setup(self, root, inputs, seed):
        (inputs / "config.json").write_bytes((root / DESK_CONFIG).read_bytes())

    def calls(self, inputs, out, seed):
        config = inputs / "config.json"
        calls = _synth_transfer(config, seed, out)
        for mode in MODES:
            calls += _train_localize_eval(config, seed, out / "corpus.laf.jsonl", out, mode)
        return calls

    def check(self, inputs, out, calls, observed, previous):
        outcome = Outcome()
        transfer_checks(outcome, 1, observed, out / "corpus.laf.jsonl.log.json")
        summary = observed[0] if observed else None
        lengths = summary.test_lengths if summary else {}
        overlap = json.loads((inputs / "config.json").read_text(encoding="utf-8"))[
            "localization"]["nms_overlap"]
        for k, mode in enumerate(MODES):  # calls 2 + 3k, 3 + 3k, 4 + 3k: train, localize, eval
            loss = loss_checks(outcome, 2 + 3 * k, out / f"lstm.{mode}.json.losses.json")
            detection_checks(outcome, 3 + 3 * k, out / f"detections.{mode}.jsonl", lengths,
                             summary.num_labels if summary else 0, overlap)
            map_05 = report_checks(outcome, 4 + 3 * k, out / f"report.{mode}.json")
            if mode == "laf":
                outcome.quality["final_train_loss"] = loss
                outcome.quality["map_at_0.5"] = map_05
            else:  # printed beside laf's; one trial may lose (criterion 6 asks 4 wins in 5)
                outcome.quality[f"map_at_0.5.{mode}"] = map_05
        outcome.fingerprint = {path.name: sha256(path) for call in calls for path in call.outputs}
        compare_fingerprints(outcome, previous, calls)
        return outcome


class PaperTrain(Workload):
    """Paper-shaped filtering plus one epoch of LAF-weighted training."""

    name = "paper_train"

    def setup(self, root, inputs, seed):
        config = json.loads((root / DESK_CONFIG).read_text(encoding="utf-8"))
        config["synth"].update({
            "num_activities": PAPER_ACTIVITIES, "actions_per_activity": PAPER_ACTIONS,
            "feature_dim": PAPER_DIM,
            "train_videos_per_action": 1, "validation_videos_per_action": 1,
            "test_videos_per_action": 1, "frames_per_video": [20, 400],
            "images_per_action": 40, "image_noise_fraction": 0.4,
        })
        config["lstm"].update({"num_cells": 32, "proj_dim": 16, "unroll_k": 20,
                               "batch_size": 12, "epochs": 1})
        (inputs / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def calls(self, inputs, out, seed):
        config = inputs / "config.json"
        model = out / "lstm.laf.json"
        return _synth_transfer(config, seed, out) + [
            Call(["train", *_common(config, seed), "--corpus", str(out / "corpus.laf.jsonl"),
                  "--mode", "laf", "--out", str(model)],
                 (model, out / "lstm.laf.json.losses.json")),
        ]

    def check(self, inputs, out, calls, observed, previous):
        outcome = Outcome()
        transfer_checks(outcome, 1, observed, out / "corpus.laf.jsonl.log.json")
        outcome.quality["final_train_loss"] = loss_checks(outcome, 2,
                                                          out / "lstm.laf.json.losses.json")
        return outcome


class PaperLocalize(Workload):
    """Paper-shaped inference: 240 labels over one 1000-step test video."""

    name = "paper_localize"  # one pass per run fits the time budget; the traced run makes two

    def setup(self, root, inputs, seed):
        spec = SynthSpec(num_activities=PAPER_ACTIVITIES, actions_per_activity=PAPER_ACTIONS,
                         feature_dim=PAPER_DIM,
                         frames_per_video=(LOCALIZE_STEPS, LOCALIZE_STEPS),
                         action_segment_fraction=0.2, seed=seed)
        centers = mode_centers(spec)
        rng = np.random.default_rng((seed, 2))
        label = int(rng.integers(spec.num_labels))
        seg_len = int(spec.action_segment_fraction * LOCALIZE_STEPS)
        start = int(rng.integers(0, LOCALIZE_STEPS - seg_len + 1))
        frames = rng.normal(centers.context[spec.activity_of(label)], spec.mode_stddev,
                            (LOCALIZE_STEPS, spec.feature_dim))
        frames[start:start + seg_len] = rng.normal(centers.action[label], spec.mode_stddev,
                                                   (seg_len, spec.feature_dim))
        video = VideoSequence(id="test-000", label=label, frames=frames,
                              gt_segments=(Interval(start, start + seg_len),))
        save_corpus(Corpus(num_labels=spec.num_labels, feature_dim=spec.feature_dim, images=(),
                           train_videos=(), validation_videos=(), test_videos=(video,)),
                    inputs / "corpus.jsonl")
        save_lstm(init_model(spec.feature_dim, 32, 16, spec.num_labels, seed=seed),
                  inputs / "detector.json")
        (inputs / "config.json").write_bytes((root / DESK_CONFIG).read_bytes())

    def calls(self, inputs, out, seed):
        config, corpus = inputs / "config.json", inputs / "corpus.jsonl"
        det, scores, report = out / "detections.jsonl", out / "detections.jsonl.scores.json", \
            out / "report.json"
        return [
            Call(["localize", *_common(config, seed), "--checkpoint", str(inputs / "detector.json"),
                  "--corpus", str(corpus), "--out", str(det)], (det, scores)),
            Call(["eval", *_common(config, seed), "--detections", str(det), "--corpus",
                  str(corpus), "--scores", str(scores), "--out", str(report)], (report,)),
        ]

    def check(self, inputs, out, calls, observed, previous):
        outcome = Outcome()
        config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
        overlap = config["localization"]["nms_overlap"]
        det_path = out / "detections.jsonl"
        detection_checks(outcome, 0, det_path, {"test-000": LOCALIZE_STEPS},
                         PAPER_ACTIVITIES * PAPER_ACTIONS, overlap)
        outcome.quality["map_at_0.5"] = report_checks(outcome, 1, out / "report.json")
        outcome.fingerprint = {det_path.name: sha256(det_path)}
        compare_fingerprints(outcome, previous, calls)
        return outcome


WORKLOADS = {w.name: w for w in (DeskWeighting(), PaperTrain(), PaperLocalize())}
