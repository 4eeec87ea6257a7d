"""Per-layer tracing from outside the program.

Every public function listed in ``TARGETS`` is replaced, in each ``laf``
module namespace that holds it, by a wrapper that records a span: name,
start, end, parent span and a few counts read from the call's arguments or
result. Spans stay in memory; ``METRICS`` turns one pass's spans into the
per-layer table. Nothing inside ``src/laf`` changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index: int, name: str):
    def count(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return count


def _examples(args, kwargs, result) -> dict:
    return {"examples": len(_arg(args, kwargs, 0, "examples"))}


def _frame_set(args, kwargs, result) -> dict:
    return {"frames": len(result)}


def _transfer(args, kwargs, result) -> dict:
    last = result.log[-1]
    return {"rounds": len(result.log), "images_in": len(_arg(args, kwargs, 0, "corpus").images),
            "images_kept": last.size_images, "frames_kept": last.size_frames}


def _steps(args, kwargs, result) -> dict:
    return {"steps": len(_arg(args, kwargs, 1, "frames"))}


def _nms(args, kwargs, result) -> dict:
    return {"candidates": len(_arg(args, kwargs, 0, "detections")), "kept": len(result)}


@dataclass(frozen=True)
class Target:
    module: str  # defining module; the span is named "<module>.<attr>"
    attr: str
    home: tuple[str, ...]  # workloads on which it must be called
    count: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.attr}"


TRAIN = ("desk_weighting", "paper_train")
DETECT = ("desk_weighting", "paper_localize")
ALL = TRAIN + ("paper_localize",)

TARGETS = (
    Target("pipeline", "stage_synth", TRAIN),
    Target("pipeline", "stage_transfer", TRAIN),
    Target("pipeline", "stage_train", TRAIN),
    Target("pipeline", "stage_localize", DETECT),
    Target("pipeline", "stage_eval", DETECT),
    Target("synth", "generate_corpus", TRAIN),
    Target("corpus", "save_corpus", TRAIN, _file_bytes(1, "path")),
    Target("corpus", "load_corpus", ALL, _file_bytes(0, "path")),
    Target("classifier", "train_classifier", TRAIN, _examples),
    Target("transfer", "initialize_frame_set", TRAIN, _frame_set),
    Target("transfer", "run_domain_transfer", TRAIN, _transfer),
    Target("lstm", "train_lstm", TRAIN),
    Target("lstm", "lstm_forward", ALL, _steps),
    Target("lstm", "lstm_backward", TRAIN),
    Target("lstm", "save_lstm", TRAIN),
    Target("lstm", "load_lstm", DETECT),
    Target("localization", "localize_videos", DETECT),
    Target("localization", "localize", DETECT),
    Target("localization", "sliding_window_scores", DETECT),
    Target("localization", "temporal_nms", DETECT, _nms),
    Target("localization", "save_detections", DETECT),
    Target("localization", "load_detections", DETECT),
    Target("evaluation", "evaluate", DETECT),
    Target("evaluation", "average_precision", DETECT),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the program's call
                    span.counts = {"error": repr(exc)}
            return result
        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _laf_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "laf" or name.startswith("laf."))]


def patch_everywhere(module: str, attr: str, make_wrapper: Callable[[Callable], Callable],
                     undo: list) -> bool:
    """Replace ``laf.<module>.<attr>`` in every laf namespace that imported it.

    Appends (namespace, key, original) to ``undo``; returns False when the
    function or its module no longer exists.
    """
    try:
        original = getattr(importlib.import_module(f"laf.{module}"), attr, None)
    except ImportError:
        return False
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    for namespace in _laf_modules():
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapper)
                undo.append((namespace, key, original))
    return True


def unpatch(undo: list) -> None:
    for namespace, key, original in reversed(undo):
        setattr(namespace, key, original)
    undo.clear()


def install(tracer: Tracer, undo: list) -> list[str]:
    """Wrap every target; returns the span names whose function is missing."""
    missing = []
    for target in TARGETS:
        make = functools.partial(tracer.wrap, target.span, count=target.count)
        if not patch_everywhere(target.module, target.attr, make, undo):
            missing.append(target.span)
    return missing


def install_ticks(clock, undo: list) -> None:
    """Let ``clock`` end a timing segment at every call into a target."""
    for target in TARGETS:
        patch_everywhere(target.module, target.attr, clock.wrap, undo)


class SpanView:
    """Sums over one pass's spans, optionally restricted to a parent subtree."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(index)

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False

    def select(self, name: str, under: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (under is None or self._under(i, under))]

    def calls(self, name: str, under: str | None = None) -> int:
        return len(self.select(name, under))

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.spans[i].duration for i in self.select(name, under))

    def counted(self, name: str, key: str, under: str | None = None) -> float:
        return sum(self.spans[i].counts.get(key, 0) for i in self.select(name, under))

    def self_time(self, name: str) -> float:
        return sum(self.spans[i].duration
                   - sum(self.spans[c].duration for c in self.children.get(i, ()))
                   for i in self.select(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    sources: tuple[str, ...]  # span names the value is built from
    value: Callable[[SpanView], float]


FIT = "classifier.train_classifier"
XFER = "transfer.run_domain_transfer"
FRAMES = "transfer.initialize_frame_set"
TRAIN_LSTM = "lstm.train_lstm"
FWD = "lstm.lstm_forward"
NMS = "localization.temporal_nms"


def _timed(name: str, span: str) -> LayerMetric:
    return LayerMetric(name, "s", (span,), lambda v: v.total(span))


def _timed_sum(name: str, *spans: str) -> LayerMetric:
    return LayerMetric(name, "s", spans, lambda v: sum(v.total(span) for span in spans))


METRICS = (
    _timed("pipeline.synth_s", "pipeline.stage_synth"),
    _timed("pipeline.transfer_s", "pipeline.stage_transfer"),
    _timed("pipeline.train_s", "pipeline.stage_train"),
    _timed("pipeline.localize_s", "pipeline.stage_localize"),
    _timed("pipeline.eval_s", "pipeline.stage_eval"),
    _timed("synth.generate_s", "synth.generate_corpus"),
    _timed("corpus.save_s", "corpus.save_corpus"),
    _timed("corpus.load_s", "corpus.load_corpus"),
    LayerMetric("corpus.mb_written", "MB", ("corpus.save_corpus",),
                lambda v: v.counted("corpus.save_corpus", "bytes") / 1e6),
    LayerMetric("corpus.load_mb_per_s", "MB/s", ("corpus.load_corpus",),
                lambda v: _ratio(v.counted("corpus.load_corpus", "bytes") / 1e6,
                                 v.total("corpus.load_corpus"))),
    LayerMetric("classifier.fit_calls", "count", (FIT,), lambda v: v.calls(FIT)),
    _timed("classifier.fit_s", FIT),
    LayerMetric("classifier.fit_examples_per_s", "1/s", (FIT,),
                lambda v: _ratio(v.counted(FIT, "examples"), v.total(FIT))),
    LayerMetric("transfer.rounds", "count", (XFER,), lambda v: v.counted(XFER, "rounds")),
    LayerMetric("transfer.self_s", "s", (XFER,), lambda v: v.self_time(XFER)),
    LayerMetric("transfer.image_keep_ratio", "ratio", (XFER,),
                lambda v: _ratio(v.counted(XFER, "images_kept"), v.counted(XFER, "images_in"))),
    LayerMetric("transfer.frame_keep_ratio", "ratio", (XFER, FRAMES),
                lambda v: _ratio(v.counted(XFER, "frames_kept"), v.counted(FRAMES, "frames"))),
    LayerMetric("lstm.train_steps", "count", (FWD, TRAIN_LSTM),
                lambda v: v.counted(FWD, "steps", under=TRAIN_LSTM)),
    LayerMetric("lstm.forward_s", "s", (FWD, TRAIN_LSTM), lambda v: v.total(FWD, under=TRAIN_LSTM)),
    _timed("lstm.backward_s", "lstm.lstm_backward"),
    LayerMetric("lstm.train_self_s", "s", (TRAIN_LSTM,), lambda v: v.self_time(TRAIN_LSTM)),
    LayerMetric("lstm.train_steps_per_s", "1/s", (FWD, TRAIN_LSTM),
                lambda v: _ratio(v.counted(FWD, "steps", under=TRAIN_LSTM), v.total(TRAIN_LSTM))),
    LayerMetric("lstm.infer_forward_s", "s", (FWD, "pipeline.stage_localize"),
                lambda v: v.total(FWD, under="pipeline.stage_localize")),
    _timed_sum("lstm.checkpoint_io_s", "lstm.save_lstm", "lstm.load_lstm"),
    LayerMetric("localization.candidates", "count", (NMS,), lambda v: v.counted(NMS, "candidates")),
    LayerMetric("localization.kept_ratio", "ratio", (NMS,),
                lambda v: _ratio(v.counted(NMS, "kept"), v.counted(NMS, "candidates"))),
    _timed("localization.windows_s", "localization.sliding_window_scores"),
    _timed("localization.nms_s", NMS),
    LayerMetric("localization.self_s", "s",
                ("localization.localize", "localization.localize_videos"),
                lambda v: v.self_time("localization.localize")
                + v.self_time("localization.localize_videos")),
    _timed_sum("localization.detections_io_s", "localization.save_detections",
               "localization.load_detections"),
    _timed("evaluation.evaluate_s", "evaluation.evaluate"),
    LayerMetric("evaluation.ap_calls", "count", ("evaluation.average_precision",),
                lambda v: v.calls("evaluation.average_precision")),
)

# Result quality read from a traced pass's outputs; 0 where the workload has no such stage.
QUALITY = (("purity_after_transfer", "ratio"), ("final_train_loss", "nats"), ("map_at_0.5", "ratio"))


def coverage(spans: list[Span], workload: str, missing: list[str]) -> dict[str, str]:
    """Wrapped names that no longer exist, or are never called where they carry work."""
    called = {span.name for span in spans}
    absent = {name: "no longer exists" for name in missing}
    for target in TARGETS:
        if target.span not in missing and workload in target.home and target.span not in called:
            absent[target.span] = f"never called on {workload}"
    for span in spans:
        if "error" in span.counts:
            absent[span.name] = f"counts unreadable: {span.counts['error']}"
    return absent


def layer_table(spans: list[Span], absent: dict[str, str]) -> dict[str, float]:
    """Metric -> value for one traced pass, leaving out metrics built on an absent name.

    A layer that does no work on this workload reads 0.
    """
    view = SpanView(spans)
    return {metric.name: metric.value(view) for metric in METRICS
            if not any(source in absent for source in metric.sources)}
