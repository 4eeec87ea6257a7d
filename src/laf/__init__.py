"""Weakly-supervised temporal action localization toolkit.

Filters a noisy web-image pool against weakly-labeled video frames by
iterative cross-domain transfer, scores every training step with the
resulting LAF (localized action frame) proposal model, trains a
projection-LSTM detector whose per-step loss is weighted by those scores,
and localizes actions with sliding windows plus temporal NMS, evaluated by
Hit@k and mAP at configurable temporal-overlap ratios.
"""

from .classifier import (Classifier, ClassifierTrainConfig, load_classifier, predict_softmax_many,
                         save_classifier, scores_for_labels, train_classifier)
from .config import RunConfig, load_run_config
from .corpus import Corpus, Interval, VideoSequence, WebImage, load_corpus, save_corpus
from .errors import (ConfigError, CorpusFormatError, LafError, TransferCollapseError,
                     ValidationError)
from .evaluation import EvalConfig, average_precision, evaluate, hit_at_k
from .localization import (Detection, DetectionTable, LocalizationConfig, classify_video, localize,
                           sliding_window_scores, temporal_iou, temporal_nms)
from .lstm import (LstmModel, LstmState, LstmTrainConfig, load_lstm, lstm_backward,
                   lstm_forward, lstm_step, save_lstm, train_lstm, weighted_sequence_loss)
from .synth import SynthSpec, corpus_stats, generate_corpus
from .transfer import (LafResult, TransferConfig, filter_scores, initialize_frame_set,
                       laf_scores_for_video, run_domain_transfer, validation_accuracy)

__version__ = "0.1.0"
