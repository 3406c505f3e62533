"""Extreme-learning-machine toolkit with an interval type-2 fuzzy classifier head."""

from .autoencoder import (
    Autoencoder,
    ae_encode,
    ae_train,
    stack_train,
    stack_transform,
)
from .data import LabeledDataset, load_csv, load_idx, save_idx, split_train_test
from .elm import ElmModel, elm_predict, elm_train, predict_labels
from .imaging import extract_patch, read_ppm, rgb_to_hsv, segment_frames, segment_object, write_ppm
from .metrics import (
    ActiveDecision,
    accuracy,
    active_classify,
    confusion_counts,
    per_class_accuracy,
    simulate_streams,
)
from .model_io import load_model, save_model
from .numerics import NumericalError, Rng, orthonormal_random, pseudo_inverse, ridge_solve
from .pipeline import (
    FeatureScaler,
    HmlModel,
    PipelineConfig,
    TrainMetrics,
    hml_predict,
    hml_train,
    one_hot,
)
from .shapes import SHAPE_KINDS, ShapePose, synth_shape, synth_shape_dataset
from .sit2 import Sit2Model, sit2_predict, sit2_train
from .type_reduction import It2RuleBase, brute_force_cos, ekm_reduce, nt_defuzz, sc_reduce

__version__ = "0.1.0"
