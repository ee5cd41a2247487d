"""Sequential hybrid network intrusion detection.

Two anomaly detectors (a feedforward neural network and a random forest)
run in parallel over encoded KDD connection records; the union of their
alarms is verified and refined by a nearest-centroid misuse stage.
"""

from .dataset import (
    CoarseLabel,
    Dataset,
    RawRecord,
    StandardizationStats,
    Taxonomy,
    parse_kdd_line,
    resample,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
    stratified_split,
)
from .errors import FormatError, ParseError, UnmappedLabelError
from .hybrid import FinalPrediction, HybridConfig, HybridModel, Verdicts, route, train_all

__version__ = "0.1.0"

__all__ = [
    "CoarseLabel",
    "Dataset",
    "FinalPrediction",
    "FormatError",
    "HybridConfig",
    "HybridModel",
    "ParseError",
    "RawRecord",
    "StandardizationStats",
    "Taxonomy",
    "UnmappedLabelError",
    "Verdicts",
    "parse_kdd_line",
    "resample",
    "route",
    "standardize_apply",
    "standardize_fit",
    "stratified_kfold",
    "stratified_split",
    "train_all",
    "__version__",
]
