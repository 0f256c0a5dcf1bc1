"""Open-set anomaly detection on feature vectors.

Trains T base scorers on simulated heterogeneous anomaly distributions
and collaboratively learns one unified scorer from their importance-
weighted query losses. Includes a synthetic benchmark and an evaluation
harness with general and hard protocols.
"""

from .data import FeatureDataset, SplitSpec, stratified_split
from .evaluate import BENCHMARK_SEEDS, ProtocolSpec, auc, run_protocol
from .partition import build_distributions, kmeans
from .synth import default_benchmark, generate
from .train import TrainConfig, fit

__all__ = [
    "BENCHMARK_SEEDS",
    "FeatureDataset",
    "ProtocolSpec",
    "SplitSpec",
    "TrainConfig",
    "auc",
    "build_distributions",
    "default_benchmark",
    "fit",
    "generate",
    "kmeans",
    "run_protocol",
    "stratified_split",
]
