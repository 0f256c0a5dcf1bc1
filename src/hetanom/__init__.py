"""Open-set anomaly detection on feature vectors.

Trains T base scorers on simulated heterogeneous anomaly distributions
and collaboratively learns one unified scorer from their importance-
weighted query losses. Includes a synthetic benchmark and an evaluation
harness with general and hard protocols.
"""

from .data import (
    FeatureDataset,
    SplitSpec,
    ingest_csv,
    stratified_split,
    write_csv,
)
from .evaluate import (
    BENCHMARK_SEEDS,
    EvalResult,
    ProtocolSpec,
    auc,
    run_protocol,
    run_variant,
    sweep,
)
from .losses import base_loss, cdl_loss, deviation_loss
from .nets import AdamState, ScorerNet, SequencePredictor, load_checkpoint, save_checkpoint
from .partition import ClusterAssignment, DistributionDataset, build_distributions, kmeans
from .synth import (
    MixtureSpec,
    PseudoAnomalyRecipe,
    PseudoKind,
    default_benchmark,
    generate,
    synthesize_pseudo,
)
from .train import FitResult, ImportanceState, TrainConfig, fit

__all__ = [
    "AdamState",
    "BENCHMARK_SEEDS",
    "ClusterAssignment",
    "DistributionDataset",
    "EvalResult",
    "FeatureDataset",
    "FitResult",
    "ImportanceState",
    "MixtureSpec",
    "ProtocolSpec",
    "PseudoAnomalyRecipe",
    "PseudoKind",
    "ScorerNet",
    "SequencePredictor",
    "SplitSpec",
    "TrainConfig",
    "auc",
    "base_loss",
    "build_distributions",
    "cdl_loss",
    "default_benchmark",
    "deviation_loss",
    "fit",
    "generate",
    "ingest_csv",
    "kmeans",
    "load_checkpoint",
    "run_protocol",
    "run_variant",
    "save_checkpoint",
    "stratified_split",
    "sweep",
    "synthesize_pseudo",
    "write_csv",
]
