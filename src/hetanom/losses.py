"""Deviation loss against a Gaussian score prior, plus the weighted
aggregation of per-base query losses that drives the unified update.

Normals are pulled toward the prior mean in standardized units; anomalies
are pushed past a confidence margin. The raw score of a sample is the
scorer output; its deviation is ``(score - mu) / sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, NumericError
from .nets import ScorerNet


@dataclass(frozen=True)
class DeviationPrior:
    """Score prior (mu, sigma) and the anomaly confidence margin; training
    uses the analytic standard-normal prior, (mu, sigma) = (0, 1)."""

    mu: float = 0.0
    sigma: float = 1.0
    margin: float = 5.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigurationError("prior sigma must be > 0")
        if self.margin <= 0:
            raise ConfigurationError("prior margin must be > 0")

    @classmethod
    def analytic(cls, margin: float = 5.0) -> "DeviationPrior":
        return cls(margin=margin)


def deviation(score, prior: DeviationPrior):
    return (np.asarray(score, dtype=np.float64) - prior.mu) / prior.sigma


def deviation_loss(score, y, prior: DeviationPrior):
    """Per-sample loss: |dev| for normals, max(0, margin - dev) for anomalies."""
    dev = deviation(score, prior)
    y = np.asarray(y)
    normal_term = np.abs(dev)
    anomaly_term = np.maximum(0.0, prior.margin - dev)
    return np.where(y == 0, normal_term, anomaly_term)


def deviation_loss_dscore(score, y, prior: DeviationPrior):
    """d(loss)/d(score); zero subgradient at the two kinks."""
    dev = deviation(score, prior)
    y = np.asarray(y)
    d_normal = np.sign(dev) / prior.sigma
    d_anomaly = np.where(dev < prior.margin, -1.0 / prior.sigma, 0.0)
    return np.where(y == 0, d_normal, d_anomaly)


def _reduce(values: np.ndarray, reduction: str):
    """Reduce over the last axis: a float, or one value per stacked scorer."""
    if reduction == "mean":
        out = values.mean(axis=-1)
    elif reduction == "sum":
        out = values.sum(axis=-1)
    else:
        raise ConfigurationError(f"unknown reduction {reduction!r}")
    return float(out) if out.ndim == 0 else out


def base_loss(net: ScorerNet, X: np.ndarray, y: np.ndarray,
              prior: DeviationPrior, reduction: str = "mean") -> float:
    """Reduced deviation loss of one scorer over a sample set."""
    if len(np.atleast_1d(y)) == 0:
        raise ContractError("base_loss over an empty sample set")
    return score_loss(net.forward(X), y, prior, reduction)


def score_loss(scores, y, prior: DeviationPrior, reduction: str = "mean") -> float:
    """Reduced deviation loss of scores already computed."""
    return _reduce(deviation_loss(scores, y, prior), reduction)


def base_loss_grad(net: ScorerNet, X: np.ndarray, y: np.ndarray,
                   prior: DeviationPrior, reduction: str = "mean"):
    """Loss and its exact reverse-mode gradient w.r.t. the net parameters.

    For a stack of G scorers, X is (G, n, d) and y is (G, n); the losses
    (G,) and the gradients (G, P) are then per scorer.
    """
    if np.size(y) == 0:
        raise ContractError("base_loss_grad over an empty sample set")
    scores, cache = net.forward_with_cache(np.asarray(X, dtype=np.float64))
    per_sample = deviation_loss(scores, y, prior)
    if not np.isfinite(per_sample).all():
        *scorer, bad = np.argwhere(~np.isfinite(per_sample))[0].tolist()
        where = f" of scorer {scorer[0]}" if scorer else ""
        raise NumericError(f"non-finite loss at sample index {bad}{where}")
    dscores = deviation_loss_dscore(scores, y, prior)
    if reduction == "mean":
        dscores = dscores / per_sample.shape[-1]
    grad = net.backward(cache, dscores)
    return _reduce(per_sample, reduction), grad


def cdl_loss(bases, weights, prior: DeviationPrior, reduction: str = "mean"):
    """Weighted sum of per-base query losses, its per-base gradients, and
    each base's unweighted loss.

    ``bases`` is a sequence of (net, X, y); ``weights`` is either None
    (every base counts with weight 1, the unweighted aggregation) or a
    normalized importance vector.
    """
    n = len(bases)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ContractError(f"weights length {w.shape} != number of bases {n}")
        if not np.isfinite(w).all():
            raise NumericError(f"cdl aggregation: non-finite weights {w.tolist()}")
        if (w < 0).any():
            raise ContractError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ContractError(f"weights must sum to 1, got {w.sum()!r}")
    total = 0.0
    grads = []
    losses = []
    for wi, (net, X, y) in zip(w, bases):
        loss_i, grad_i = base_loss_grad(net, X, y, prior, reduction)
        total += wi * loss_i
        grads.append(wi * grad_i)
        losses.append(loss_i)
    return total, grads, losses
