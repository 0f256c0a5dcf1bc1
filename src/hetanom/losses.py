"""Deviation loss against the standard-normal score prior, plus the
weighted aggregation of per-base query losses and gradients that drives
the unified update.

A score is read directly as its deviation from the prior, N(0, 1):
normals are pulled toward 0, anomalies are pushed past the confidence
margin ``MARGIN``. Losses over a sample set are means.
"""

from __future__ import annotations

import numpy as np

from .errors import HetanomError
from .nets import ScorerNet

#: the paper's confidence margin: an anomaly's score is pushed past it
MARGIN = 5.0


def deviation_loss(score, y):
    """Per-sample loss: |score| for normals, max(0, MARGIN - score) for anomalies."""
    dev = np.asarray(score, dtype=np.float64)
    y = np.asarray(y)
    return np.where(y == 0, np.abs(dev), np.maximum(0.0, MARGIN - dev))


def deviation_loss_dscore(score, y):
    """d(loss)/d(score); zero subgradient at the two kinks."""
    dev = np.asarray(score, dtype=np.float64)
    y = np.asarray(y)
    return np.where(y == 0, np.sign(dev), np.where(dev < MARGIN, -1.0, 0.0))


def _mean(values: np.ndarray):
    """Mean over the last axis: a float, or one value per stacked scorer."""
    out = values.mean(axis=-1)
    return float(out) if out.ndim == 0 else out


def base_loss(net: ScorerNet, X: np.ndarray, y: np.ndarray) -> float:
    """Mean deviation loss of one scorer over a sample set."""
    if len(np.atleast_1d(y)) == 0:
        raise HetanomError("base_loss over an empty sample set")
    return score_loss(net.forward(X), y)


def score_loss(scores, y) -> float:
    """Mean deviation loss of scores already computed."""
    return _mean(deviation_loss(scores, y))


def base_loss_grad(net: ScorerNet, X: np.ndarray, y: np.ndarray):
    """Mean loss and its exact reverse-mode gradient w.r.t. the net parameters.

    For a stack of G scorers, X is (G, n, d) and y is (G, n); the losses
    (G,) and the gradients (G, P) are then per scorer.
    """
    if np.size(y) == 0:
        raise HetanomError("base_loss_grad over an empty sample set")
    scores, cache = net.forward_with_cache(np.asarray(X, dtype=np.float64))
    per_sample = deviation_loss(scores, y)
    if not np.isfinite(per_sample).all():
        *scorer, bad = np.argwhere(~np.isfinite(per_sample))[0].tolist()
        where = f" of scorer {scorer[0]}" if scorer else ""
        raise HetanomError(f"non-finite loss at sample index {bad}{where}")
    dscores = deviation_loss_dscore(scores, y) / per_sample.shape[-1]
    return _mean(per_sample), net.backward(cache, dscores)


def cdl_loss(bases, weights):
    """Weighted sum of per-base query losses, the weighted sum of their
    gradients, and each base's unweighted loss.

    ``bases`` is a sequence of (net, X, y); ``weights`` holds one importance
    weight per base (``train.ImportanceState`` checks their contract). The
    gradient is ``sum(w[i] * grad_i)``, added in ascending base order.
    """
    n = len(bases)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise HetanomError(f"cdl aggregation: weights length {w.shape} != number of bases {n}")
    total, gradient, losses = 0.0, 0.0, []
    for wi, (net, X, y) in zip(w, bases):
        loss_i, grad_i = base_loss_grad(net, X, y)
        total += wi * loss_i
        gradient = gradient + wi * grad_i
        losses.append(loss_i)
    return total, gradient, losses
