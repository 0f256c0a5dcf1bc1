"""Deviation loss against the standard-normal score prior, plus the
weighted aggregation of per-base query losses that drives the unified
update.

A score is read directly as its deviation from the prior, N(0, 1):
normals are pulled toward 0, anomalies are pushed past a confidence
``margin``. Losses over a sample set are means.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .nets import ScorerNet


def deviation_loss(score, y, margin: float):
    """Per-sample loss: |score| for normals, max(0, margin - score) for anomalies."""
    dev = np.asarray(score, dtype=np.float64)
    y = np.asarray(y)
    return np.where(y == 0, np.abs(dev), np.maximum(0.0, margin - dev))


def deviation_loss_dscore(score, y, margin: float):
    """d(loss)/d(score); zero subgradient at the two kinks."""
    dev = np.asarray(score, dtype=np.float64)
    y = np.asarray(y)
    return np.where(y == 0, np.sign(dev), np.where(dev < margin, -1.0, 0.0))


def _mean(values: np.ndarray):
    """Mean over the last axis: a float, or one value per stacked scorer."""
    out = values.mean(axis=-1)
    return float(out) if out.ndim == 0 else out


def base_loss(net: ScorerNet, X: np.ndarray, y: np.ndarray, margin: float) -> float:
    """Mean deviation loss of one scorer over a sample set."""
    if len(np.atleast_1d(y)) == 0:
        raise ContractError("base_loss over an empty sample set")
    return score_loss(net.forward(X), y, margin)


def score_loss(scores, y, margin: float) -> float:
    """Mean deviation loss of scores already computed."""
    return _mean(deviation_loss(scores, y, margin))


def base_loss_grad(net: ScorerNet, X: np.ndarray, y: np.ndarray, margin: float):
    """Mean loss and its exact reverse-mode gradient w.r.t. the net parameters.

    For a stack of G scorers, X is (G, n, d) and y is (G, n); the losses
    (G,) and the gradients (G, P) are then per scorer.
    """
    if np.size(y) == 0:
        raise ContractError("base_loss_grad over an empty sample set")
    scores, cache = net.forward_with_cache(np.asarray(X, dtype=np.float64))
    per_sample = deviation_loss(scores, y, margin)
    if not np.isfinite(per_sample).all():
        *scorer, bad = np.argwhere(~np.isfinite(per_sample))[0].tolist()
        where = f" of scorer {scorer[0]}" if scorer else ""
        raise NumericError(f"non-finite loss at sample index {bad}{where}")
    dscores = deviation_loss_dscore(scores, y, margin) / per_sample.shape[-1]
    return _mean(per_sample), net.backward(cache, dscores)


def cdl_loss(bases, weights, margin: float):
    """Weighted sum of per-base query losses, its per-base gradients, and
    each base's unweighted loss.

    ``bases`` is a sequence of (net, X, y); ``weights`` is a normalized
    importance vector, one weight per base.
    """
    n = len(bases)
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
        loss_i, grad_i = base_loss_grad(net, X, y, margin)
        total += wi * loss_i
        grads.append(wi * grad_i)
        losses.append(loss_i)
    return total, grads, losses
