"""Collaborative training of the unified scorer.

Each epoch: (1) every base scorer takes one pass of balanced minibatch
Adam steps over its own support set; (2) all bases score every training
sample, extending each sample's score history; (3) base importance
weights are estimated (uniform during warmup, otherwise from the
sequence predictor's forecast error against the labels); (4) the unified
scorer takes one step on the importance-weighted sum of query-set
gradients evaluated at the trained base parameters; (5) the unified
parameters are broadcast back to all bases.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset
from .errors import ConfigurationError, ContractError, NumericError
from .losses import DeviationPrior, base_loss_grad, cdl_loss, score_loss
from .nets import AdamState, ScorerNet, SequencePredictor
from .partition import (
    FEW_SHOT,
    ONE_SHOT,
    ClusterAssignment,
    DistributionCollection,
    TrainingTable,
    build_distributions,
    kmeans,
)
from .seeding import derive_seed, rng_for

WEIGHTS_SEQUENCE = "sequence"
WEIGHTS_ACCURACY = "accuracy"


@dataclass(frozen=True)
class TrainConfig:
    T: int = 7
    C: int = 3
    K: int = 5
    epochs: int = 30
    warmup_epochs: int = 5
    lr_base: float = 2e-4
    lr_unified: float = 5e-3
    lr_seq: float = 2e-2
    batch_size: int = 32
    seq_batch_size: int = 256
    hidden: int = 64
    c_unseen: float = 1.0
    c_other: float = 0.5
    margin: float = 5.0
    prior_mode: str = "analytic"
    prior_draws: int = 5000
    reduction: str = "mean"
    strict_openness: bool = False
    subset_mode: str | None = None  # None: one-shot iff the data has 1 anomaly
    pseudo_per_subset: int | None = None
    plain_sgd: bool = False
    weight_mode: str = WEIGHTS_SEQUENCE
    seed: int = 0

    def validate(self, prefix: str = "") -> None:
        def bad(name, msg):
            raise ConfigurationError(f"{prefix}{name}: {msg}")

        for name in ("T", "C", "K", "epochs", "warmup_epochs", "batch_size",
                     "seq_batch_size", "hidden"):
            if int(getattr(self, name)) < 1:
                bad(name, "must be >= 1")
        for name in ("lr_base", "lr_unified", "lr_seq", "margin"):
            if getattr(self, name) <= 0:
                bad(name, "must be > 0")
        if self.K > self.warmup_epochs:
            bad("K", f"must be <= warmup_epochs ({self.warmup_epochs}) so histories "
                     "fill before first use")
        if self.reduction not in ("mean", "sum"):
            bad("reduction", "must be 'mean' or 'sum'")
        if self.prior_mode not in ("analytic", "sampled"):
            bad("prior_mode", "must be 'analytic' or 'sampled'")
        if self.weight_mode not in (WEIGHTS_SEQUENCE, WEIGHTS_ACCURACY):
            bad("weight_mode", "must be 'sequence' or 'accuracy'")
        if self.subset_mode not in (None, FEW_SHOT, ONE_SHOT):
            bad("subset_mode", "must be 'few_shot', 'one_shot' or omitted")
        if self.pseudo_per_subset is not None and self.pseudo_per_subset < 0:
            bad("pseudo_per_subset", "must be >= 0")

    def prior(self) -> DeviationPrior:
        if self.prior_mode == "sampled":
            return DeviationPrior.sampled(self.prior_draws,
                                          seed=derive_seed(self.seed, "prior"),
                                          margin=self.margin)
        return DeviationPrior.analytic(margin=self.margin)


class ScoreHistory:
    """Per-sample ring buffers of the last K epoch score vectors, tagged
    with the epoch each vector came from."""

    def __init__(self, n_samples: int, k: int, t: int):
        self.n_samples = n_samples
        self.k = k
        self.t = t
        self._buf: deque[np.ndarray] = deque(maxlen=k)
        self._epochs: deque[int] = deque(maxlen=k)

    def append(self, scores: np.ndarray, epoch: int | None = None) -> None:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (self.n_samples, self.t):
            raise ContractError(f"score matrix must be {(self.n_samples, self.t)}")
        self._buf.append(scores)
        self._epochs.append(epoch if epoch is not None
                            else (self._epochs[-1] + 1 if self._epochs else 0))

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(self._epochs)

    @property
    def full(self) -> bool:
        return len(self._buf) == self.k

    def window(self) -> np.ndarray:
        """(n, K, T) array, oldest epoch first."""
        if not self.full:
            raise ContractError("history buffers are not full yet")
        return np.stack(list(self._buf), axis=1)


@dataclass(frozen=True)
class ImportanceState:
    epoch: int
    w: np.ndarray
    r: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if not np.isfinite(w).all():
            raise NumericError(f"importance estimation: non-finite weights at epoch "
                               f"{self.epoch}: {w.tolist()}")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ContractError("importance weights must be non-negative and sum to 1")
        object.__setattr__(self, "w", w)


def importance_weights(r: np.ndarray) -> np.ndarray:
    """Softmax of the negated generalization errors."""
    z = -np.asarray(r, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def generalization_errors(preds: np.ndarray, y: np.ndarray,
                          support_normal_masks, support_anomaly_masks,
                          c_unseen: float = 1.0, c_other: float = 0.5) -> np.ndarray:
    """Per-base mean weighted squared error of the forecast scores against
    the labels, over every sample except the base's own support normals.
    Anomalies the base never saw in its support weigh ``c_unseen``; its
    seen anomalies and all other normals weigh ``c_other``."""
    n, t = preds.shape
    r = np.empty(t)
    for i in range(t):
        keep = ~np.asarray(support_normal_masks[i])
        unseen_anom = (y == 1) & ~np.asarray(support_anomaly_masks[i])
        c = np.where(unseen_anom, c_unseen, c_other)
        r[i] = float((c[keep] * (preds[keep, i] - y[keep]) ** 2).mean())
    return r


def _draw(rng, rows, size):
    return rng.choice(rows, size=size, replace=len(rows) < size)


def _balanced_batch(rng, normal_rows, anomaly_rows, batch_size):
    # half normals, half anomalies; with replacement only when a side is
    # smaller than its half
    if len(anomaly_rows) == 0:
        return _draw(rng, normal_rows, batch_size)
    if len(normal_rows) == 0:
        return _draw(rng, anomaly_rows, batch_size)
    half = batch_size // 2
    return np.concatenate([
        _draw(rng, normal_rows, batch_size - half),
        _draw(rng, anomaly_rows, half),
    ])


def _train_support_epoch(net: ScorerNet, opt: AdamState, X, y, prior, cfg, rng) -> None:
    y = np.asarray(y)
    normal_rows = np.flatnonzero(y == 0)
    anomaly_rows = np.flatnonzero(y == 1)
    steps = math.ceil(len(y) / cfg.batch_size)
    for _ in range(steps):
        rows = _balanced_batch(rng, normal_rows, anomaly_rows, cfg.batch_size)
        _, grad = base_loss_grad(net, X[rows], y[rows], prior, cfg.reduction)
        net.theta = opt.step(net.theta, grad)


def train_bases_epoch(bases, table: TrainingTable, cfg: TrainConfig,
                      prior: DeviationPrior, epoch: int) -> np.ndarray:
    """One support-set epoch for every base (fresh inner Adam each epoch),
    then score all training samples with all bases: returns (n, T).

    Every base draws from an identically seeded batch stream, so bases
    with identical support sets stay identical; diversity comes from the
    data, not from the sampler.
    """
    for i, net in enumerate(bases):
        rows = table.support_rows[i]
        if rows.size == 0:
            raise ConfigurationError(f"subset {i} has an empty support set")
        opt = AdamState(cfg.lr_base)
        _train_support_epoch(net, opt, table.X[rows], table.y[rows], prior, cfg,
                             rng_for(cfg.seed, "batches", epoch))
    return np.stack([net.forward(table.X) for net in bases], axis=1)


def estimate_importance(history: ScoreHistory, seq_net: SequencePredictor,
                        seq_opt: AdamState, targets: np.ndarray,
                        table: TrainingTable, cfg: TrainConfig, epoch: int) -> tuple:
    """Train the sequence predictor one pass on (history window -> current
    scores), then derive importance weights from its forecast error.
    Returns (state, mean sequence loss over the pass)."""
    if not history.full:
        raise ContractError("importance estimation requires full score histories")
    windows = history.window()
    n = windows.shape[0]
    rng = rng_for(cfg.seed, "seq", epoch)
    order = rng.permutation(n)
    pass_loss = 0.0
    for start in range(0, n, cfg.seq_batch_size):
        rows = order[start : start + cfg.seq_batch_size]
        out, cache = seq_net.forward_with_cache(windows[rows])
        diff = out - targets[rows]
        pass_loss += float((diff ** 2).sum())
        dout = (2.0 / diff.size) * diff
        grad = seq_net.backward(cache, dout)
        seq_net.theta = seq_opt.step(seq_net.theta, grad)
    preds = seq_net.forward(windows)
    sup_norm = [table.support_normal_mask(i) for i in range(cfg.T)]
    sup_anom = [table.support_anomaly_mask(i) for i in range(cfg.T)]
    r = generalization_errors(preds, table.y, sup_norm, sup_anom,
                              cfg.c_unseen, cfg.c_other)
    state = ImportanceState(epoch=epoch, w=importance_weights(r), r=r)
    return state, pass_loss / (n * cfg.T)


def accuracy_importance(scores: np.ndarray, table: TrainingTable,
                        cfg: TrainConfig, epoch: int) -> ImportanceState:
    """Simplified weights: thresholded detection accuracy of each base on
    everything outside its own support, normalized to sum 1."""
    threshold = cfg.margin / 2.0
    acc = np.empty(cfg.T)
    for i in range(cfg.T):
        keep = np.ones(len(table.y), dtype=bool)
        keep[table.support_rows[i]] = False
        pred = (scores[keep, i] >= threshold).astype(np.int64)
        acc[i] = float((pred == table.y[keep]).mean())
    total = acc.sum()
    w = acc / total if total > 0 else np.full(cfg.T, 1.0 / cfg.T)
    return ImportanceState(epoch=epoch, w=w, r=1.0 - acc)


def unified_update(g: ScorerNet, g_opt: AdamState | None, bases,
                   table: TrainingTable, w: np.ndarray,
                   prior: DeviationPrior, cfg: TrainConfig):
    """One unified step on the importance-weighted aggregate of the bases'
    query-set gradients (taken at the trained base parameters)."""
    batches = [
        (bases[i], table.X[table.query_rows[i]], table.y[table.query_rows[i]])
        for i in range(len(bases))
    ]
    total, grads = cdl_loss(batches, w, prior, cfg.reduction)
    agg = np.zeros_like(g.theta)
    for grad_i in grads:  # ascending base index, fixed reduction order
        agg += grad_i
    if cfg.plain_sgd:
        theta = g.theta - cfg.lr_unified * agg
    else:
        theta = g_opt.step(g.theta, agg)
    return ScorerNet(g.dim, g.hidden, theta), total


def broadcast(g: ScorerNet, bases) -> list[ScorerNet]:
    """Reset every base to the unified parameters (bitwise)."""
    for b in bases:
        if (b.dim, b.hidden) != (g.dim, g.hidden):
            raise ContractError("broadcast requires identical architectures")
    return [g.copy() for _ in bases]


@dataclass
class FitResult:
    unified: ScorerNet
    bases: list[ScorerNet]
    seq_net: SequencePredictor | None
    clusters: ClusterAssignment
    collection: DistributionCollection
    table: TrainingTable
    log: list[dict]
    importance: list[ImportanceState]
    config: TrainConfig

    def training_sample_ids(self) -> frozenset[str]:
        """Every id that fed any training structure (real and pseudo)."""
        return frozenset(self.table.ids)


def _logged_losses(scores, table: TrainingTable, rows_per_base, prior, cfg) -> list[float]:
    """Each trained base's loss over its rows, read off the epoch's (n, T)
    score matrix instead of scoring the rows again (log only)."""
    return [score_loss(scores[rows, i], table.y[rows], prior, cfg.reduction)
            for i, rows in enumerate(rows_per_base)]


def fit(ds: FeatureDataset, cfg: TrainConfig, checkpoint_hook=None) -> FitResult:
    """Full training loop; a pure function of (dataset, config)."""
    cfg.validate()
    if ds.n_anomaly < 1:
        raise ContractError("training data must contain at least one anomaly")
    prior = cfg.prior()
    clusters = kmeans(ds, cfg.C, seed=derive_seed(cfg.seed, "clusters"))
    mode = cfg.subset_mode or (ONE_SHOT if ds.n_anomaly == 1 else FEW_SHOT)
    collection = build_distributions(
        ds, clusters, cfg.T, mode=mode, strict_openness=cfg.strict_openness,
        seed=derive_seed(cfg.seed, "subsets"), pseudo_per_subset=cfg.pseudo_per_subset,
    )
    table = collection.training_table()

    g = ScorerNet.init(ds.dim, cfg.hidden, rng_for(cfg.seed, "init-unified"))
    bases = broadcast(g, [g] * cfg.T)
    g_opt = None if cfg.plain_sgd else AdamState(cfg.lr_unified)
    seq_net = None
    seq_opt = None
    if cfg.weight_mode == WEIGHTS_SEQUENCE:
        seq_net = SequencePredictor.init(cfg.T, rng_for(cfg.seed, "init-seq"))
        seq_opt = AdamState(cfg.lr_seq)
    history = ScoreHistory(len(table), cfg.K, cfg.T)

    log: list[dict] = []
    importance_trace: list[ImportanceState] = []
    for epoch in range(cfg.epochs):
        scores = train_bases_epoch(bases, table, cfg, prior, epoch)

        seq_loss = None
        if cfg.weight_mode == WEIGHTS_ACCURACY:
            state = accuracy_importance(scores, table, cfg, epoch)
        elif epoch >= cfg.warmup_epochs:
            state, seq_loss = estimate_importance(history, seq_net, seq_opt,
                                                  scores, table, cfg, epoch)
        else:
            state = ImportanceState(epoch=epoch, w=np.full(cfg.T, 1.0 / cfg.T))
        history.append(scores, epoch)
        importance_trace.append(state)

        g, unified_loss = unified_update(g, g_opt, bases, table, state.w, prior, cfg)
        bases = broadcast(g, bases)

        log.append({
            "epoch": epoch,
            "support_loss": _logged_losses(scores, table, table.support_rows, prior, cfg),
            "query_loss": _logged_losses(scores, table, table.query_rows, prior, cfg),
            "r": None if state.r is None else [float(v) for v in state.r],
            "w": [float(v) for v in state.w],
            "unified_loss": float(unified_loss),
            "seq_loss": None if seq_loss is None else float(seq_loss),
        })
        if checkpoint_hook is not None:
            checkpoint_hook(epoch, g)

    return FitResult(
        unified=g, bases=bases, seq_net=seq_net, clusters=clusters,
        collection=collection, table=table, log=log,
        importance=importance_trace, config=cfg,
    )


def train_scorer(net: ScorerNet, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                 epochs: int, seed: int, prior: DeviationPrior | None = None) -> ScorerNet:
    """Plain standalone training: balanced minibatches, one persistent Adam.
    Used by the baselines and by normals-only fine-tuning."""
    net = net.copy()
    prior = prior if prior is not None else cfg.prior()
    opt = AdamState(cfg.lr_base)
    for epoch in range(epochs):
        _train_support_epoch(net, opt, X, y, prior, cfg,
                             rng_for(seed, "plain", epoch))
    return net
