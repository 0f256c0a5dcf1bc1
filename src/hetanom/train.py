"""Collaborative training of the unified scorer.

Each epoch: (1) every base scorer takes one pass of balanced minibatch
Adam steps over its own support set; (2) all bases score every training
sample, extending each sample's score history, of which only the last
K epochs are kept; (3) base importance weights are estimated (uniform
during warmup, otherwise from the sequence predictor's forecast error
against the labels); (4) the unified scorer takes one step on the
importance-weighted sum of query-set gradients evaluated at the trained
base parameters. Each epoch's bases start from the unified parameters.
Every loss is the mean deviation loss with margin ``losses.MARGIN``. The
paper's learning rates, the sequence predictor's minibatch size and the
error weights of the importance estimate are the constants below.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import ANOMALY, FeatureDataset
from .errors import ConfigurationError, HetanomError
from .losses import MARGIN, base_loss_grad, cdl_loss, score_loss
from .nets import AdamState, ScorerNet, SequencePredictor, one_blas_thread
from .partition import DistributionCollection, TrainingTable, build_distributions, kmeans
from .seeding import derive_seed, rng_for

LR_BASE = 2e-4  # Adam step size of the base scorers and of the plain baselines
LR_UNIFIED = 5e-3  # of the unified scorer
LR_SEQ = 2e-2  # of the sequence predictor
SEQ_BATCH_SIZE = 256  # the sequence predictor's minibatch
GATHER_ROWS = 4096  # training rows a stack's minibatch steps gather in one call
C_UNSEEN = 1.0  # error weight of an anomaly outside a base's support
C_OTHER = 0.5  # of every other sample outside its support normals


@dataclass(frozen=True)
class TrainConfig:
    T: int = 7
    C: int = 3
    K: int = 5
    epochs: int = 30
    warmup_epochs: int = 5
    batch_size: int = 32
    hidden: int = 64
    strict_openness: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("T", "C", "K", "epochs", "warmup_epochs", "batch_size", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}: must be >= 1")
        if self.T > 1 and self.C < 2:
            raise ConfigurationError("C: must be >= 2 when T > 1 (each of the first T - 1 "
                                     "subsets draws two normal clusters)")
        if self.K > self.warmup_epochs:
            raise ConfigurationError(f"K: must be <= warmup_epochs ({self.warmup_epochs}) so "
                                     "histories fill before first use")


@dataclass(frozen=True)
class ImportanceState:
    epoch: int
    w: np.ndarray
    r: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        # NaN fails the sign test and an infinite weight the sum test
        if not ((w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9):
            raise HetanomError(f"importance estimation: weights at epoch {self.epoch} must be "
                               f"finite, non-negative and sum to 1: {w.tolist()}")
        object.__setattr__(self, "w", w)


def importance_weights(r: np.ndarray) -> np.ndarray:
    """Softmax of the negated generalization errors."""
    z = -np.asarray(r, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def generalization_errors(preds: np.ndarray, table: TrainingTable) -> np.ndarray:
    """Per-base mean weighted squared error of the (n, T) forecast scores
    against the labels of ``table``, over every row except the base's own
    support normals. Anomalies outside the base's support weigh
    ``C_UNSEEN``; its support anomalies and all other normals weigh
    ``C_OTHER``."""
    y = table.y
    label_c = np.where(y == ANOMALY, C_UNSEEN, C_OTHER)
    r = np.empty(len(table.support_rows))
    for i, rows in enumerate(table.support_rows):
        is_anomaly = y[rows] == ANOMALY
        c = label_c.copy()
        c[rows[is_anomaly]] = C_OTHER
        keep = np.ones(len(y), dtype=bool)
        keep[rows[~is_anomaly]] = False
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


def _epoch_batches(rng, y, batch_size):
    """One epoch of balanced batches over a support set's labels, as
    positions in it."""
    normal_rows = np.flatnonzero(y == 0)
    anomaly_rows = np.flatnonzero(y == 1)
    steps = math.ceil(len(y) / batch_size)
    return [_balanced_batch(rng, normal_rows, anomaly_rows, batch_size) for _ in range(steps)]


def _train_stack(stack: ScorerNet, opt: AdamState, X, y, batches) -> None:
    """Minibatch Adam steps for a stack of G scorers, in place.
    ``batches[i]`` lists scorer i's batches as rows of (X, y). Step s is
    one stacked call for every scorer that has an s-th batch; the others
    sit it out with their parameters and Adam moments untouched."""
    theta = stack.theta.copy()
    steps = np.array([len(b) for b in batches])
    shared = min(steps, default=0)
    # the steps every scorer takes, their rows gathered about GATHER_ROWS at
    # a time: (step, G, batch, ...)
    net = ScorerNet(stack.dim, stack.hidden, theta)
    chunk = max(1, GATHER_ROWS // len(batches) // len(batches[0][0])) if shared else 1
    for start in range(0, shared, chunk):
        end = min(start + chunk, shared)
        rows = np.array([b[start:end] for b in batches]).swapaxes(0, 1)
        for X_s, y_s in zip(X[rows], y[rows]):
            _, grad = base_loss_grad(net, X_s, y_s)
            net.theta = theta = opt.step(theta, grad)
    for s in range(shared, steps.max(initial=0)):
        active = np.flatnonzero(steps > s)
        rows = np.stack([batches[i][s] for i in active])
        sub = theta[active]
        _, grad = base_loss_grad(ScorerNet(stack.dim, stack.hidden, sub), X[rows], y[rows])
        theta[active] = opt.step(sub, grad, rows=active)
    stack.theta = theta


def train_bases_epoch(g: ScorerNet, table: TrainingTable, cfg: TrainConfig,
                      epoch: int) -> tuple[ScorerNet, np.ndarray]:
    """One support-set epoch for T bases that start from the unified scorer
    ``g`` (fresh inner Adam each epoch), then score all training samples
    with every base: returns the trained (T, P) stack and the (n, T) scores.

    Every base draws from an identically seeded batch stream, so bases with
    identical support sets stay identical; diversity comes from the data,
    not from the sampler.
    """
    # the draws depend on a support's label counts only: bases with equal
    # counts share them, as positions in the support sorted by label
    drawn = {}
    batches = []
    for i, rows in enumerate(table.support_rows):
        if rows.size == 0:
            raise ConfigurationError(f"subset {i} has an empty support set")
        y = table.y[rows]
        key = (len(y), int(y.sum()))
        if key not in drawn:
            drawn[key] = _epoch_batches(rng_for(cfg.seed, "batches", epoch), np.sort(y),
                                        cfg.batch_size)
        by_label = rows[np.argsort(y, kind="stable")]
        batches.append([by_label[p] for p in drawn[key]])
    stack = ScorerNet(g.dim, g.hidden, np.tile(g.theta, (len(batches), 1)))
    _train_stack(stack, AdamState(LR_BASE), table.X, table.y, batches)
    scores = np.stack([ScorerNet(g.dim, g.hidden, row).forward(table.X)
                       for row in stack.theta], axis=1)
    return stack, scores


def estimate_importance(windows: np.ndarray, seq_net: SequencePredictor,
                        seq_opt: AdamState, targets: np.ndarray,
                        table: TrainingTable, cfg: TrainConfig, epoch: int) -> tuple:
    """Train the sequence predictor one pass on (score history -> current
    scores), then derive importance weights from its forecast error.
    ``windows`` is the (n, K, T) history of the last K epochs' scores,
    oldest first. Returns (state, mean sequence loss over the pass)."""
    n = windows.shape[0]
    rng = rng_for(cfg.seed, "seq", epoch)
    order = rng.permutation(n)
    pass_loss = 0.0
    for start in range(0, n, SEQ_BATCH_SIZE):
        rows = order[start : start + SEQ_BATCH_SIZE]
        out, cache = seq_net.forward_with_cache(windows[rows])
        diff = out - targets[rows]
        pass_loss += float((diff ** 2).sum())
        dout = (2.0 / diff.size) * diff
        grad = seq_net.backward(cache, dout)
        seq_net.theta = seq_opt.step(seq_net.theta, grad)
    r = generalization_errors(seq_net.forward(windows), table)
    state = ImportanceState(epoch=epoch, w=importance_weights(r), r=r)
    return state, pass_loss / (n * cfg.T)


def accuracy_importance(scores: np.ndarray, table: TrainingTable,
                        cfg: TrainConfig, epoch: int) -> ImportanceState:
    """Simplified weights: thresholded detection accuracy of each base on
    everything outside its own support, normalized to sum 1."""
    threshold = MARGIN / 2.0
    acc = np.empty(cfg.T)
    for i in range(cfg.T):
        keep = np.ones(len(table.y), dtype=bool)
        keep[table.support_rows[i]] = False
        pred = (scores[keep, i] >= threshold).astype(np.int64)
        acc[i] = float((pred == table.y[keep]).mean())
    total = acc.sum()
    w = acc / total if total > 0 else np.full(cfg.T, 1.0 / cfg.T)
    return ImportanceState(epoch=epoch, w=w, r=1.0 - acc)


def unified_update(g: ScorerNet, g_opt: AdamState, stack: ScorerNet,
                   table: TrainingTable, w: np.ndarray):
    """One unified Adam step on ``cdl_loss``'s importance-weighted sum of
    the bases' query-set gradients, taken at the trained base parameters
    (row i of ``stack`` is base i; ``w`` comes from an ``ImportanceState``).
    Returns the new unified scorer, the weighted loss and each base's query
    loss."""
    batches = [
        (ScorerNet(g.dim, g.hidden, theta), table.X[rows], table.y[rows])
        for theta, rows in zip(stack.theta, table.query_rows)
    ]
    total, grad, losses = cdl_loss(batches, w)
    return ScorerNet(g.dim, g.hidden, g_opt.step(g.theta, grad)), total, losses


@dataclass
class FitResult:
    unified: ScorerNet
    seq_net: SequencePredictor | None
    collection: DistributionCollection
    table: TrainingTable
    log: list[dict]
    importance: list[ImportanceState]


def _support_losses(scores, table: TrainingTable) -> list[float]:
    """Each trained base's support loss, read off the epoch's (n, T) score
    matrix instead of scoring the rows again (log only)."""
    return [score_loss(scores[rows, i], table.y[rows])
            for i, rows in enumerate(table.support_rows)]


def simulate(ds: FeatureDataset, cfg: TrainConfig):
    """Simulate the T open-set subsets of ``ds``: cluster its normals, then
    build the subsets. Returns (clusters, collection, training table)."""
    clusters = kmeans(ds, cfg.C, seed=derive_seed(cfg.seed, "clusters"))
    collection = build_distributions(ds, clusters, cfg.T, strict_openness=cfg.strict_openness,
                                     seed=derive_seed(cfg.seed, "subsets"))
    return clusters, collection, collection.training_table()


@one_blas_thread()
def fit(ds: FeatureDataset, cfg: TrainConfig, *, accuracy_weights: bool = False) -> FitResult:
    """Full training loop; a pure function of (dataset, config).
    ``accuracy_weights`` replaces the sequence predictor's importance
    weights with each base's detection accuracy (the CDL_minus variant)."""
    if ds.n_anomaly < 1:
        raise HetanomError("training data must contain at least one anomaly")
    _, collection, table = simulate(ds, cfg)

    g = ScorerNet.init(ds.dim, cfg.hidden, rng_for(cfg.seed, "init-unified"))
    g_opt = AdamState(LR_UNIFIED)
    seq_net = None
    seq_opt = None
    if not accuracy_weights:
        seq_net = SequencePredictor.init(cfg.T, rng_for(cfg.seed, "init-seq"))
        seq_opt = AdamState(LR_SEQ)
    history: deque[np.ndarray] = deque(maxlen=cfg.K)  # the last K epochs' (n, T) scores

    log: list[dict] = []
    importance_trace: list[ImportanceState] = []
    for epoch in range(cfg.epochs):
        stack, scores = train_bases_epoch(g, table, cfg, epoch)

        seq_loss = None
        if accuracy_weights:
            state = accuracy_importance(scores, table, cfg, epoch)
        elif epoch >= cfg.warmup_epochs:
            state, seq_loss = estimate_importance(np.stack(history, axis=1), seq_net,
                                                  seq_opt, scores, table, cfg, epoch)
        else:
            state = ImportanceState(epoch=epoch, w=np.full(cfg.T, 1.0 / cfg.T))
        history.append(scores)
        importance_trace.append(state)

        g, unified_loss, query_losses = unified_update(g, g_opt, stack, table, state.w)

        log.append({
            "epoch": epoch,
            "support_loss": _support_losses(scores, table),
            "query_loss": [float(v) for v in query_losses],
            "r": None if state.r is None else [float(v) for v in state.r],
            "w": [float(v) for v in state.w],
            "unified_loss": float(unified_loss),
            "seq_loss": None if seq_loss is None else float(seq_loss),
        })

    return FitResult(unified=g, seq_net=seq_net, collection=collection, table=table,
                     log=log, importance=importance_trace)


def train_scorer(net: ScorerNet, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                 seed: int) -> ScorerNet:
    """``train_scorers`` for one scorer. Nothing in the package calls it; it
    stays as a name the benchmark's span list traces."""
    return train_scorers([net], X, y, [np.arange(len(y))], cfg, [seed])[0]


@one_blas_thread()
def train_scorers(nets, X: np.ndarray, y: np.ndarray, rows, cfg: TrainConfig,
                  seeds) -> list[ScorerNet]:
    """Plain standalone training of several scorers as one stack: for
    ``cfg.epochs``, scorer i takes balanced minibatch steps on rows[i] of
    (X, y) with its own batch stream (seeds[i]) and its own Adam moments and
    step count, exactly as it would alone. Every plain baseline trains here."""
    y = np.asarray(y)
    dim, hidden = nets[0].dim, nets[0].hidden
    if any((n.dim, n.hidden) != (dim, hidden) for n in nets):
        raise HetanomError("stacked training requires identical architectures")
    if len(nets) > 1 and any(len(r) == 0 for r in rows):
        raise HetanomError("stacked training requires training rows for every scorer")
    stack = ScorerNet(dim, hidden, np.stack([n.theta for n in nets]))
    opt = AdamState(LR_BASE)
    for epoch in range(cfg.epochs):
        batches = [[r[p] for p in _epoch_batches(rng_for(seed, "plain", epoch), y[r],
                                                 cfg.batch_size)]
                   for r, seed in zip(rows, seeds)]
        _train_stack(stack, opt, X, y, batches)
    return [ScorerNet(dim, hidden, row) for row in stack.theta]
