"""Evaluation harness: exact rank AUC, train/test protocols, baselines.

The two same-domain protocols differ only in how the training anomalies
are drawn: the general protocol samples them from every anomaly class,
the hard protocol from a single class so that all other classes are
unseen at training time.
"""

from __future__ import annotations

import io
import csv as _csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import ANOMALY, FeatureDataset, SplitSpec, split_rows
from .errors import ConfigurationError, ContractError, UndefinedMetricError
from .nets import ScorerNet, one_blas_thread
from .seeding import derive_seed, rng_for
from .train import FitResult, TrainConfig, fit, simulate, train_scorer, train_scorers

#: the repo's fixed evaluation seeds
BENCHMARK_SEEDS = tuple(range(10))

VARIANTS = ("AHL", "HADG_only", "RamHADG", "RamFULL", "CDL_minus", "Homogeneous")
_VARIANT_LOOKUP = {v.lower().replace("_", "").replace("-", ""): v for v in VARIANTS}


def canonical_variant(name: str) -> str:
    key = name.lower().replace("_", "").replace("-", "")
    if key not in _VARIANT_LOOKUP:
        raise ConfigurationError(f"unknown variant {name!r}; known: {', '.join(VARIANTS)}")
    return _VARIANT_LOOKUP[key]


def auc(scores, labels) -> float:
    """P(anomaly scored above normal) with half credit for ties.

    Computed from doubled midranks so the arithmetic is exact integer
    work until the final division.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels == ANOMALY
    m = int(pos.sum())
    n_neg = int(len(labels) - m)
    if m == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    # runs of equal sorted scores (NaN equals nothing, so each is its own run)
    start = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))
    end = np.append(start[1:], len(scores)) - 1
    ranks2 = np.empty(len(scores), dtype=np.int64)  # doubled 1-based midrank
    ranks2[order] = np.repeat(start + end + 2, end - start + 1)
    sum_pos2 = int(ranks2[pos].sum())
    return (sum_pos2 - m * (m + 1)) / (2 * m * n_neg)


@dataclass(frozen=True)
class ProtocolSpec:
    kind: str  # general | hard
    m_anomalies: int = 10
    seen_class: str | None = None
    seeds: tuple[int, ...] = BENCHMARK_SEEDS
    train_fraction: float = 0.75

    def validate(self, prefix: str = "") -> None:
        def bad(name, msg):
            raise ConfigurationError(f"{prefix}{name}: {msg}")

        if self.kind not in ("general", "hard"):
            bad("kind", "must be 'general' or 'hard'")
        if self.m_anomalies < 1:
            bad("m_anomalies", "must be >= 1")
        if self.kind == "hard" and not self.seen_class:
            bad("seen_class", "required for the hard protocol")
        if not self.seeds:
            bad("seeds", "must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            bad("seeds", "must be distinct")
        if not (0.0 < self.train_fraction < 1.0):
            bad("train_fraction", "must lie in (0, 1)")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    auc_overall: float
    auc_seen: float | None
    auc_unseen: float | None
    auc_unseen_macro: float | None
    seen_classes: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalResult:
    variant: str
    kind: str
    per_seed: tuple[SeedResult, ...]

    def mean_std(self, metric: str) -> tuple[float, float] | None:
        values = [getattr(r, metric) for r in self.per_seed if getattr(r, metric) is not None]
        if not values:
            return None
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    def to_dict(self) -> dict:
        aggregate = {}
        for metric in ("auc_overall", "auc_seen", "auc_unseen", "auc_unseen_macro"):
            ms = self.mean_std(metric)
            aggregate[metric] = None if ms is None else {"mean": ms[0], "std": ms[1]}
        return {
            "variant": self.variant,
            "kind": self.kind,
            "per_seed": [r.to_dict() for r in self.per_seed],
            "aggregate": aggregate,
        }


@dataclass
class VariantModel:
    """A trained variant: one unified scorer or an ensemble of bases."""

    name: str
    nets: list[ScorerNet]
    exposure_ids: frozenset[str]
    fit_result: FitResult | None = None

    def scores(self, X: np.ndarray) -> np.ndarray:
        if len(self.nets) == 1:
            return self.nets[0].forward(X)
        return np.mean([net.forward(X) for net in self.nets], axis=0)


def run_variant(name: str, ds: FeatureDataset, cfg: TrainConfig) -> VariantModel:
    """Train one variant on ``ds``; the returned model records every sample
    id its training structures touched, for leakage audits."""
    name = canonical_variant(name)
    cfg.validate()
    if name == "AHL":
        res = fit(ds, cfg)
        return VariantModel(name, [res.unified], res.training_sample_ids(), res)
    if name == "CDL_minus":
        res = fit(ds, cfg, accuracy_weights=True)
        return VariantModel(name, [res.unified], res.training_sample_ids(), res)
    if name == "Homogeneous":
        net = ScorerNet.init(ds.dim, cfg.hidden, rng_for(cfg.seed, "plain-init", 0))
        net = train_scorer(net, ds.features, ds.labels, cfg, cfg.epochs,
                           seed=derive_seed(cfg.seed, "plain", 0))
        return VariantModel(name, [net], frozenset(ds.ids))
    # the ensembles: T scorers, each with its own init and batch stream,
    # trained as one stack
    inits = [ScorerNet.init(ds.dim, cfg.hidden, rng_for(cfg.seed, "plain-init", i))
             for i in range(cfg.T)]
    seeds = [derive_seed(cfg.seed, "plain", i) for i in range(cfg.T)]
    if name == "RamFULL":
        rows = [np.arange(len(ds.ids))] * cfg.T
        nets = train_scorers(inits, ds.features, ds.labels, rows, cfg, cfg.epochs, seeds)
        return VariantModel(name, nets, frozenset(ds.ids))
    if name == "RamHADG":
        rows = []
        exposed: set[str] = set()
        normal_rows = ds.normal_rows()
        anomaly_rows = ds.anomaly_rows()
        for i in range(cfg.T):
            rng = rng_for(cfg.seed, "random-subset", i)
            n_sel = rng.permutation(normal_rows)[: max(1, len(normal_rows) // 2)]
            a_sel = rng.permutation(anomaly_rows)[: max(1, len(anomaly_rows) // 2)]
            rows.append(np.sort(np.concatenate([n_sel, a_sel])))
            exposed.update(ds.ids[int(r)] for r in rows[-1])
        nets = train_scorers(inits, ds.features, ds.labels, rows, cfg, cfg.epochs, seeds)
        return VariantModel(name, nets, frozenset(exposed))
    # HADG_only: the structured subsets, but each base trains independently
    # and inference averages the base scores (no unified model)
    _, _, table = simulate(ds, cfg)
    nets = train_scorers(inits, table.X, table.y, table.support_rows, cfg, cfg.epochs, seeds)
    return VariantModel(name, nets, frozenset(table.ids))


def _protocol_split(ds: FeatureDataset, spec: ProtocolSpec, seed: int):
    """Per-seed train/test construction: normals split by train_fraction,
    M training anomalies per the protocol, every other anomaly to test."""
    normal_rows = ds.normal_rows()
    first, second = split_rows(ds.labels[normal_rows], SplitSpec(
        seed=derive_seed(seed, "normal-split"),
        fractions=(spec.train_fraction, 1.0 - spec.train_fraction)))
    norm_train, norm_test = normal_rows[first], normal_rows[second]
    anomaly_rows = ds.anomaly_rows()
    if spec.kind == "hard":
        pool = np.array([r for r in anomaly_rows.tolist() if ds.class_tags[r] == spec.seen_class],
                        dtype=np.int64)
        if pool.size == 0:
            raise ConfigurationError(f"seen_class: {spec.seen_class!r} not present in dataset")
    else:
        pool = anomaly_rows
    if spec.m_anomalies > pool.size:
        raise ConfigurationError(
            f"m_anomalies: {spec.m_anomalies} exceeds the {pool.size} available anomalies")
    picked = np.sort(rng_for(seed, "anomaly-pick").choice(pool, size=spec.m_anomalies,
                                                          replace=False))
    rest = np.setdiff1d(anomaly_rows, picked)

    train_rows = np.sort(np.concatenate([norm_train, picked]))
    test_rows = np.sort(np.concatenate([norm_test, rest]))
    seen_classes = tuple(sorted({ds.class_tags[r] for r in picked.tolist()}))
    return ds.take(train_rows), ds.take(test_rows), seen_classes


def _score_test(model: VariantModel, test_ds: FeatureDataset, seed: int,
                seen_classes) -> SeedResult:
    test_ids = set(test_ds.ids)
    leaked = test_ids & model.exposure_ids
    if leaked:
        raise ContractError(f"test samples leaked into training: {sorted(leaked)[:5]}")
    scores = model.scores(test_ds.features)
    labels = test_ds.labels
    overall = auc(scores, labels)

    # every class tag as a code into the sorted distinct tags
    tags, codes = np.unique(np.array(test_ds.class_tags, dtype=object), return_inverse=True)
    normal_mask = labels == 0
    seen_mask = (labels == 1) & np.array([t in seen_classes for t in tags], dtype=bool)[codes]
    unseen_mask = (labels == 1) & ~seen_mask

    def _masked_auc(anomaly_mask):
        if not anomaly_mask.any():
            return None
        keep = normal_mask | anomaly_mask
        return auc(scores[keep], labels[keep])

    auc_seen = _masked_auc(seen_mask)
    auc_unseen = _masked_auc(unseen_mask)
    macro = None
    if unseen_mask.any():
        per_class = []
        for code in np.unique(codes[unseen_mask]):
            per_class.append(_masked_auc(unseen_mask & (codes == code)))
        macro = float(np.mean(per_class))
    return SeedResult(seed=seed, auc_overall=overall, auc_seen=auc_seen,
                      auc_unseen=auc_unseen, auc_unseen_macro=macro,
                      seen_classes=tuple(seen_classes))


@one_blas_thread()
def _map_seeds(one_seed, seeds, threads: int) -> tuple:
    """``one_seed`` over the seeds in ascending order, on a pool of
    ``threads`` threads when that is more than one."""
    seeds = sorted(seeds)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return tuple(pool.map(one_seed, seeds))
    return tuple(one_seed(s) for s in seeds)


def run_protocol(ds: FeatureDataset, spec: ProtocolSpec, cfg: TrainConfig,
                 variant: str = "AHL", threads: int = 1,
                 model_sink=None) -> EvalResult:
    """Run one variant across the protocol's seeds and aggregate the AUCs.

    ``model_sink(seed, model)`` is invoked with each trained model (for
    persisting logs and checkpoints). Seeds may run in parallel;
    aggregation is by ascending seed.
    """
    spec.validate()
    variant = canonical_variant(variant)

    def one_seed(seed: int) -> SeedResult:
        root = derive_seed(cfg.seed, "protocol", seed)
        train_ds, test_ds, seen_classes = _protocol_split(ds, spec, root)
        seeded_cfg = replace(cfg, seed=derive_seed(root, "fit"))
        model = run_variant(variant, train_ds, seeded_cfg)
        if model_sink is not None:
            model_sink(seed, model)
        return _score_test(model, test_ds, seed, seen_classes)

    return EvalResult(variant=variant, kind=spec.kind,
                      per_seed=_map_seeds(one_seed, spec.seeds, threads))


def swept_config(cfg: TrainConfig, param: str, value: int) -> TrainConfig:
    """``cfg`` with the swept hyperparameter set to ``value``. Sweeping the
    history length K raises the warmup so buffers still fill before first
    use."""
    if param == "C":
        return replace(cfg, C=value)
    return replace(cfg, K=value, warmup_epochs=max(cfg.warmup_epochs, value))


def sweep(param: str, values, ds: FeatureDataset, spec: ProtocolSpec,
          cfg: TrainConfig, variant: str = "AHL", threads: int = 1):
    """One protocol run per hyperparameter value (see ``swept_config``);
    returns [(value, EvalResult)]."""
    if param not in ("C", "K"):
        raise ConfigurationError(f"param: can only sweep C or K, not {param!r}")
    if not values:
        raise ConfigurationError("values: must be non-empty")
    return [(value, run_protocol(ds, spec, swept_config(cfg, param, int(value)), variant,
                                 threads=threads))
            for value in values]


def sweep_csv(param: str, entries) -> str:
    """Plot-data CSV: one row per swept value with mean/std AUC columns."""
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow([
        "param", "value",
        "auc_overall_mean", "auc_overall_std",
        "auc_seen_mean", "auc_seen_std",
        "auc_unseen_mean", "auc_unseen_std",
    ])
    for value, result in entries:
        row = [param, value]
        for metric in ("auc_overall", "auc_seen", "auc_unseen"):
            ms = result.mean_std(metric)
            row.extend(["", ""] if ms is None else [repr(ms[0]), repr(ms[1])])
        writer.writerow(row)
    return buf.getvalue()


def results_csv(results) -> str:
    """One row per (variant, seed) with the three AUC columns."""
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(["variant", "kind", "seed", "auc_overall", "auc_seen", "auc_unseen"])
    for result in results:
        for r in result.per_seed:
            writer.writerow([
                result.variant, result.kind, r.seed,
                repr(r.auc_overall),
                "" if r.auc_seen is None else repr(r.auc_seen),
                "" if r.auc_unseen is None else repr(r.auc_unseen),
            ])
    return buf.getvalue()
