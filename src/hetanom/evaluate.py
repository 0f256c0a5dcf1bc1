"""Evaluation harness: exact rank AUC, train/test protocols, baselines.

The two same-domain protocols differ only in how the training anomalies
are drawn: the general protocol samples them from every anomaly class,
the hard protocol from a single class so that all other classes are
unseen at training time.
"""

from __future__ import annotations

import io
import os
import threading
import csv as _csv
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import ANOMALY, TRAIN_FRACTION, FeatureDataset, SplitSpec, part_sizes, split_rows
from .errors import ConfigurationError, HetanomError
from .nets import ScorerNet, one_blas_thread
from .seeding import derive_seed, rng_for
from .train import TrainConfig, fit, simulate, train_scorers

#: the repo's fixed evaluation seeds
BENCHMARK_SEEDS = tuple(range(10))

VARIANTS = ("AHL", "HADG_only", "RamHADG", "RamFULL", "CDL_minus", "Homogeneous")
CLUSTERING_VARIANTS = ("AHL", "CDL_minus", "HADG_only")  # they run kmeans on the normals
#: a seed's AUCs, in the order every results writer lists them
METRICS = ("auc_overall", "auc_seen", "auc_unseen", "auc_unseen_macro")
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
        raise HetanomError("AUC needs at least one positive and one negative")
    # the order inside a run of equal scores leaves its midranks as they
    # are, so any sort will do; NaNs sort last, each its own run, and are
    # put back in row order, as a stable sort leaves them
    order = np.argsort(scores)
    s_sorted = scores[order]
    if np.isnan(s_sorted[-1]):
        order[np.searchsorted(s_sorted, np.nan):].sort()
    # runs of equal sorted scores (NaN equals nothing, so each is its own run)
    start = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))
    end = np.append(start[1:], len(scores)) - 1
    ranks2 = np.empty(len(scores), dtype=np.int64)  # doubled 1-based midrank
    ranks2[order] = np.repeat(start + end + 2, end - start + 1)
    sum_pos2 = int(ranks2[pos].sum())
    return (sum_pos2 - m * (m + 1)) / (2 * m * n_neg)


@dataclass(frozen=True)
class ProtocolSpec:
    m_anomalies: int = 10
    seen_class: str | None = None  # the hard protocol: the one class of the M anomalies
    seeds: tuple[int, ...] = BENCHMARK_SEEDS

    @property
    def kind(self) -> str:
        return "general" if self.seen_class is None else "hard"

    def __post_init__(self):
        if self.m_anomalies < 1:
            raise ConfigurationError("m_anomalies: must be >= 1")
        if not self.seeds:
            raise ConfigurationError("seeds: must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds: must be distinct")


@dataclass(frozen=True)
class SeedResult:
    seed: int
    auc_overall: float
    auc_seen: float | None
    auc_unseen: float | None
    auc_unseen_macro: float | None
    seen_classes: tuple[str, ...]


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
        for metric in METRICS:
            ms = self.mean_std(metric)
            aggregate[metric] = None if ms is None else {"mean": ms[0], "std": ms[1]}
        return {
            "variant": self.variant,
            "kind": self.kind,
            "per_seed": [asdict(r) for r in self.per_seed],
            "aggregate": aggregate,
        }


@dataclass
class VariantModel:
    """A trained variant: one unified scorer or an ensemble of bases, and
    the per-epoch log of a ``fit``."""

    name: str
    nets: list[ScorerNet]
    exposure_ids: frozenset[str]
    log: list[dict] | None = None

    def scores(self, X: np.ndarray) -> np.ndarray:
        return np.mean([net.forward(X) for net in self.nets], axis=0)


def run_variant(name: str, ds: FeatureDataset, cfg: TrainConfig) -> VariantModel:
    """Train one variant on ``ds``; the returned model's ``exposure_ids`` are
    the ids of the table it trained from, for leakage audits."""
    name = canonical_variant(name)
    if name in ("AHL", "CDL_minus"):
        res = fit(ds, cfg, accuracy_weights=name == "CDL_minus")
        return VariantModel(name, [res.unified], frozenset(res.table.ids), res.log)
    # the plain variants differ only in the rows each scorer trains on; they
    # train as one stack, scorer i from its own init and batch stream, so
    # Homogeneous's one scorer is scorer 0 of each of the others
    X, y, ids = ds.features, ds.labels, ds.ids
    if name == "Homogeneous":
        rows = [np.arange(len(ids))]
    elif name == "RamFULL":
        rows = [np.arange(len(ids))] * cfg.T
    elif name == "RamHADG":  # scorer i: a random half of each label side, from its own draw
        sides = (ds.normal_rows(), ds.anomaly_rows())
        rngs = [rng_for(cfg.seed, "random-subset", i) for i in range(cfg.T)]
        rows = [np.sort(np.concatenate([rng.permutation(s)[: max(1, len(s) // 2)] for s in sides]))
                for rng in rngs]
    else:  # HADG_only: the structured subsets' support sets, no unified model
        _, _, table = simulate(ds, cfg)
        X, y, ids, rows = table.X, table.y, table.ids, table.support_rows
    inits = [ScorerNet.init(ds.dim, cfg.hidden, rng_for(cfg.seed, "plain-init", i))
             for i in range(len(rows))]
    seeds = [derive_seed(cfg.seed, "plain", i) for i in range(len(rows))]
    nets = train_scorers(inits, X, y, rows, cfg, seeds)
    return VariantModel(name, nets, frozenset(ids))


def _protocol_split(ds: FeatureDataset, spec: ProtocolSpec, seed: int):
    """Per-seed train/test construction: ``TRAIN_FRACTION`` of the normals
    to train, the rest to test, M training anomalies per the protocol, every
    other anomaly to test."""
    normal_rows = ds.normal_rows()
    first, second = split_rows(ds.labels[normal_rows],
                               SplitSpec(seed=derive_seed(seed, "normal-split")))
    norm_train, norm_test = normal_rows[first], normal_rows[second]
    anomaly_rows = ds.anomaly_rows()
    pool = anomaly_pool(ds, spec)
    picked = np.sort(rng_for(seed, "anomaly-pick").choice(pool, size=spec.m_anomalies,
                                                          replace=False))
    rest = np.setdiff1d(anomaly_rows, picked)

    train_rows = np.sort(np.concatenate([norm_train, picked]))
    test_rows = np.sort(np.concatenate([norm_test, rest]))
    seen_classes = tuple(sorted({ds.class_tags[r] for r in picked.tolist()}))
    return ds.take(train_rows), ds.take(test_rows), seen_classes


def anomaly_pool(ds: FeatureDataset, spec: ProtocolSpec) -> np.ndarray:
    """The anomaly rows the protocol draws its M training anomalies from,
    refused as a config error when ``ds`` holds too few."""
    anomaly_rows = ds.anomaly_rows()
    if spec.seen_class is not None:
        pool = np.array([r for r in anomaly_rows.tolist() if ds.class_tags[r] == spec.seen_class],
                        dtype=np.int64)
        if pool.size == 0:
            raise ConfigurationError(
                f"protocol.seen_class: {spec.seen_class!r} not present in dataset")
    else:
        pool = anomaly_rows
    if spec.m_anomalies > pool.size:
        raise ConfigurationError(
            f"protocol.m_anomalies: {spec.m_anomalies} exceeds the {pool.size} available anomalies")
    return pool


def check_split(ds: FeatureDataset, spec: ProtocolSpec) -> None:
    """Refuse, as a config error, a per-seed split ``ds`` cannot carry: fewer
    than 3 normals (3 split into the 2 the pseudo anomalies need to train
    and 1 to test), too few anomalies to draw, or none left to test."""
    if ds.n_normal < 3:
        raise ConfigurationError(f"dataset: {ds.n_normal} normals leave none to test on")
    anomaly_pool(ds, spec)
    if spec.m_anomalies == ds.n_anomaly:
        raise ConfigurationError(
            f"protocol.m_anomalies: {spec.m_anomalies} leaves none of the "
            f"{ds.n_anomaly} anomalies to test")


def check_clusters(ds: FeatureDataset, C: int) -> None:
    """Refuse a ``train.C`` above the normals one seed trains on."""
    n_train = part_sizes(ds.n_normal)[0]
    if C > n_train:
        raise ConfigurationError(f"train.C: {C} exceeds the {n_train} normals a seed trains on")


def _score_test(model: VariantModel, test_ds: FeatureDataset, seed: int,
                seen_classes) -> SeedResult:
    test_ids = set(test_ds.ids)
    leaked = test_ids & model.exposure_ids
    if leaked:
        raise HetanomError(f"test samples leaked into training: {sorted(leaked)[:5]}")
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


def _run_job(job: tuple) -> tuple[SeedResult, VariantModel]:
    """Train and score one (ds, spec, variant, cfg, seed) job: a variant on a seed's split."""
    ds, spec, variant, cfg, seed = job
    root = derive_seed(cfg.seed, "protocol", seed)
    train_ds, test_ds, seen_classes = _protocol_split(ds, spec, root)
    model = run_variant(variant, train_ds, replace(cfg, seed=derive_seed(root, "fit")))
    return _score_test(model, test_ds, seed, seen_classes), model


#: a worker's (ds, spec, variant, cfg, seed) jobs, set by the pool's initializer
_JOBS: tuple = ()
#: set in a worker once a Ctrl-C has ended one of its jobs
_interrupted = False


def _set_jobs(jobs: tuple) -> None:
    global _JOBS
    _JOBS = jobs


def _run_pooled_job(index: int) -> tuple[SeedResult, VariantModel]:
    """``_run_job`` on job ``index`` of ``_JOBS``, in a worker. The worker
    forks with SIGINT blocked (see ``run_protocols``) and takes a Ctrl-C only
    inside a job, where the KeyboardInterrupt goes back to the parent as the
    job's error; outside one it would end the worker with a traceback. A
    Ctrl-C that ended one job of the worker also ends each later one at once,
    since the jobs handed over after it are to stop as well."""
    global _interrupted
    import signal

    try:
        try:
            if _interrupted:
                raise KeyboardInterrupt
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            return _run_job(_JOBS[index])
        finally:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    except KeyboardInterrupt:
        _interrupted = True
        raise


def _usable_cpus() -> int:
    # where the platform has no affinity call (macOS, Windows), the jobs run in-process
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@one_blas_thread()
def run_protocols(ds: FeatureDataset, spec: ProtocolSpec, runs,
                  model_sink=None) -> list[EvalResult]:
    """Run each ``(variant, cfg)`` of ``runs`` across the protocol's seeds, in
    ascending order, and aggregate the AUCs; one ``EvalResult`` per run.

    The (run, seed) jobs run in one process pool of forked workers, one per
    usable CPU up to the job count, or in this process where ``fork`` is
    missing, one CPU is usable, this process is daemonic or it runs other
    threads, as an IPython shell or Jupyter kernel does (a lock one of them
    holds at the fork would stay held in the worker). Results do not depend
    on the worker count, and each call runs only its own jobs, so several
    threads may call at once. What ``ds`` cannot carry (``check_split``, and
    ``check_clusters`` for each run of a clustering variant) is refused before
    any job starts. ``model_sink(seed, model)`` is invoked in this process
    with each trained model, in serial order. A failing job raises as it
    would serially: the first in serial order wins, and no sink runs after
    it. On any error, a Ctrl-C included, the jobs not yet handed to the
    workers are cancelled and the others finish; a Ctrl-C sent to the process
    group also ends the running jobs. A worker that dies fails the call with
    a ``HetanomError`` naming the first job, in serial order, that did not
    finish, which need not be the job the worker ran."""
    # imported here, as at module level they add 11-18 ms to ``import hetanom``
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    runs = [(canonical_variant(variant), cfg) for variant, cfg in runs]
    check_split(ds, spec)
    for variant, cfg in runs:
        if variant in CLUSTERING_VARIANTS:
            check_clusters(ds, cfg.C)
    seeds = sorted(spec.seeds)
    jobs = tuple((ds, spec, variant, cfg, seed) for variant, cfg in runs for seed in seeds)
    workers = min(_usable_cpus(), len(jobs))
    pooled = (workers > 1 and "fork" in multiprocessing.get_all_start_methods()
              and not multiprocessing.current_process().daemon
              and threading.active_count() == 1)
    per_seed, pool = [], None
    try:
        if pooled:
            # Ctrl-C waits until the pool is up (one that interrupts the
            # executor's start-up leaves it unable to shut down); the workers
            # fork with SIGINT blocked, so only a running job takes it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                # the workers inherit ``jobs`` through the fork: nothing is pickled
                pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                           initializer=_set_jobs, initargs=(jobs,))
                results = pool.map(_run_pooled_job, range(len(jobs)))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        else:
            results = map(_run_job, jobs)
        for result, model in results:
            if model_sink is not None:
                model_sink(result.seed, model)
            per_seed.append(result)
    except BrokenProcessPool as exc:
        _, _, variant, _, seed = jobs[len(per_seed)]
        raise HetanomError(f"protocol job ({variant}, seed {seed}) did not finish: "
                           "a worker died") from exc
    finally:
        if pool is not None:  # after an error, cancels the jobs not yet handed to the workers
            pool.shutdown(cancel_futures=True)
    n = len(seeds)
    return [EvalResult(variant, spec.kind, tuple(per_seed[i * n:(i + 1) * n]))
            for i, (variant, _) in enumerate(runs)]


def run_protocol(ds: FeatureDataset, spec: ProtocolSpec, cfg: TrainConfig,
                 variant: str = "AHL", model_sink=None) -> EvalResult:
    """``run_protocols`` for one variant."""
    return run_protocols(ds, spec, [(variant, cfg)], model_sink)[0]


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple[int, ...]

    def __post_init__(self):
        if self.param not in ("C", "K"):
            raise ConfigurationError(f"param: must be 'C' or 'K', got {self.param!r}")
        if not self.values:
            raise ConfigurationError("values: must be a non-empty list")
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError("values: must be distinct")


def swept_config(cfg: TrainConfig, param: str, value: int) -> TrainConfig:
    """``cfg`` with the swept hyperparameter (a ``SweepSpec.param``) set to
    ``value``. Sweeping the history length K raises the warmup so buffers
    still fill before first use."""
    if param == "C":
        return replace(cfg, C=value)
    return replace(cfg, K=value, warmup_epochs=max(cfg.warmup_epochs, value))


def sweep(param: str, values, ds: FeatureDataset, spec: ProtocolSpec,
          cfg: TrainConfig, variant: str = "AHL"):
    """One protocol run per hyperparameter value (see ``swept_config``);
    returns [(value, EvalResult)]. ``param`` and ``values`` are refused as
    in a config's ``sweep`` section."""
    try:
        SweepSpec(param, tuple(values))
    except ConfigurationError as exc:
        raise ConfigurationError(f"sweep.{exc}") from None
    results = run_protocols(ds, spec, [(variant, swept_config(cfg, param, int(value)))
                                       for value in values])
    return list(zip(values, results))


def _cell(value) -> str:
    return "" if value is None else repr(value)


def sweep_csv(param: str, entries) -> str:
    """Plot-data CSV: one row per swept value, with a mean and a std column
    per metric in ``METRICS``."""
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(["param", "value", *(f"{m}_{s}" for m in METRICS for s in ("mean", "std"))])
    for value, result in entries:
        row = [param, value]
        for metric in METRICS:
            row.extend(map(_cell, result.mean_std(metric) or (None, None)))
        writer.writerow(row)
    return buf.getvalue()


def results_csv(results) -> str:
    """One row per (variant, seed), with a column per metric in ``METRICS``."""
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(["variant", "kind", "seed", *METRICS])
    for result in results:
        for r in result.per_seed:
            writer.writerow([result.variant, result.kind, r.seed,
                             *(_cell(getattr(r, m)) for m in METRICS)])
    return buf.getvalue()
