"""Clustering of normal samples and construction of distribution subsets.

Each training run partitions the normal samples into ``k`` clusters and
builds ``T`` subsets, each split into a support set (trains one base
scorer) and a query set (validates it on data the base never saw).
Openness inside every subset comes from three sources: support and query
draw normals from different clusters, the query holds anomalies withheld
from the support, and the pseudo anomalies injected on the two sides are
produced by two different recipes. ``train.simulate`` is the one caller
that runs a training run's clustering and subset construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ANOMALY, NORMAL, FeatureDataset
from .errors import ConfigurationError, HetanomError
from .seeding import rng_for
from .synth import ALL_KINDS, PseudoKind, synthesize_pseudo

ALL_NORMALS = -1  # marks the subset built from every normal cluster

FEW_SHOT = "few_shot"
ONE_SHOT = "one_shot"

KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-6
KMEANS_BLOCK = 2048  # rows per distance block: the block stays in cache


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Result of k-means over the normal samples of one dataset: ``rows``
    are the dataset's normal rows in ascending order, ``assign[j]`` is the
    cluster of ``rows[j]``, and ``ids`` are the dataset's ids."""

    k: int
    rows: np.ndarray
    assign: np.ndarray
    centroids: np.ndarray
    ids: tuple[str, ...] = field(repr=False)

    def members(self, cluster: int) -> np.ndarray:
        """Dataset rows assigned to ``cluster``, in ascending order."""
        return self.rows[self.assign == cluster]


def kmeans(ds: FeatureDataset, k: int, seed: int) -> ClusterAssignment:
    """Cluster the normal rows of ``ds`` with k-means++ seeding and at most
    ``KMEANS_MAX_ITERS`` Lloyd iterations, until the largest centroid shift
    drops below ``KMEANS_TOL``.

    Empty clusters are repaired by moving the point farthest from its own
    centroid into the empty cluster. The points are assigned once more to
    the final centroids unless the last Lloyd step left every centroid
    bitwise unchanged without a repair, when that assignment is already
    the answer. Deterministic per seed.
    """
    rows = ds.normal_rows()
    X = ds.features[rows]
    n = X.shape[0]
    if n < k:
        raise HetanomError(f"k-means needs >= {k} normal samples, got {n}")
    rng = rng_for(seed, "kmeans")

    # dist[c]: each row's squared distance to centroids[c], from the seeding on
    dist = np.empty((k, n))
    scratch = np.empty((min(n, KMEANS_BLOCK), ds.dim))
    centroids = np.empty((k, ds.dim), dtype=np.float64)
    centroids[0] = X[int(rng.integers(n))]
    _sq_dists(X, centroids[0], dist[0], scratch)
    d2 = dist[0].copy()
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = X[int(rng.choice(n, p=probs))]
        _sq_dists(X, centroids[j], dist[j], scratch)
        np.minimum(d2, dist[j], out=d2)

    settled = False
    for step in range(KMEANS_MAX_ITERS):
        assign, repaired = _assign_with_repair(X, centroids, dist, scratch, fill=step > 0)
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = X[assign == c].mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        # a repair moves a point without an argmin, so only a step with no
        # repair and no moved centroid leaves the final assignment to repeat
        settled = not repaired and np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    if not settled:
        assign, _ = _assign_with_repair(X, centroids, dist, scratch)

    return ClusterAssignment(k=k, rows=rows, assign=assign, centroids=centroids, ids=ds.ids)


def _sq_dists(X, centroid, out, scratch) -> None:
    """``out[i] = ((X[i] - centroid) ** 2).sum()``, bit for bit, computed in
    blocks of ``len(scratch)`` rows: no (n, d) temporary."""
    for a in range(0, len(X), len(scratch)):
        block = scratch[: len(X) - a]
        np.subtract(X[a : a + len(block)], centroid, out=block)
        block *= block
        np.add.reduce(block, axis=1, out=out[a : a + len(block)])


def _assign_with_repair(X, centroids, dist, scratch, fill=True) -> tuple[np.ndarray, bool]:
    """Each row's nearest centroid, with empty clusters repaired (which
    moves ``centroids`` in place), and whether any repair was made. The
    (k, n) ``dist`` is filled unless ``fill=False`` says it is current."""
    k = centroids.shape[0]
    if fill:
        for c in range(k):
            _sq_dists(X, centroids[c], dist[c], scratch)
    assign = dist.argmin(axis=0)  # ties to the lowest cluster, as argmin(axis=1) of (n, k)
    repaired = False
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign, repaired
        # move the point farthest from its own centroid into the empty
        # cluster; sole members stay put, so each repair strictly reduces
        # the number of empty clusters. The moved point is a sole member
        # then, so no one reads its new cluster's (stale) row of dist
        own = dist[assign, np.arange(len(assign))]
        own[counts[assign] <= 1] = -np.inf
        far = int(own.argmax())
        centroids[empties[0]] = X[far]
        assign[far] = empties[0]
        repaired = True


def _id_view(rows_field: str, kind) -> property:
    """A read-only property: the ids of the rows in ``rows_field``, as ``kind``."""
    return property(lambda self: kind([self.ids[r] for r in getattr(self, rows_field).tolist()]))


@dataclass(frozen=True, eq=False)
class DistributionDataset:
    """One simulated anomaly distribution: support/query rows plus the
    provenance needed to audit its openness guarantees. Rows index the
    collection's training table, whose ids are ``ids`` (real samples
    first, then pseudo anomalies); the id views serve manifests and
    leakage audits."""

    index: int
    support_rows: np.ndarray
    query_rows: np.ndarray
    support_normal_cluster: int
    query_normal_cluster: int
    support_pseudo_kind: PseudoKind
    query_pseudo_kind: PseudoKind
    seen_rows: np.ndarray
    unseen_rows: np.ndarray
    ids: tuple[str, ...] = field(repr=False)

    support_ids = _id_view("support_rows", tuple)
    query_ids = _id_view("query_rows", tuple)
    virtual_seen = _id_view("seen_rows", frozenset)
    virtual_unseen = _id_view("unseen_rows", frozenset)

    def validate(self, is_anomaly: np.ndarray, strict_openness: bool = False) -> None:
        """Raise :class:`HetanomError` on any violated invariant;
        ``is_anomaly`` flags the anomalous rows of the training table."""
        if (
            self.support_normal_cluster == self.query_normal_cluster
            and self.support_normal_cluster != ALL_NORMALS
        ):
            raise HetanomError(f"subset {self.index}: support and query share a cluster")
        if self.support_pseudo_kind == self.query_pseudo_kind:
            raise HetanomError(f"subset {self.index}: pseudo kinds must differ")
        n = len(is_anomaly)
        if _mask(n, self.seen_rows)[self.unseen_rows].any():
            raise HetanomError(f"subset {self.index}: virtual seen/unseen overlap")
        support = _mask(n, self.support_rows)
        query_anoms = _mask(n, self.query_rows) & is_anomaly
        if not query_anoms[self.unseen_rows].all():
            raise HetanomError(f"subset {self.index}: virtual unseen not confined to query")
        if support[self.unseen_rows].any():
            raise HetanomError(f"subset {self.index}: virtual unseen leaked into support")
        if strict_openness and (support & query_anoms).any():
            raise HetanomError(f"subset {self.index}: support/query anomalies overlap")


def _mask(n: int, rows: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def _rows(values) -> np.ndarray:
    rows = np.asarray(values, dtype=np.int64)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class DistributionCollection:
    """The T subsets built over one dataset plus their pseudo anomalies."""

    ds: FeatureDataset
    subsets: tuple[DistributionDataset, ...]
    pseudo_ids: tuple[str, ...]
    pseudo_features: np.ndarray
    mode: str
    strict_openness: bool

    def validate(self) -> None:
        is_anomaly = np.concatenate([self.ds.labels == ANOMALY,
                                     np.ones(len(self.pseudo_ids), dtype=bool)])
        strict = self.strict_openness and self.mode != ONE_SHOT
        covered = np.zeros(len(is_anomaly), dtype=bool)
        for dd in self.subsets:
            dd.validate(is_anomaly, strict_openness=strict)
            covered[dd.support_rows] = True
            covered[dd.query_rows] = True
        if not covered[self.ds.normal_rows()].all():
            raise HetanomError("some normal samples appear in no subset")

    def training_table(self) -> "TrainingTable":
        ids = self.ds.ids + self.pseudo_ids
        X = np.vstack([self.ds.features, self.pseudo_features]) if self.pseudo_ids else self.ds.features.copy()
        y = np.concatenate([self.ds.labels, np.ones(len(self.pseudo_ids), dtype=np.int64)])
        return TrainingTable(ids=ids, X=X, y=y,
                             support_rows=tuple(dd.support_rows for dd in self.subsets),
                             query_rows=tuple(dd.query_rows for dd in self.subsets))

    def to_manifest(self) -> dict:
        return {
            "format_version": 1,
            "mode": self.mode,
            "strict_openness": self.strict_openness,
            "subsets": [
                {
                    "index": dd.index,
                    "support_ids": list(dd.support_ids),
                    "query_ids": list(dd.query_ids),
                    "support_normal_cluster": dd.support_normal_cluster,
                    "query_normal_cluster": dd.query_normal_cluster,
                    "support_pseudo_kind": dd.support_pseudo_kind.value,
                    "query_pseudo_kind": dd.query_pseudo_kind.value,
                    "virtual_seen": sorted(dd.virtual_seen),
                    "virtual_unseen": sorted(dd.virtual_unseen),
                }
                for dd in self.subsets
            ],
            "pseudo": {
                "ids": list(self.pseudo_ids),
                "features": [[float(v) for v in x] for x in self.pseudo_features],
            },
        }


@dataclass(frozen=True, eq=False)
class TrainingTable:
    """Flat arrays over all samples referenced by any subset (real ones
    first, pseudo anomalies appended), with per-subset row indices."""

    ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    support_rows: tuple[np.ndarray, ...]
    query_rows: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def support_normal_mask(self, i: int) -> np.ndarray:
        """Boolean mask over the table: is this row a support normal of subset i."""
        rows = self.support_rows[i]
        return _mask(len(self.ids), rows[self.y[rows] == NORMAL])

    def support_anomaly_mask(self, i: int) -> np.ndarray:
        rows = self.support_rows[i]
        return _mask(len(self.ids), rows[self.y[rows] == ANOMALY])


def build_distributions(
    ds: FeatureDataset,
    clusters: ClusterAssignment,
    T: int,
    strict_openness: bool = False,
    seed: int = 0,
) -> DistributionCollection:
    """Build ``T`` distribution subsets over ``ds``.

    The first ``T - 1`` subsets each sample two distinct normal clusters
    (one feeds the support set, the other the query set); the last subset
    uses all normals, split randomly in half. Real anomalies are divided
    per subset into virtual seen (support, and also query unless
    ``strict_openness``) and virtual unseen (query only). A dataset with a
    single anomaly is built in :data:`ONE_SHOT` mode: the anomaly lands on
    both sides, which overrides ``strict_openness``. Two distinct pseudo
    recipes per subset corrupt support and query normals respectively, each
    making as many pseudo anomalies as the support has real ones.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if T > 1 and clusters.k < 2:
        raise ConfigurationError("need >= 2 normal clusters to build two-cluster subsets")
    if ds.n_anomaly < 1:
        raise HetanomError("dataset has no anomalies to distribute")
    mode = ONE_SHOT if ds.n_anomaly == 1 else FEW_SHOT

    normal_rows = ds.normal_rows()
    if clusters.ids != ds.ids or not np.array_equal(clusters.rows, normal_rows):
        raise HetanomError("the clusters were computed on another dataset")
    anomaly_rows = ds.anomaly_rows()
    cluster_members = [clusters.members(c) for c in range(clusters.k)]

    built = []
    pseudo_ids: list[str] = []
    pseudo_feats: list[np.ndarray] = []

    for i in range(T):
        rng = rng_for(seed, "subset", i)
        if i < T - 1:
            sup_c, qry_c = (int(c) for c in rng.choice(clusters.k, size=2, replace=False))
            support_normals = cluster_members[sup_c]
            query_normals = cluster_members[qry_c]
        else:
            sup_c = qry_c = ALL_NORMALS
            perm = rng.permutation(len(normal_rows))
            half = len(normal_rows) // 2
            support_normals = normal_rows[np.sort(perm[:half])]
            query_normals = normal_rows[np.sort(perm[half:])]

        if mode == ONE_SHOT:
            seen, unseen = anomaly_rows, anomaly_rows[:0]
            support_anoms = query_anoms = anomaly_rows
        else:
            perm = rng.permutation(len(anomaly_rows))
            n_seen = len(anomaly_rows) // 2
            seen = anomaly_rows[np.sort(perm[:n_seen])]
            unseen = anomaly_rows[np.sort(perm[n_seen:])]
            support_anoms = seen
            query_anoms = unseen if strict_openness else np.concatenate([seen, unseen])

        kind_idx = rng.choice(len(ALL_KINDS), size=2, replace=False)
        sup_kind, qry_kind = ALL_KINDS[int(kind_idx[0])], ALL_KINDS[int(kind_idx[1])]

        n_pseudo = len(support_anoms)
        sup_pseudo = np.arange(n_pseudo) + len(ds) + len(pseudo_ids)
        qry_pseudo = sup_pseudo + n_pseudo
        for side, source, kind in (("s", support_normals, sup_kind), ("q", query_normals, qry_kind)):
            pseudo_ids += [f"pseudo:{i}:{side}:{j}" for j in range(n_pseudo)]
            pseudo_feats.append(_inject_pseudo(ds, source, normal_rows, kind, n_pseudo,
                                               rng_for(seed, "pseudo-pick", i, side)))

        built.append(dict(
            index=i,
            support_rows=_rows(np.concatenate([support_normals, support_anoms, sup_pseudo])),
            query_rows=_rows(np.concatenate([query_normals, query_anoms, qry_pseudo])),
            support_normal_cluster=sup_c,
            query_normal_cluster=qry_c,
            support_pseudo_kind=sup_kind,
            query_pseudo_kind=qry_kind,
            seen_rows=_rows(seen),
            unseen_rows=_rows(unseen),
        ))

    ids = ds.ids + tuple(pseudo_ids)
    collection = DistributionCollection(
        ds=ds,
        subsets=tuple(DistributionDataset(**fields, ids=ids) for fields in built),
        pseudo_ids=tuple(pseudo_ids),
        pseudo_features=np.vstack(pseudo_feats),
        mode=mode,
        strict_openness=strict_openness,
    )
    collection.validate()
    return collection


def _inject_pseudo(ds, source_rows, normal_rows, kind, count, rng) -> np.ndarray:
    """The ``(count, ds.dim)`` block of pseudo anomalies made by corrupting
    normals drawn from ``source_rows``; each donor comes from anywhere in
    the normal pool (other clusters give off-manifold blends) and is never
    its own source. Sources, donors, redrawn donors and the recipe's
    parameters are drawn from ``rng`` in that order."""
    if count > 0 and len(normal_rows) < 2:
        raise HetanomError("pseudo anomalies need at least 2 normal samples")
    src = source_rows[rng.integers(len(source_rows), size=count)]
    donor = normal_rows[rng.integers(len(normal_rows), size=count)]
    same = np.flatnonzero(donor == src)
    while same.size:
        donor[same] = normal_rows[rng.integers(len(normal_rows), size=same.size)]
        same = same[donor[same] == src[same]]
    return synthesize_pseudo(ds.features[src], ds.features[donor], kind, rng)
