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

from dataclasses import dataclass

import numpy as np

from .data import ANOMALY, NORMAL, FeatureDataset
from .errors import CapacityError, ConfigurationError, ContractError, ValidationError
from .seeding import derive_seed, rng_for
from .synth import ALL_KINDS, PseudoAnomalyRecipe, PseudoKind, synthesize_pseudo

ALL_NORMALS = -1  # marks the subset built from every normal cluster

FEW_SHOT = "few_shot"
ONE_SHOT = "one_shot"


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of k-means over the normal samples of one dataset."""

    k: int
    assignments: dict[str, int]
    centroids: np.ndarray

    def members(self, cluster: int, ds: FeatureDataset) -> list[str]:
        """Ids assigned to ``cluster``, in dataset row order."""
        return [s for s in ds.ids if self.assignments.get(s) == cluster]


def kmeans(ds: FeatureDataset, k: int, seed: int, max_iters: int = 100,
           tol: float = 1e-6) -> ClusterAssignment:
    """Cluster the normal rows of ``ds`` with k-means++ seeding and Lloyd
    iterations until the largest centroid shift drops below ``tol``.

    Empty clusters are repaired by moving the point farthest from its own
    centroid into the empty cluster. Deterministic per seed.
    """
    rows = ds.normal_rows()
    X = ds.features[rows]
    n = X.shape[0]
    if n < k:
        raise CapacityError(f"k-means needs >= {k} normal samples, got {n}")
    rng = rng_for(seed, "kmeans")

    centroids = np.empty((k, ds.dim), dtype=np.float64)
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = X[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        assign = _assign_with_repair(X, centroids)
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = X[assign == c].mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    assign = _assign_with_repair(X, centroids)

    return ClusterAssignment(
        k=k,
        assignments={ds.ids[int(r)]: int(c) for r, c in zip(rows, assign)},
        centroids=centroids,
    )


def _assign_with_repair(X, centroids):
    k = centroids.shape[0]
    dist = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = dist.argmin(axis=1)
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign
        # move the point farthest from its own centroid into the empty
        # cluster; sole members stay put, so each repair strictly reduces
        # the number of empty clusters
        own = dist[np.arange(len(assign)), assign].copy()
        own[counts[assign] <= 1] = -np.inf
        far = int(own.argmax())
        centroids[empties[0]] = X[far]
        dist[:, empties[0]] = ((X - centroids[empties[0]]) ** 2).sum(axis=1)
        assign[far] = empties[0]


@dataclass(frozen=True)
class DistributionDataset:
    """One simulated anomaly distribution: support/query id lists plus the
    provenance needed to audit its openness guarantees."""

    index: int
    support_ids: tuple[str, ...]
    query_ids: tuple[str, ...]
    support_normal_cluster: int
    query_normal_cluster: int
    support_pseudo_kind: PseudoKind
    query_pseudo_kind: PseudoKind
    virtual_seen: frozenset[str]
    virtual_unseen: frozenset[str]

    def validate(self, labels: dict[str, int], strict_openness: bool = False) -> None:
        """Raise :class:`ValidationError` on any violated invariant."""
        if (
            self.support_normal_cluster == self.query_normal_cluster
            and self.support_normal_cluster != ALL_NORMALS
        ):
            raise ValidationError(f"subset {self.index}: support and query share a cluster")
        if self.support_pseudo_kind == self.query_pseudo_kind:
            raise ValidationError(f"subset {self.index}: pseudo kinds must differ")
        if self.virtual_seen & self.virtual_unseen:
            raise ValidationError(f"subset {self.index}: virtual seen/unseen overlap")
        support = set(self.support_ids)
        query = set(self.query_ids)
        query_anoms = {s for s in query if labels.get(s, ANOMALY) == ANOMALY}
        if not self.virtual_unseen <= query_anoms:
            raise ValidationError(f"subset {self.index}: virtual unseen not confined to query")
        if self.virtual_unseen & support:
            raise ValidationError(f"subset {self.index}: virtual unseen leaked into support")
        if strict_openness:
            support_anoms = {s for s in support if labels.get(s, ANOMALY) == ANOMALY}
            if support_anoms & query_anoms:
                raise ValidationError(f"subset {self.index}: support/query anomalies overlap")


@dataclass(frozen=True)
class DistributionCollection:
    """The T subsets built over one dataset plus their pseudo anomalies."""

    ds: FeatureDataset
    subsets: tuple[DistributionDataset, ...]
    pseudo_ids: tuple[str, ...]
    pseudo_features: np.ndarray
    mode: str
    strict_openness: bool

    def labels(self) -> dict[str, int]:
        out = {s: int(l) for s, l in zip(self.ds.ids, self.ds.labels)}
        out.update({s: ANOMALY for s in self.pseudo_ids})
        return out

    def validate(self) -> None:
        labels = self.labels()
        strict = self.strict_openness and self.mode != ONE_SHOT
        for dd in self.subsets:
            dd.validate(labels, strict_openness=strict)
        covered = set()
        for dd in self.subsets:
            covered.update(dd.support_ids)
            covered.update(dd.query_ids)
        normals = {self.ds.ids[i] for i in self.ds.normal_rows()}
        if not normals <= covered:
            raise ValidationError("some normal samples appear in no subset")

    def training_table(self) -> "TrainingTable":
        ids = self.ds.ids + self.pseudo_ids
        X = np.vstack([self.ds.features, self.pseudo_features]) if self.pseudo_ids else self.ds.features.copy()
        y = np.concatenate([self.ds.labels, np.ones(len(self.pseudo_ids), dtype=np.int64)])
        row = {s: i for i, s in enumerate(ids)}
        support_rows = tuple(
            np.array([row[s] for s in dd.support_ids], dtype=np.int64) for dd in self.subsets
        )
        query_rows = tuple(
            np.array([row[s] for s in dd.query_ids], dtype=np.int64) for dd in self.subsets
        )
        return TrainingTable(ids=ids, X=X, y=y, support_rows=support_rows, query_rows=query_rows)

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

    @classmethod
    def from_manifest(cls, ds: FeatureDataset, manifest: dict) -> "DistributionCollection":
        if manifest.get("format_version") != 1:
            raise ConfigurationError("subset manifest: unknown format_version")
        subsets = tuple(
            DistributionDataset(
                index=int(m["index"]),
                support_ids=tuple(m["support_ids"]),
                query_ids=tuple(m["query_ids"]),
                support_normal_cluster=int(m["support_normal_cluster"]),
                query_normal_cluster=int(m["query_normal_cluster"]),
                support_pseudo_kind=PseudoKind(m["support_pseudo_kind"]),
                query_pseudo_kind=PseudoKind(m["query_pseudo_kind"]),
                virtual_seen=frozenset(m["virtual_seen"]),
                virtual_unseen=frozenset(m["virtual_unseen"]),
            )
            for m in manifest["subsets"]
        )
        pseudo_ids = tuple(manifest["pseudo"]["ids"])
        feats = manifest["pseudo"]["features"]
        pseudo_features = (
            np.array(feats, dtype=np.float64) if pseudo_ids else np.empty((0, ds.dim))
        )
        return cls(
            ds=ds,
            subsets=subsets,
            pseudo_ids=pseudo_ids,
            pseudo_features=pseudo_features,
            mode=manifest["mode"],
            strict_openness=bool(manifest["strict_openness"]),
        )


@dataclass(frozen=True)
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
        mask = np.zeros(len(self.ids), dtype=bool)
        rows = self.support_rows[i]
        mask[rows[self.y[rows] == NORMAL]] = True
        return mask

    def support_anomaly_mask(self, i: int) -> np.ndarray:
        mask = np.zeros(len(self.ids), dtype=bool)
        rows = self.support_rows[i]
        mask[rows[self.y[rows] == ANOMALY]] = True
        return mask


def build_distributions(
    ds: FeatureDataset,
    clusters: ClusterAssignment,
    T: int,
    mode: str = FEW_SHOT,
    strict_openness: bool = False,
    seed: int = 0,
) -> DistributionCollection:
    """Build ``T`` distribution subsets over ``ds``.

    The first ``T - 1`` subsets each sample two distinct normal clusters
    (one feeds the support set, the other the query set); the last subset
    uses all normals, split randomly in half. Real anomalies are divided
    per subset into virtual seen (support, and also query unless
    ``strict_openness``) and virtual unseen (query only); in
    :data:`ONE_SHOT` mode every anomaly lands on both sides, which
    overrides ``strict_openness``. Two distinct pseudo recipes per subset
    corrupt support and query normals respectively, each making as many
    pseudo anomalies as the support has real ones.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if mode not in (FEW_SHOT, ONE_SHOT):
        raise ConfigurationError(f"unknown subset mode {mode!r}")
    if T > 1 and clusters.k < 2:
        raise ConfigurationError("need >= 2 normal clusters to build two-cluster subsets")
    if ds.n_anomaly < 1:
        raise ContractError("dataset has no anomalies to distribute")

    normal_ids = [ds.ids[i] for i in ds.normal_rows()]
    anomaly_ids = [ds.ids[i] for i in ds.anomaly_rows()]
    cluster_members = {c: clusters.members(c, ds) for c in range(clusters.k)}
    normal_row = {s: ds.row_of(s) for s in normal_ids}

    subsets = []
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
            perm = rng.permutation(len(normal_ids))
            half = len(normal_ids) // 2
            support_normals = [normal_ids[j] for j in sorted(perm[:half])]
            query_normals = [normal_ids[j] for j in sorted(perm[half:])]

        if mode == ONE_SHOT:
            virtual_seen = list(anomaly_ids)
            virtual_unseen: list[str] = []
            support_anoms = list(anomaly_ids)
            query_anoms = list(anomaly_ids)
        else:
            perm = rng.permutation(len(anomaly_ids))
            n_seen = len(anomaly_ids) // 2
            virtual_seen = [anomaly_ids[j] for j in sorted(perm[:n_seen])]
            virtual_unseen = [anomaly_ids[j] for j in sorted(perm[n_seen:])]
            support_anoms = list(virtual_seen)
            query_anoms = (virtual_unseen if strict_openness
                           else virtual_seen + virtual_unseen)

        kind_idx = rng.choice(len(ALL_KINDS), size=2, replace=False)
        sup_kind, qry_kind = ALL_KINDS[int(kind_idx[0])], ALL_KINDS[int(kind_idx[1])]

        n_pseudo = len(support_anoms)
        sup_pseudo = _inject_pseudo(ds, support_normals, normal_ids, normal_row,
                                    sup_kind, n_pseudo, seed, i, "s",
                                    pseudo_ids, pseudo_feats)
        qry_pseudo = _inject_pseudo(ds, query_normals, normal_ids, normal_row,
                                    qry_kind, n_pseudo, seed, i, "q",
                                    pseudo_ids, pseudo_feats)

        subsets.append(DistributionDataset(
            index=i,
            support_ids=tuple(support_normals + support_anoms + sup_pseudo),
            query_ids=tuple(query_normals + query_anoms + qry_pseudo),
            support_normal_cluster=sup_c,
            query_normal_cluster=qry_c,
            support_pseudo_kind=sup_kind,
            query_pseudo_kind=qry_kind,
            virtual_seen=frozenset(virtual_seen),
            virtual_unseen=frozenset(virtual_unseen),
        ))

    collection = DistributionCollection(
        ds=ds,
        subsets=tuple(subsets),
        pseudo_ids=tuple(pseudo_ids),
        pseudo_features=(np.vstack(pseudo_feats) if pseudo_feats
                         else np.empty((0, ds.dim))),
        mode=mode,
        strict_openness=strict_openness,
    )
    collection.validate()
    return collection


def _inject_pseudo(ds, source_normals, all_normals, normal_row, kind, count,
                   seed, subset_idx, side, pseudo_ids, pseudo_feats) -> list[str]:
    """Corrupt ``count`` normals from ``source_normals``; donors come from
    anywhere in the normal pool (other clusters give off-manifold blends)."""
    if count > 0 and len(all_normals) < 2:
        raise CapacityError("pseudo anomalies need at least 2 normal samples")
    made = []
    rng = rng_for(seed, "pseudo-pick", subset_idx, side)
    for j in range(count):
        src = source_normals[int(rng.integers(len(source_normals)))]
        donor = src
        while donor == src:
            donor = all_normals[int(rng.integers(len(all_normals)))]
        recipe = PseudoAnomalyRecipe(
            kind=kind, seed=derive_seed(seed, "pseudo", subset_idx, side, j)
        )
        x = synthesize_pseudo(ds.features[normal_row[src]],
                              ds.features[normal_row[donor]], recipe)
        sid = f"pseudo:{subset_idx}:{side}:{j}"
        made.append(sid)
        pseudo_ids.append(sid)
        pseudo_feats.append(x)
    return made
