import re
from dataclasses import replace

import numpy as np
import pytest

from hetanom.data import FeatureDataset
from hetanom.errors import CapacityError, ConfigurationError, ContractError, ValidationError
from hetanom.partition import (
    ALL_NORMALS,
    ONE_SHOT,
    build_distributions,
    kmeans,
)
from conftest import make_dataset


def normals_only(points, n_anomaly=1):
    """Dataset whose normal rows are the given points (plus far anomalies)."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    anoms = np.full((n_anomaly, d), 100.0)
    return FeatureDataset(
        ids=tuple(f"p{i}" for i in range(n + n_anomaly)),
        features=np.vstack([points, anoms]),
        labels=np.array([0] * n + [1] * n_anomaly, dtype=np.int64),
        class_tags=tuple([""] * n + ["far"] * n_anomaly),
    )


class TestKmeans:
    def test_separated_clouds_recovered(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([
            rng.normal(-10.0, 0.1, size=(8, 1)),
            rng.normal(0.0, 0.1, size=(8, 1)),
            rng.normal(10.0, 0.1, size=(8, 1)),
        ])
        ds = normals_only(pts)
        ca = kmeans(ds, 3, seed=1)
        groups = [
            {ca.assignments[f"p{i}"] for i in range(0, 8)},
            {ca.assignments[f"p{i}"] for i in range(8, 16)},
            {ca.assignments[f"p{i}"] for i in range(16, 24)},
        ]
        assert all(len(g) == 1 for g in groups)
        assert len(set().union(*groups)) == 3

    def test_k1_centroid_is_mean(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        ds = normals_only(pts)
        ca = kmeans(ds, 1, seed=0)
        np.testing.assert_allclose(ca.centroids[0], pts.mean(axis=0), atol=1e-12)
        assert set(ca.assignments.values()) == {0}

    def test_sse_against_random_restart_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(12, 2))
        ds = normals_only(pts)
        ca = kmeans(ds, 2, seed=3)
        ours = _sse(pts, ca)

        best = np.inf
        oracle_rng = np.random.default_rng(999)
        for _ in range(200):
            best = min(best, _lloyd_oracle(pts, 2, oracle_rng))
        assert ours <= best * 1.05

    def test_anomalies_ignored(self):
        pts = np.zeros((5, 2))
        ds = normals_only(pts, n_anomaly=3)
        ca = kmeans(ds, 1, seed=0)
        assert set(ca.assignments) == {f"p{i}" for i in range(5)}

    def test_capacity_error(self):
        ds = normals_only(np.zeros((2, 2)))
        with pytest.raises(CapacityError):
            kmeans(ds, 5, seed=0)

    def test_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(20, 4))
        ds = normals_only(pts)
        a = kmeans(ds, 3, seed=7)
        b = kmeans(ds, 3, seed=7)
        assert a.assignments == b.assignments
        assert (a.centroids == b.centroids).all()

    def test_no_empty_clusters(self):
        # duplicated points force collisions that need repair
        pts = np.zeros((6, 2))
        pts[5] = [1.0, 1.0]
        ds = normals_only(pts)
        ca = kmeans(ds, 3, seed=0)
        counts = np.bincount(list(ca.assignments.values()), minlength=3)
        assert (counts > 0).all()


def _sse(points, ca):
    total = 0.0
    for i, point in enumerate(points):
        c = ca.assignments[f"p{i}"]
        total += float(((point - ca.centroids[c]) ** 2).sum())
    return total


def _lloyd_oracle(points, k, rng):
    """Plain Lloyd from random initial points; independent implementation."""
    centroids = points[rng.choice(len(points), size=k, replace=False)].copy()
    for _ in range(100):
        dist = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new = centroids.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new[c] = members.mean(axis=0)
        if np.allclose(new, centroids, atol=1e-12):
            break
        centroids = new
    dist = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float(dist.min(axis=1).sum())


class TestBuildDistributions:
    def _build(self, ds, T=7, C=3, seed=0, **kw):
        clusters = kmeans(ds, C, seed=seed)
        return build_distributions(ds, clusters, T, seed=seed, **kw)

    def test_six_two_cluster_plus_all(self, benchmark_ds):
        coll = self._build(benchmark_ds)
        assert len(coll.subsets) == 7
        two_cluster = [dd for dd in coll.subsets if dd.support_normal_cluster != ALL_NORMALS]
        assert len(two_cluster) == 6
        assert coll.subsets[-1].support_normal_cluster == ALL_NORMALS
        assert coll.subsets[-1].query_normal_cluster == ALL_NORMALS
        for dd in two_cluster:
            assert dd.support_normal_cluster != dd.query_normal_cluster

    def test_virtual_split_half(self):
        ds = make_dataset(n_normal=30, n_anomaly=10, dim=4, seed=2)
        coll = self._build(ds, C=3, T=4)
        for dd in coll.subsets:
            assert len(dd.virtual_seen) == 5
            assert len(dd.virtual_unseen) == 5
            assert not dd.virtual_unseen & set(dd.support_ids)
            # default openness: virtual seen sit in both sides
            assert dd.virtual_seen <= set(dd.support_ids)
            assert dd.virtual_seen <= set(dd.query_ids)

    def test_one_shot_anomaly_everywhere(self):
        ds = make_dataset(n_normal=30, n_anomaly=1, dim=4, seed=3)
        coll = self._build(ds, C=3, T=4)
        anomaly_id = ds.ids[int(ds.anomaly_rows()[0])]
        assert coll.mode == ONE_SHOT
        for dd in coll.subsets:
            assert anomaly_id in set(dd.support_ids)
            assert anomaly_id in set(dd.query_ids)

    def test_strict_openness_disjoint(self):
        ds = make_dataset(n_normal=30, n_anomaly=10, dim=4, seed=4)
        coll = self._build(ds, C=3, T=5, strict_openness=True)
        table = coll.training_table()
        labels = dict(zip(table.ids, table.y.tolist()))
        for dd in coll.subsets:
            sup = {s for s in dd.support_ids if labels[s] == 1}
            qry = {s for s in dd.query_ids if labels[s] == 1}
            assert not sup & qry

    def test_pseudo_kinds_differ_and_counts(self):
        ds = make_dataset(n_normal=30, n_anomaly=10, dim=4, seed=5)
        coll = self._build(ds, C=3, T=5)
        for dd in coll.subsets:
            assert dd.support_pseudo_kind != dd.query_pseudo_kind
        # default pseudo count: one per real support anomaly, on each side
        per_side = 10 // 2
        assert len(coll.pseudo_ids) == 5 * 2 * per_side

    def test_every_normal_covered(self):
        ds = make_dataset(n_normal=25, n_anomaly=4, dim=3, seed=6)
        coll = self._build(ds, C=3, T=3)
        covered = set()
        for dd in coll.subsets:
            covered |= set(dd.support_ids) | set(dd.query_ids)
        assert {ds.ids[i] for i in ds.normal_rows()} <= covered

    def test_bitwise_determinism(self):
        ds = make_dataset(n_normal=40, n_anomaly=8, dim=5, seed=7)
        a = self._build(ds, seed=11)
        b = self._build(ds, seed=11)
        assert a.to_manifest() == b.to_manifest()
        assert (a.pseudo_features == b.pseudo_features).all()

    def test_array_holding_structures_compare_by_identity(self):
        # the generated __eq__ would compare their arrays, which raises
        ds = make_dataset(n_normal=40, n_anomaly=8, dim=5, seed=7)
        for build in (lambda: kmeans(ds, 3, seed=0), lambda: self._build(ds, seed=11),
                      lambda: self._build(ds, seed=11).training_table()):
            a, b = build(), build()
            assert a == a
            assert a != b

    def test_t1_gives_all_subset_only(self):
        ds = make_dataset(n_normal=20, n_anomaly=4, dim=3, seed=8)
        coll = self._build(ds, C=3, T=1)
        assert len(coll.subsets) == 1
        assert coll.subsets[0].support_normal_cluster == ALL_NORMALS

    def test_validator_over_seeds(self, benchmark_ds):
        clusters = kmeans(benchmark_ds, 3, seed=0)
        for seed in range(10):
            coll = build_distributions(benchmark_ds, clusters, 7, seed=seed)
            coll.validate()  # raises on any violated invariant

    def test_config_errors(self):
        ds = make_dataset(n_normal=20, n_anomaly=4, dim=3, seed=10)
        clusters = kmeans(ds, 1, seed=0)
        with pytest.raises(ConfigurationError):
            build_distributions(ds, clusters, 3, seed=0)  # T>1 with one cluster

    def test_clusters_of_another_dataset_refused(self):
        ds = make_dataset(n_normal=30, n_anomaly=6, dim=4, seed=9)
        other = make_dataset(n_normal=31, n_anomaly=5, dim=4, seed=9)
        with pytest.raises(ContractError, match="another dataset"):
            build_distributions(ds, kmeans(other, 3, seed=0), 4, seed=0)

    def test_training_table_masks(self):
        ds = make_dataset(n_normal=30, n_anomaly=10, dim=4, seed=11)
        coll = self._build(ds, C=3, T=4)
        table = coll.training_table()
        assert len(table.ids) == 40 + len(coll.pseudo_ids)
        for i, dd in enumerate(coll.subsets):
            sup_norm = table.support_normal_mask(i)
            sup_anom = table.support_anomaly_mask(i)
            support = set(dd.support_ids)
            for row, sid in enumerate(table.ids):
                in_support = sid in support
                assert sup_norm[row] == (in_support and table.y[row] == 0)
                assert sup_anom[row] == (in_support and table.y[row] == 1)


def _first(subsets, **change):
    """``subsets`` with subset 0 replaced by a copy carrying ``change``."""
    return (replace(subsets[0], **change),) + subsets[1:]


def _share_cluster(subsets):
    return _first(subsets, query_normal_cluster=subsets[0].support_normal_cluster)


def _same_kinds(subsets):
    return _first(subsets, query_pseudo_kind=subsets[0].support_pseudo_kind)


def _seen_is_unseen(subsets):
    sub = subsets[0]
    return _first(subsets, seen_rows=np.append(sub.seen_rows, sub.unseen_rows[0]))


def _unseen_out_of_query(subsets):
    sub = subsets[0]
    return _first(subsets, query_rows=sub.query_rows[sub.query_rows != sub.unseen_rows[0]])


def _unseen_in_support(subsets):
    sub = subsets[0]
    return _first(subsets, support_rows=np.append(sub.support_rows, sub.unseen_rows[0]))


def _seen_in_strict_query(subsets):
    sub = subsets[0]
    return _first(subsets, query_rows=np.append(sub.query_rows, sub.seen_rows[0]))


def _uncover_a_normal(subsets):
    normal = subsets[0].support_rows[0]
    return tuple(replace(sub, support_rows=sub.support_rows[sub.support_rows != normal],
                         query_rows=sub.query_rows[sub.query_rows != normal])
                 for sub in subsets)


class TestValidateRejects:
    """Each check of DistributionCollection.validate, violated on purpose in
    an otherwise valid collection: the edit replaces subsets with corrupted
    copies, and the collection takes them in place of its own."""

    @staticmethod
    def _collection(strict):
        ds = make_dataset(n_normal=30, n_anomaly=10, dim=4, seed=12)
        return build_distributions(ds, kmeans(ds, 3, seed=0), 4,
                                   strict_openness=strict, seed=0)

    @pytest.mark.parametrize("strict", [False, True])
    def test_unedited_manifest_is_valid(self, strict):
        self._collection(strict).validate()

    @pytest.mark.parametrize("edit, strict, message", [
        (_share_cluster, False, "subset 0: support and query share a cluster"),
        (_same_kinds, False, "subset 0: pseudo kinds must differ"),
        (_seen_is_unseen, False, "subset 0: virtual seen/unseen overlap"),
        (_unseen_out_of_query, False, "subset 0: virtual unseen not confined to query"),
        (_unseen_in_support, False, "subset 0: virtual unseen leaked into support"),
        (_seen_in_strict_query, True, "subset 0: support/query anomalies overlap"),
        (_uncover_a_normal, False, "some normal samples appear in no subset"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_violation_raises(self, edit, strict, message):
        coll = self._collection(strict)
        coll = replace(coll, subsets=edit(coll.subsets))
        with pytest.raises(ValidationError, match=re.escape(message)):
            coll.validate()
