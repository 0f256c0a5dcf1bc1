import re
from dataclasses import replace

import numpy as np
import pytest

from hetanom import partition
from hetanom.data import FeatureDataset
from hetanom.errors import ConfigurationError, HetanomError
from hetanom.partition import (
    ALL_NORMALS,
    ONE_SHOT,
    _assign_with_repair,
    _inject_pseudo,
    build_distributions,
    kmeans,
)
from hetanom.seeding import rng_for
from hetanom.synth import PseudoKind, synthesize_pseudo
from conftest import make_dataset, reference_assign_with_repair, reference_kmeans


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
        clusters = sorted(ca.members(c).tolist() for c in range(3))
        assert clusters == [list(range(0, 8)), list(range(8, 16)), list(range(16, 24))]

    def test_k1_centroid_is_mean(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        ds = normals_only(pts)
        ca = kmeans(ds, 1, seed=0)
        np.testing.assert_allclose(ca.centroids[0], pts.mean(axis=0), atol=1e-12)
        assert (ca.assign == 0).all()

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
        np.testing.assert_array_equal(ca.rows, np.arange(5))

    def test_capacity_error(self):
        ds = normals_only(np.zeros((2, 2)))
        with pytest.raises(HetanomError, match="^k-means needs >= 5 normal samples, got 2$"):
            kmeans(ds, 5, seed=0)

    def test_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(20, 4))
        ds = normals_only(pts)
        a = kmeans(ds, 3, seed=7)
        b = kmeans(ds, 3, seed=7)
        assert (a.rows == b.rows).all() and (a.assign == b.assign).all()
        assert (a.centroids == b.centroids).all()

    def test_no_empty_clusters(self):
        # duplicated points force collisions that need repair
        pts = np.zeros((6, 2))
        pts[5] = [1.0, 1.0]
        ds = normals_only(pts)
        ca = kmeans(ds, 3, seed=0)
        counts = np.bincount(ca.assign, minlength=3)
        assert (counts > 0).all()


def _sse(points, ca):
    total = 0.0
    for r, c in zip(ca.rows, ca.assign):
        total += float(((points[r] - ca.centroids[c]) ** 2).sum())
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
        with pytest.raises(HetanomError, match="another dataset"):
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


class TestInjectPseudo:
    @pytest.mark.parametrize("kind", list(PseudoKind))
    def test_donor_is_never_the_source(self, monkeypatch, kind):
        # one source row in a two-row pool: about half the first donors equal
        # their source, so the redraw loop must run, and every donor ends as
        # the other row
        seen = []

        def record(normals, donors, kind, rng):
            seen.append((normals, donors))
            return synthesize_pseudo(normals, donors, kind, rng)

        monkeypatch.setattr(partition, "synthesize_pseudo", record)
        ds = normals_only([[0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]])
        pool = ds.normal_rows()
        block = _inject_pseudo(ds, pool[:1], pool, kind, 60, np.random.default_rng(0))
        assert block.shape == (60, 4)
        (normals, donors), = seen
        assert (normals == ds.features[0]).all() and (donors == ds.features[1]).all()

    def test_zero_count_gives_an_empty_block(self):
        ds = normals_only([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        pool = ds.normal_rows()
        for kind in PseudoKind:
            block = _inject_pseudo(ds, pool, pool, kind, 0, np.random.default_rng(0))
            assert block.shape == (0, 3)

    def test_one_generator_per_subset_side(self, benchmark_ds, monkeypatch):
        # the subset's own stream, then one per side; no stream per pseudo anomaly
        clusters = kmeans(benchmark_ds, 3, seed=0)
        streams, made = [], []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: made.append(seed) or default_rng(seed))
        monkeypatch.setattr(partition, "rng_for",
                            lambda root, *tags: streams.append(tags) or rng_for(root, *tags))
        build_distributions(benchmark_ds, clusters, 3, seed=0)
        assert streams == [tags for i in range(3) for tags in
                           (("subset", i), ("pseudo-pick", i, "s"), ("pseudo-pick", i, "q"))]
        assert len(made) == len(streams)


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
        with pytest.raises(HetanomError, match=re.escape(message)):
            coll.validate()


class TestKmeansMatchesReference:
    """``kmeans`` skips its final assignment when the last Lloyd step
    settled and computes its distances in blocks of ``KMEANS_BLOCK`` rows;
    the result must stay bitwise the reference's."""

    @staticmethod
    def check(ds, k, seed, **kwargs):
        # kmeans reads KMEANS_MAX_ITERS, which the max_iters tests patch
        ca = kmeans(ds, k, seed=seed)
        X = ds.features[ds.normal_rows()]
        centroids, assign, repaired = reference_kmeans(X, k, rng_for(seed, "kmeans"), **kwargs)
        assert ca.centroids.tobytes() == centroids.tobytes()
        assert ca.assign.tobytes() == assign.tobytes()
        return repaired

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_benchmark_bitwise(self, benchmark_ds, k):
        for seed in range(3):
            self.check(benchmark_ds, k, seed)

    def test_max_iters_cut_bitwise(self, benchmark_ds, monkeypatch):
        for max_iters in (1, 2):
            monkeypatch.setattr(partition, "KMEANS_MAX_ITERS", max_iters)
            self.check(benchmark_ds, 5, 4, max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [1, 100])
    def test_repair_on_the_last_step_bitwise(self, max_iters, monkeypatch):
        # two distinct points for three clusters: every Lloyd step leaves a
        # cluster empty and repairs it, the last step included
        monkeypatch.setattr(partition, "KMEANS_MAX_ITERS", max_iters)
        ds = normals_only([[0.0, 0.0]] * 4 + [[5.0, 1.0]] * 3)
        for seed in range(4):
            assert self.check(ds, 3, seed, max_iters=max_iters)

    def test_assign_reports_repairs(self):
        X = np.array([[0.0], [0.0], [5.0]])

        def assign_to(centroids):
            dist, scratch = np.empty((len(centroids), len(X))), np.empty((2, 1))
            return _assign_with_repair(X, centroids, dist, scratch)

        assign, repaired = assign_to(np.array([[0.0], [5.0], [50.0]]))
        assert repaired and sorted(assign.tolist()) == [0, 1, 2]
        assign, repaired = assign_to(np.array([[0.0], [5.0]]))
        assert not repaired and assign.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_blocked_distances_bitwise(self, blocks, extra):
        # tables of blocks * KMEANS_BLOCK + extra rows, around the block cuts
        n = blocks * partition.KMEANS_BLOCK + extra
        rng = np.random.default_rng(n)
        centers = rng.normal(0.0, 4.0, size=(6, 16))
        ds = normals_only(centers[rng.integers(6, size=n)] + rng.normal(size=(n, 16)))
        for k in range(2, 8):
            self.check(ds, k, seed=k)

    def test_blocked_repair_bitwise(self):
        # two distinct points for three clusters, on a table of several
        # distance blocks: every Lloyd step repairs an empty cluster
        n = 2 * partition.KMEANS_BLOCK + 3
        ds = normals_only([[0.0, 0.0]] * (n - 5) + [[5.0, 1.0]] * 5)
        for seed in range(3):
            assert self.check(ds, 3, seed)
