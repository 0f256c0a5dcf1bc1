import math

import numpy as np
import pytest

from hetanom.data import (
    TRAIN_FRACTION,
    FeatureDataset,
    SplitSpec,
    ingest_csv,
    part_sizes,
    stratified_split,
    write_csv,
)
from hetanom.errors import ConfigurationError, HetanomError

from conftest import make_dataset


class TestIngest:
    def test_three_row_readback(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "id,label,class,f0,f1\n"
            "a,0,,1.0,2.0\n"
            "b,0,,3.0,4.0\n"
            "c,1,defect,5.0,6.0\n"
        )
        ds = ingest_csv(path)
        assert ds.dim == 2
        assert ds.n_normal == 2 and ds.n_anomaly == 1
        assert ds.ids == ("a", "b", "c")
        assert ds.class_tags[2] == "defect"
        np.testing.assert_array_equal(ds.features[1], [3.0, 4.0])

    def test_missing_feature_column_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,f0,f1\na,0,,1.0,2.0\nb,0,,3.0\n")
        with pytest.raises(ConfigurationError, match="line 3"):
            ingest_csv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,f0\na,2,,1.0\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            ingest_csv(path)

    def test_header_schema_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,x0\na,0,,1.0\n")
        with pytest.raises(ConfigurationError, match="feature column 0 is .x0., expected f0"):
            ingest_csv(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,label,class,f0\na,0,,1.0\na,1,x,2.0\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            ingest_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("a,0,,1.0\nb,0,,nan\n", "non-finite feature value in sample 'b'"),
        ("a,0,,1.0\na,1,x,2.0\n", "duplicate sample id 'a'"),
        ("a,1,x,1.0\nb,1,x,2.0\n", "dataset has no normal samples"),
    ])
    def test_dataset_errors_name_the_file(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,f0\n" + rows)
        with pytest.raises(ConfigurationError) as info:
            ingest_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_roundtrip_bitwise_on_benchmark(self, tmp_path, benchmark_ds):
        # ingest(write(ds)) == ds, bitwise, on >1000 generated rows
        path = tmp_path / "bench.csv"
        write_csv(benchmark_ds, path)
        back = ingest_csv(path)
        assert back.ids == benchmark_ds.ids
        assert back.class_tags == benchmark_ds.class_tags
        np.testing.assert_array_equal(back.labels, benchmark_ds.labels)
        assert (back.features == benchmark_ds.features).all()


class TestDatasetInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError, match="non-finite"):
            FeatureDataset(("a", "b"), np.array([[1.0], [np.nan]]),
                           np.array([0, 1]), ("", "x"))

    def test_rejects_bad_label(self):
        with pytest.raises(ConfigurationError):
            FeatureDataset(("a", "b"), np.ones((2, 1)), np.array([0, 2]), ("", ""))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FeatureDataset(("a", "a"), np.ones((2, 1)), np.array([0, 0]), ("", ""))

    def test_requires_a_normal(self):
        with pytest.raises(ConfigurationError, match="no normal"):
            FeatureDataset(("a",), np.ones((1, 1)), np.array([1]), ("x",))

    def test_partition_views_cover(self):
        ds = make_dataset(5, 3)
        rows = np.concatenate([ds.normal_rows(), ds.anomaly_rows()])
        assert sorted(rows.tolist()) == list(range(8))

    def test_immutable(self):
        ds = make_dataset(3, 1)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_take_repeated_row_names_the_duplicate(self):
        ds = make_dataset(4, 2)
        with pytest.raises(ConfigurationError, match="duplicate sample id 's1'"):
            ds.take([0, 1, 1])

    def test_take_arrays_read_only_and_unshared(self):
        ds = make_dataset(4, 2)
        sub = ds.take([5, 0, 2])
        assert sub.ids == ("s5", "s0", "s2")
        assert sub.class_tags == (ds.class_tags[5], ds.class_tags[0], ds.class_tags[2])
        np.testing.assert_array_equal(sub.features, ds.features[[5, 0, 2]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[5, 0, 2]])
        for part, whole in ((sub.features, ds.features), (sub.labels, ds.labels)):
            assert not part.flags.writeable
            assert not np.shares_memory(part, whole)


class TestStratifiedSplit:
    def test_exact_counts(self):
        ds = make_dataset(8, 4)
        a, b = stratified_split(ds, SplitSpec(seed=1))
        assert (a.n_normal, a.n_anomaly) == (6, 3)
        assert (b.n_normal, b.n_anomaly) == (2, 1)

    def test_deterministic(self):
        ds = make_dataset(8, 4)
        spec = SplitSpec(seed=99)
        a1, b1 = stratified_split(ds, spec)
        a2, b2 = stratified_split(ds, spec)
        assert a1.ids == a2.ids and b1.ids == b2.ids

    def test_union_disjoint_over_100_seeds(self):
        # membership oracle: union equals input ids, intersection empty
        ds = make_dataset(30, 10)
        for seed in range(100):
            a, b = stratified_split(ds, SplitSpec(seed=seed))
            ids_a, ids_b = set(a.ids), set(b.ids)
            assert not ids_a & ids_b
            assert ids_a | ids_b == set(ds.ids)

    def test_emptying_a_class_raises(self):
        ds = make_dataset(8, 1)
        with pytest.raises(HetanomError, match=r"^class 1: fraction \(0\.75, 0\.25\) empties "
                                               r"one part \(1 samples available\)$"):
            stratified_split(ds, SplitSpec(seed=0))

    def test_part_sizes_match_largest_remainder_rounding(self):
        # the rounding the split used over a tuple of fractions, one per
        # part, kept as the reference for its two parts
        fractions = (TRAIN_FRACTION, 1.0 - TRAIN_FRACTION)
        for n in range(20_000):
            ideal = [n * f for f in fractions]
            counts = [math.floor(x) for x in ideal]
            remainders = [x - c for x, c in zip(ideal, counts)]
            for i in sorted(range(2), key=lambda i: (-remainders[i], i))[: n - sum(counts)]:
                counts[i] += 1
            assert part_sizes(n) == counts, n


class TestTakeMatchesConstructor:
    """``take`` checks rows instead of hashing ids; what it builds must be
    the dataset the constructor builds from the same columns."""

    @staticmethod
    def big():
        rng = np.random.default_rng(5)
        n = 10_000
        labels = (rng.random(n) < 0.1).astype(np.int64)
        return FeatureDataset(ids=tuple(f"r{i}" for i in rng.permutation(n)),
                              features=rng.normal(size=(n, 6)), labels=labels,
                              class_tags=tuple(f"t{i % 7}" for i in range(n)))

    @staticmethod
    def assert_same(sub, ds, rows):
        rows = np.asarray(rows)
        ref = FeatureDataset(ids=tuple(ds.ids[r] for r in rows),
                             features=ds.features[rows], labels=ds.labels[rows],
                             class_tags=tuple(ds.class_tags[r] for r in rows))
        assert type(sub.ids) is tuple and type(sub.class_tags) is tuple
        assert sub.ids == ref.ids and sub.class_tags == ref.class_tags
        assert sub.features.tobytes() == ref.features.tobytes()
        assert sub.labels.tobytes() == ref.labels.tobytes()
        assert sub.features.dtype == ref.features.dtype and sub.labels.dtype == ref.labels.dtype
        for part, whole in ((sub.features, ds.features), (sub.labels, ds.labels)):
            assert not part.flags.writeable
            assert not np.shares_memory(part, whole)

    def test_permuted_and_sorted_rows(self):
        ds = self.big()
        rows = np.random.default_rng(6).permutation(len(ds))[:7000]
        self.assert_same(ds.take(rows), ds, rows)
        self.assert_same(ds.take(np.sort(rows)), ds, np.sort(rows))
        self.assert_same(ds.take(rows.tolist()), ds, rows)

    def test_one_row_takes(self):
        ds = self.big()
        normal = int(ds.normal_rows()[3])
        for rows in ([normal], np.array([normal]), [normal - len(ds)]):
            sub = ds.take(rows)
            assert len(sub) == 1 and sub.ids == (ds.ids[normal],)
            self.assert_same(sub, ds, [normal])

    def test_repeat_names_the_first_repeat_in_take_order(self):
        ds = make_dataset(4, 2)
        with pytest.raises(ConfigurationError, match=r"^duplicate sample id 's2'$"):
            ds.take([2, 0, 2, 0])
        with pytest.raises(ConfigurationError, match=r"^duplicate sample id 's3'$"):
            ds.take([3, 1, -3])

    def test_out_of_range_refused(self):
        ds = make_dataset(4, 2)
        for rows in ([0, 6], [0, -7]):
            with pytest.raises(IndexError):
                ds.take(rows)

    @pytest.mark.parametrize("rows, message", [
        ([], "dataset is empty"),
        ([4, 5], "dataset has no normal samples"),
    ])
    def test_constructor_checks_still_run(self, rows, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            make_dataset(4, 2).take(rows)

    def test_row_of_on_constructed_and_taken(self):
        ds = self.big()
        assert [ds.row_of(ds.ids[r]) for r in (0, 4321, len(ds) - 1)] == [0, 4321, len(ds) - 1]
        rows = np.arange(len(ds))[::-3]
        sub = ds.take(rows)
        assert [sub.row_of(i) for i in sub.ids] == list(range(len(sub)))
        with pytest.raises(KeyError):
            sub.row_of(ds.ids[1])
