import numpy as np
import pytest

from hetanom.data import (
    FeatureDataset,
    SplitSpec,
    ingest_csv,
    stratified_split,
    write_csv,
)
from hetanom.errors import ParseError, SchemaError, SplitError, ValidationError

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
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,f0\na,2,,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_csv(path)

    def test_header_schema_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,x0\na,0,,1.0\n")
        with pytest.raises(SchemaError):
            ingest_csv(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,label,class,f0\na,0,,1.0\na,1,x,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("a,0,,1.0\nb,0,,nan\n", "non-finite feature value in sample 'b'"),
        ("a,0,,1.0\na,1,x,2.0\n", "duplicate sample id 'a'"),
        ("a,1,x,1.0\nb,1,x,2.0\n", "dataset has no normal samples"),
    ])
    def test_dataset_errors_name_the_file(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,class,f0\n" + rows)
        with pytest.raises(ValidationError) as info:
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
        with pytest.raises(ValidationError, match="non-finite"):
            FeatureDataset(("a", "b"), np.array([[1.0], [np.nan]]),
                           np.array([0, 1]), ("", "x"))

    def test_rejects_bad_label(self):
        with pytest.raises(ValidationError):
            FeatureDataset(("a", "b"), np.ones((2, 1)), np.array([0, 2]), ("", ""))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            FeatureDataset(("a", "a"), np.ones((2, 1)), np.array([0, 0]), ("", ""))

    def test_requires_a_normal(self):
        with pytest.raises(ValidationError, match="no normal"):
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
        with pytest.raises(ValidationError, match="duplicate sample id 's1'"):
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
        a, b = stratified_split(ds, SplitSpec(seed=1, fractions=(0.75, 0.25)))
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
        with pytest.raises(SplitError):
            stratified_split(ds, SplitSpec(seed=0, fractions=(0.75, 0.25)))

    def test_fraction_validation(self):
        with pytest.raises(Exception, match="fractions"):
            SplitSpec(seed=0, fractions=(0.6, 0.3))
