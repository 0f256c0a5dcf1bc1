import numpy as np
import pytest

from hetanom.errors import ConfigurationError, UndefinedMetricError
from hetanom.evaluate import (
    EvalResult,
    ProtocolSpec,
    auc,
    canonical_variant,
    run_protocol,
    run_variant,
    sweep,
    sweep_csv,
)
from hetanom.synth import Component, MixtureSpec, generate
from hetanom.train import TrainConfig, fit


def auc_bruteforce(scores, labels):
    """O(n^2) pairwise oracle with doubled half-credits (exact integers)."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins2 = 0
    for a in pos:
        for n in neg:
            if a > n:
                wins2 += 2
            elif a == n:
                wins2 += 1
    return wins2 / (2 * len(pos) * len(neg))


def auc_tie_loop(scores, labels):
    """The former per-row tie loop of ``auc``, kept as a reference: doubled
    midranks of each run of scores equal to the run's first."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels == 1
    m = int(pos.sum())
    n_neg = int(len(labels) - m)
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    ranks2 = np.empty(len(scores), dtype=np.int64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        ranks2[order[i : j + 1]] = (i + 1) + (j + 1)
        i = j + 1
    return (int(ranks2[pos].sum()) - m * (m + 1)) / (2 * m * n_neg)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5

    def test_four_point_example(self):
        # pairs: wins 3, losses 1 -> 0.75
        assert auc([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [1, 1])

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
            assert auc(scores, labels) == auc_bruteforce(scores, labels)

    def test_matches_tie_loop_on_heavy_ties_signed_zeros_and_nan(self):
        rng = np.random.default_rng(2)
        pool = np.array([0.0, -0.0, np.nan, 0.25, -0.25, 1.0, np.inf])
        for _ in range(300):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice(pool, size=n)
            assert auc(scores, labels) == auc_tie_loop(scores, labels)
        scores = rng.integers(0, 40, size=5000) / 8.0
        labels = rng.integers(0, 2, size=5000)
        assert auc(scores, labels) == auc_tie_loop(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(3.0 * scores + 7.0, labels) == base


def tiny_benchmark(seed=0):
    """A small two-class benchmark that trains in well under a second."""
    d = 6
    return generate(MixtureSpec(
        dim=d,
        normal_components=(
            Component((0.0,) * d, (1.0,) * d, 60),
            Component((4.0, 4.0, 0.0, 0.0, 0.0, 0.0), (1.0,) * d, 60),
        ),
        anomaly_components=(
            Component((8.0,) * d, (0.5,) * d, 24, "hot"),
            Component((-6.0,) * d, (0.5,) * d, 24, "cold"),
        ),
        seed=seed,
    ))


FAST = TrainConfig(T=3, C=2, epochs=6, warmup_epochs=5, K=5, hidden=16)


class TestRunProtocol:
    def test_general_protocol_runs(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0, 1))
        res = run_protocol(ds, spec, FAST, "AHL")
        assert len(res.per_seed) == 2
        for r in res.per_seed:
            assert 0.0 <= r.auc_overall <= 1.0

    def test_deterministic(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(3, 4))
        a = run_protocol(ds, spec, FAST, "AHL")
        b = run_protocol(ds, spec, FAST, "AHL")
        assert a == b

    def test_hard_all_classes_seen_reports_absent_unseen(self):
        # only one anomaly class exists: nothing is unseen
        d = 4
        ds = generate(MixtureSpec(
            dim=d,
            normal_components=(Component((0.0,) * d, (1.0,) * d, 80),),
            anomaly_components=(Component((6.0,) * d, (0.5,) * d, 20, "only"),),
            seed=1,
        ))
        spec = ProtocolSpec(kind="hard", seen_class="only", m_anomalies=5, seeds=(0,))
        res = run_protocol(ds, spec, TrainConfig(T=2, C=2, epochs=2, hidden=8), "AHL")
        assert res.per_seed[0].auc_unseen is None
        assert res.per_seed[0].auc_seen is not None

    def test_unknown_seen_class(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="hard", seen_class="nope", m_anomalies=4, seeds=(0,))
        with pytest.raises(ConfigurationError, match="seen_class"):
            run_protocol(ds, spec, FAST, "AHL")

    def test_no_leakage(self):
        ds = tiny_benchmark()
        from hetanom.evaluate import _protocol_split
        from hetanom.seeding import derive_seed
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(5,))
        root = derive_seed(FAST.seed, "protocol", 5)
        train_ds, test_ds, _ = _protocol_split(ds, spec, root)
        from dataclasses import replace
        model = run_variant("AHL", train_ds, replace(FAST, seed=derive_seed(root, "fit")))
        assert not set(test_ds.ids) & model.exposure_ids

    def test_threads_match_serial(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0, 1, 2))
        serial = run_protocol(ds, spec, FAST, "Homogeneous", threads=1)
        parallel = run_protocol(ds, spec, FAST, "Homogeneous", threads=3)
        assert serial == parallel


class TestVariants:
    def test_names_normalized(self):
        assert canonical_variant("ahl") == "AHL"
        assert canonical_variant("hadg-only") == "HADG_only"
        assert canonical_variant("CDL-MINUS") == "CDL_minus"
        with pytest.raises(ConfigurationError):
            canonical_variant("mystery")

    def test_ramfull_t1_equals_homogeneous(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=1, C=2, epochs=3, hidden=8, seed=4)
        ram = run_variant("RamFULL", ds, cfg)
        homog = run_variant("Homogeneous", ds, cfg)
        x = ds.features[:10]
        np.testing.assert_array_equal(ram.scores(x), homog.scores(x))

    def test_cdl_minus_weights_valid_every_epoch(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=3, C=2, epochs=4, hidden=8, seed=5)
        model = run_variant("CDL_minus", ds, cfg)
        assert model.fit_result is not None
        for record in model.fit_result.log:
            w = np.array(record["w"])
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-9
        assert model.fit_result.seq_net is None

    def test_ensembles_average_bases(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=3, C=2, epochs=2, hidden=8, seed=6)
        for name in ("HADG_only", "RamHADG", "RamFULL"):
            model = run_variant(name, ds, cfg)
            assert len(model.nets) == 3
            scores = model.scores(ds.features[:5])
            manual = np.mean([net.forward(ds.features[:5]) for net in model.nets], axis=0)
            np.testing.assert_array_equal(scores, manual)

    def test_hadg_only_simulates_the_subsets_fit_does(self):
        # one subset-simulation path: HADG_only trains on fit's training table,
        # in few-shot mode and in one-shot mode
        ds = tiny_benchmark()
        one_shot = ds.take(np.concatenate([ds.normal_rows(), ds.anomaly_rows()[:1]]))
        cfg = TrainConfig(T=3, C=2, epochs=1, hidden=8, seed=7)
        for data in (ds, one_shot):
            model = run_variant("HADG_only", data, cfg)
            assert model.exposure_ids == fit(data, cfg).training_sample_ids()


class TestSweep:
    def test_c_sweep_rows(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0,))
        entries = sweep("C", [2, 3], ds, spec, FAST)
        text = sweep_csv("C", entries)
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header + 2 values
        assert lines[0].startswith("param,value,auc_overall_mean")

    def test_k_sweep_raises_warmup(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0,))
        entries = sweep("K", [7], ds, spec,
                        TrainConfig(T=2, C=2, epochs=8, warmup_epochs=5, hidden=8))
        assert entries[0][1].per_seed[0].auc_overall is not None

    def test_sweep_deterministic_bytes(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0,))
        a = sweep_csv("C", sweep("C", [2], ds, spec, FAST))
        b = sweep_csv("C", sweep("C", [2], ds, spec, FAST))
        assert a == b

    def test_bad_param(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0,))
        with pytest.raises(ConfigurationError):
            sweep("T", [1], ds, spec, FAST)


class TestEvalResult:
    def test_aggregate_handles_absent(self):
        from hetanom.evaluate import SeedResult
        res = EvalResult(variant="AHL", kind="general", per_seed=(
            SeedResult(0, 0.8, 0.9, None, None, ("a",)),
            SeedResult(1, 0.6, 0.7, None, None, ("a",)),
        ))
        mean, std = res.mean_std("auc_overall")
        assert abs(mean - 0.7) < 1e-12
        assert res.mean_std("auc_unseen") is None
        d = res.to_dict()
        assert d["aggregate"]["auc_unseen"] is None
