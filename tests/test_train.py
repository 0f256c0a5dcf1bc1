import math
import sys
import threading

import numpy as np
import pytest

from hetanom.errors import ConfigurationError, HetanomError
from hetanom.losses import base_loss, base_loss_grad, cdl_loss
from hetanom.nets import AdamState, ScorerNet
from hetanom.partition import TrainingTable, build_distributions, kmeans
from hetanom.schema import build
from hetanom.seeding import derive_seed, rng_for
from hetanom.train import (
    C_OTHER,
    C_UNSEEN,
    LR_BASE,
    LR_SEQ,
    LR_UNIFIED,
    SEQ_BATCH_SIZE,
    ImportanceState,
    TrainConfig,
    fit,
    generalization_errors,
    importance_weights,
    train_bases_epoch,
    unified_update,
)

from conftest import make_dataset, train_support_epoch


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_field_names_in_errors(self):
        with pytest.raises(ConfigurationError, match="train.T"):
            build("train", TrainConfig, {"T": 0})
        with pytest.raises(ConfigurationError, match="K"):
            TrainConfig(K=9, warmup_epochs=5)

    def test_paper_values_are_constants(self):
        # the paper fixes them, so no config sets them
        assert (LR_BASE, LR_UNIFIED, LR_SEQ, SEQ_BATCH_SIZE, C_UNSEEN, C_OTHER) == \
            (2e-4, 5e-3, 2e-2, 256, 1.0, 0.5)
        assert list(TrainConfig.__dataclass_fields__) == [
            "T", "C", "K", "epochs", "warmup_epochs", "batch_size", "hidden",
            "strict_openness", "seed"]


class TestImportanceWeights:
    def test_zero_errors_give_uniform(self):
        w = importance_weights(np.zeros(4))
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15)

    def test_analytic_softmax(self):
        w = importance_weights(np.array([0.0, math.log(2.0)]))
        assert abs(w[0] - 2.0 / 3.0) < 1e-12
        assert abs(w[1] - 1.0 / 3.0) < 1e-12

    def test_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = importance_weights(rng.uniform(0, 10, size=7))
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("w, shown", [
        ([1.5, -0.5], r"\[1\.5, -0\.5\]"),
        ([0.7, 0.7], r"\[0\.7, 0\.7\]"),
        ([np.nan, 1.0], r"\[nan, 1\.0\]"),
        ([np.inf, 0.0], r"\[inf, 0\.0\]"),
    ], ids=["negative", "sum", "nan", "inf"])
    def test_state_validation(self, w, shown):
        # the one check of the weights every unified step takes
        with pytest.raises(HetanomError, match=r"^importance estimation: weights at epoch 3 must be "
                           r"finite, non-negative and sum to 1: " + shown + "$"):
            ImportanceState(epoch=3, w=np.array(w))

    def test_nan_error_is_rejected_with_stage_and_epoch(self):
        w = importance_weights(np.array([np.nan, 1.0]))
        assert np.isnan(w).all()  # softmax spreads one NaN to every weight
        with pytest.raises(HetanomError, match="importance estimation.*epoch 7"):
            ImportanceState(epoch=7, w=w)


def small_table(y, support_rows, query_rows=(), dim=2, seed=0) -> TrainingTable:
    """A TrainingTable over labels ``y`` with random features."""
    y = np.asarray(y, dtype=np.int64)
    support_rows, query_rows = (tuple(np.asarray(r, dtype=np.int64) for r in sets)
                                for sets in (support_rows, query_rows))
    return TrainingTable(ids=tuple(f"s{j}" for j in range(len(y))),
                         X=np.random.default_rng(seed).normal(size=(len(y), dim)), y=y,
                         support_rows=support_rows, query_rows=query_rows)


class TestGeneralizationErrors:
    def test_single_unseen_anomaly_contribution(self):
        # one base whose support is row 0, a normal: row 1, an anomaly
        # outside the support predicted 0, contributes 1 with weight 1
        preds = np.array([[0.3], [0.0]])
        r = generalization_errors(preds, small_table([0, 1], [[0]]))
        assert r[0] == 1.0

    def test_seen_anomaly_downweighted(self):
        preds = np.array([[0.3], [0.0]])
        r = generalization_errors(preds, small_table([0, 1], [[0, 1]]))
        assert r[0] == 0.5

    def test_invariant_to_support_normals(self):
        # dropping a base's own support normals from the table must not move r_i
        rng = np.random.default_rng(1)
        n = 20
        y = np.zeros(n, dtype=np.int64)
        y[rng.choice(n, size=6, replace=False)] = 1
        sup_norm = np.flatnonzero((y == 0) & (rng.uniform(size=n) < 0.5))
        sup_anom = np.flatnonzero(y == 1)[:3]
        preds = rng.normal(size=(n, 2))
        full = generalization_errors(preds, small_table(y, [np.concatenate([sup_norm, sup_anom]),
                                                            np.arange(n)]))
        keep = np.setdiff1d(np.arange(n), sup_norm)
        reduced = generalization_errors(preds[keep], small_table(
            y[keep], [np.searchsorted(keep, sup_anom), np.arange(len(keep))]))
        assert full[0] == reduced[0]


class TestTrainBasesEpoch:
    def test_divergence_after_epoch_on_different_supports(self):
        ds = make_dataset(n_normal=40, n_anomaly=8, dim=4, seed=3)
        clusters = kmeans(ds, 3, seed=0)
        coll = build_distributions(ds, clusters, 3, seed=0)
        table = coll.training_table()
        cfg = TrainConfig(T=3, C=3, seed=5)
        g = ScorerNet.init(ds.dim, cfg.hidden, rng_for(5, "init"))
        stack, _ = train_bases_epoch(g, table, cfg, epoch=0)
        assert not (stack.theta[0] == stack.theta[1]).all()

    def test_identical_subsets_identical_params(self):
        # two bases over the same support with the same seeds stay bitwise equal
        ds = make_dataset(n_normal=30, n_anomaly=6, dim=4, seed=4)
        clusters = kmeans(ds, 2, seed=0)
        coll = build_distributions(ds, clusters, 2, seed=0)
        table = coll.training_table()
        rows = table.support_rows[0]
        table = type(table)(ids=table.ids, X=table.X, y=table.y,
                            support_rows=(rows, rows),
                            query_rows=table.query_rows)
        cfg = TrainConfig(T=2, C=2, seed=9)
        g = ScorerNet.init(ds.dim, cfg.hidden, rng_for(9, "init"))
        stack, scores = train_bases_epoch(g, table, cfg, epoch=0)
        assert (stack.theta[0] == stack.theta[1]).all()
        assert (scores[:, 0] == scores[:, 1]).all()

    def test_stationary_support_unchanged(self):
        # single normal scored exactly zero: gradient is zero, Adam is a no-op
        ds = make_dataset(n_normal=2, n_anomaly=1, dim=2, seed=5)
        zero = ScorerNet(2, 4, np.zeros(ScorerNet.param_count(2, 4)))
        cfg = TrainConfig(T=1, batch_size=2, seed=0)
        net = ScorerNet(zero.dim, zero.hidden, zero.theta.copy())
        train_support_epoch(net, AdamState(LR_BASE), ds.features[:1],
                            np.array([0]), cfg, rng_for(0, "x"))
        assert (net.theta == zero.theta).all()


class TestFit:
    def test_warmup_weights_uniform(self, small_ds):
        cfg = TrainConfig(epochs=3, warmup_epochs=5, K=5, seed=1)
        res = fit(small_ds, cfg)
        for record in res.log:
            assert record["r"] is None
            np.testing.assert_array_equal(record["w"], np.full(7, 1.0 / 7.0))

    def test_weights_contract_all_epochs(self, small_ds):
        cfg = TrainConfig(epochs=7, warmup_epochs=5, K=5, seed=2)
        res = fit(small_ds, cfg)
        assert len(res.log) == 7
        for record in res.log:
            w = np.array(record["w"])
            assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-9
        # after warmup the sequence model is in play: r is recorded
        assert res.log[5]["r"] is not None
        assert res.log[6]["seq_loss"] is not None

    def test_fit_deterministic(self, small_ds):
        cfg = TrainConfig(epochs=6, seed=3)
        a = fit(small_ds, cfg)
        b = fit(small_ds, cfg)
        assert (a.unified.theta == b.unified.theta).all()
        assert a.log == b.log

    def test_one_epoch_reduces_support_loss(self, benchmark_ds):
        # measured on the fixed benchmark: one epoch helps >= 6 of 7 bases
        cfg = TrainConfig(epochs=1, seed=0)
        res = fit(benchmark_ds, cfg)
        table = res.table
        g0 = ScorerNet.init(benchmark_ds.dim, cfg.hidden, rng_for(cfg.seed, "init-unified"))
        improved = 0
        for i in range(cfg.T):
            rows = table.support_rows[i]
            before = base_loss(g0, table.X[rows], table.y[rows])
            after = res.log[0]["support_loss"][i]
            improved += int(after < before)
        assert improved >= 6

    def test_requires_anomaly(self):
        ds = make_dataset(n_normal=10, n_anomaly=1, dim=2, seed=0)
        only_normals = ds.take(ds.normal_rows())
        with pytest.raises(HetanomError, match="^training data must contain at least one anomaly$"):
            fit(only_normals, TrainConfig(epochs=1))

    def test_one_shot_auto_mode(self):
        ds = make_dataset(n_normal=30, n_anomaly=1, dim=3, seed=6)
        res = fit(ds, TrainConfig(epochs=1, C=2, T=2, seed=0))
        assert res.collection.mode == "one_shot"

    def test_training_ids_cover_table(self, small_ds):
        res = fit(small_ds, TrainConfig(epochs=1, seed=0))
        ids = set(res.table.ids)
        assert set(small_ds.ids) <= ids
        assert any(s.startswith("pseudo:") for s in ids)


    def test_concurrent_fits_give_their_serial_bits(self, small_ds):
        # fit keeps no module state that a fit in another thread could change
        cfgs = [TrainConfig(epochs=7, warmup_epochs=5, K=5, seed=seed) for seed in (4, 5)]
        got = [None, None]

        def call(i):
            try:
                got[i] = fit(small_ds, cfgs[i])
            except Exception as exc:
                got[i] = exc

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for cfg, res in zip(cfgs, got):
            serial = fit(small_ds, cfg)
            assert res.unified.theta.tobytes() == serial.unified.theta.tobytes()
            assert res.seq_net.theta.tobytes() == serial.seq_net.theta.tobytes()

class TestDegenerateEquivalence:
    def test_t1_matches_standalone_trainer(self, small_ds):
        """With one base the full loop must equal a flat trainer: a copy of
        the unified scorer, one support epoch, one unified Adam step on the
        query gradient."""
        cfg = TrainConfig(T=1, epochs=6, seed=11)
        res = fit(small_ds, cfg)

        clusters = kmeans(small_ds, cfg.C, seed=derive_seed(cfg.seed, "clusters"))
        coll = build_distributions(small_ds, clusters, 1, seed=derive_seed(cfg.seed, "subsets"))
        table = coll.training_table()
        sup = table.support_rows[0]
        qry = table.query_rows[0]

        g = ScorerNet.init(small_ds.dim, cfg.hidden, rng_for(cfg.seed, "init-unified"))
        g_opt = AdamState(LR_UNIFIED)
        trajectory = []
        for epoch in range(cfg.epochs):
            phi = ScorerNet(g.dim, g.hidden, g.theta.copy())
            train_support_epoch(phi, AdamState(LR_BASE), table.X[sup],
                                table.y[sup], cfg, rng_for(cfg.seed, "batches", epoch))
            _, grad = base_loss_grad(phi, table.X[qry], table.y[qry])
            g = ScorerNet(g.dim, g.hidden, g_opt.step(g.theta, 1.0 * grad))
            trajectory.append(g.theta.copy())

        assert (res.unified.theta == trajectory[-1]).all()


class TestUnifiedUpdateLinearity:
    def _bases(self, T=4):
        # base s queries rows 3s to 3s + 5: two anomalies, four normals
        table = small_table(np.tile([0, 0, 1], T + 1), [],
                            [np.arange(3 * s, 3 * s + 6) for s in range(T)], dim=3, seed=2)
        nets = [ScorerNet.init(3, 5, np.random.default_rng(s)) for s in range(T)]
        return table, nets

    def test_uniform_weights_match_scaled_unweighted(self):
        # aggregated gradient with uniform weights == unweighted sum / T
        table, nets = self._bases()
        bases = [(net, table.X[rows], table.y[rows]) for net, rows in zip(nets, table.query_rows)]
        _, weighted, _ = cdl_loss(bases, np.full(4, 0.25))
        unweighted = [base_loss_grad(net, X, y)[1] for net, X, y in bases]
        np.testing.assert_allclose(weighted, np.sum(unweighted, axis=0) / 4.0, atol=1e-12)

    def test_step_on_the_weighted_gradient_sum(self):
        # one Adam step on sum_i w_i * grad_i, added in ascending base order
        table, nets = self._bases()
        w = np.random.default_rng(3).dirichlet(np.ones(4))
        g = ScorerNet.init(3, 5, np.random.default_rng(9))
        stack = ScorerNet(3, 5, np.stack([net.theta for net in nets]))
        new_g, total, losses = unified_update(g, AdamState(LR_UNIFIED), stack, table, w)
        grad = np.zeros_like(g.theta)
        for wi, net, rows in zip(w, nets, table.query_rows):
            grad += wi * base_loss_grad(net, table.X[rows], table.y[rows])[1]
        assert new_g.theta.tobytes() == AdamState(LR_UNIFIED).step(g.theta, grad).tobytes()
        assert losses == [base_loss(net, table.X[rows], table.y[rows])
                          for net, rows in zip(nets, table.query_rows)]
        assert total == sum(wi * loss for wi, loss in zip(w, losses))
