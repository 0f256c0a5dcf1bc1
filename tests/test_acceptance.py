"""Acceptance suite: every criterion prints one PASS/FAIL line and runs at
its stated tolerance. Run with ``pytest tests/test_acceptance.py -v -s``."""

import contextlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import hetanom as ha
from hetanom import train
from hetanom.cli import main as cli_main
from hetanom.data import ingest_csv, write_csv
from hetanom.evaluate import _protocol_split, run_variant
from hetanom.losses import (MARGIN, base_loss, base_loss_grad, cdl_loss, deviation_loss,
                            deviation_loss_dscore)
from hetanom.nets import AdamState, ScorerNet, SequencePredictor, load_checkpoint, save_checkpoint
from hetanom.partition import ALL_NORMALS
from hetanom.seeding import derive_seed, rng_for
from hetanom.train import LR_BASE, LR_UNIFIED

import pins
from conftest import train_support_epoch
from test_cli import read_tree


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title} ({time.time() - start:.1f}s)")
        raise
    print(f"PASS criterion {number}: {title} ({time.time() - start:.1f}s)")


def grad_close(analytic, numeric, rel=1e-5, floor=1e-8):
    diff = abs(analytic - numeric)
    return diff < floor or diff / max(abs(analytic), abs(numeric)) < rel


def fd_check(loss_at, theta, analytic, coords, h=1e-5):
    for j in coords:
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        numeric = (loss_at(tp) - loss_at(tm)) / (2 * h)
        assert grad_close(analytic[j], numeric), (
            f"coord {j}: analytic {analytic[j]!r} vs numeric {numeric!r}")


def test_criterion_1_gradient_correctness():
    with criterion(1, "finite-difference gradient checks (rel < 1e-5, 20 points each)"):
        start = time.time()
        rng = np.random.default_rng(20240001)

        # scorer + deviation loss chain
        for _ in range(20):
            net = ScorerNet.init(3, 4, rng)
            X = rng.normal(size=(5, 3))
            y = rng.integers(0, 2, size=5)
            _, grad = base_loss_grad(net, X, y)
            fd_check(lambda t: base_loss(ScorerNet(3, 4, t), X, y),
                     net.theta, grad, range(len(net.theta)))

        # deviation loss w.r.t. the score (skip the two kinks)
        for _ in range(20):
            score = float(rng.normal(scale=3.0))
            yv = int(rng.integers(0, 2))
            if abs(score) < 1e-3 or abs(score - MARGIN) < 1e-3:
                score += 0.01
            analytic = float(deviation_loss_dscore(score, yv))
            h = 1e-6
            lo = float(deviation_loss(score - h, yv))
            hi = float(deviation_loss(score + h, yv))
            assert grad_close(analytic, (hi - lo) / (2 * h))

        # weighted aggregation: per-base gradients
        for _ in range(20):
            bases = []
            for _b in range(2):
                net = ScorerNet.init(2, 3, rng)
                X = rng.normal(size=(4, 2))
                y = rng.integers(0, 2, size=4)
                bases.append((net, X, y))
            w = rng.dirichlet(np.ones(2))
            _, grads, _ = cdl_loss(bases, w)
            for b, (net, X, y) in enumerate(bases):
                def loss_at(theta, b=b):
                    trial = list(bases)
                    trial[b] = (ScorerNet(2, 3, theta), bases[b][1], bases[b][2])
                    return cdl_loss(trial, w)[0]
                fd_check(loss_at, net.theta, grads[b], range(len(net.theta)))

        # sequence predictor under its squared-error objective
        for point in range(20):
            net = SequencePredictor.init(2, rng)
            history = rng.normal(size=(3, 3, 2))
            target = rng.normal(size=(3, 2))
            out, cache = net.forward_with_cache(history)
            diff = out - target
            grad = net.backward(cache, (2.0 / diff.size) * diff)

            def seq_loss_at(theta):
                d = SequencePredictor(2, theta).forward(history) - target
                return float((d ** 2).mean())

            coords = rng.choice(len(net.theta), size=60, replace=False)
            fd_check(seq_loss_at, net.theta, grad, coords)

        assert time.time() - start < 10.0


def test_criterion_2_importance_weight_contract(benchmark_ds):
    with criterion(2, "importance weights: sum 1, non-negative, uniform before epoch 5"):
        start = time.time()
        cfg = ha.TrainConfig()  # defaults: T=7, N=30, warmup 5
        assert cfg.epochs == 30
        res = ha.fit(benchmark_ds, cfg)
        for record in res.log:
            w = np.array(record["w"])
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) <= 1e-9
            if record["epoch"] < 5:
                np.testing.assert_array_equal(w, np.full(cfg.T, 1.0 / cfg.T))
        assert any(r["epoch"] >= 5 and r["r"] is not None for r in res.log)
        assert time.time() - start < 60.0


def test_criterion_3_degenerate_equivalence(small_ds, monkeypatch):
    with criterion(3, "T=1 fit trajectory equals a standalone trainer bitwise"):
        start = time.time()
        cfg = ha.TrainConfig(T=1, epochs=8, seed=31)
        trajectory = []
        inner = train.unified_update

        def recording(*args):
            out = inner(*args)
            trajectory.append(out[0].theta.copy())
            return out

        monkeypatch.setattr(train, "unified_update", recording)
        ha.fit(small_ds, cfg)

        clusters = ha.kmeans(small_ds, cfg.C, seed=derive_seed(cfg.seed, "clusters"))
        coll = ha.build_distributions(small_ds, clusters, 1,
                                      seed=derive_seed(cfg.seed, "subsets"))
        table = coll.training_table()
        sup, qry = table.support_rows[0], table.query_rows[0]

        g = ScorerNet.init(small_ds.dim, cfg.hidden, rng_for(cfg.seed, "init-unified"))
        g_opt = AdamState(LR_UNIFIED)
        for epoch in range(cfg.epochs):
            phi = ScorerNet(g.dim, g.hidden, g.theta.copy())
            train_support_epoch(phi, AdamState(LR_BASE), table.X[sup],
                                table.y[sup], cfg, rng_for(cfg.seed, "batches", epoch))
            _, grad = base_loss_grad(phi, table.X[qry], table.y[qry])
            g = ScorerNet(g.dim, g.hidden, g_opt.step(g.theta, grad))
            assert (trajectory[epoch] == g.theta).all(), f"epoch {epoch} diverged"
        assert time.time() - start < 30.0


def test_criterion_4_analytic_values():
    with criterion(4, "hand-computed loss and softmax values to 1e-12"):
        assert abs(float(deviation_loss(2.0, 1)) - 3.0) < 1e-12
        from hetanom.train import importance_weights
        w = importance_weights(np.array([0.0, math.log(2.0)]))
        assert abs(w[0] - 2.0 / 3.0) < 1e-12
        assert abs(w[1] - 1.0 / 3.0) < 1e-12


def test_criterion_5_auc_oracle():
    with criterion(5, "rank AUC equals pairwise brute force on 1000 instances"):
        rng = np.random.default_rng(20240005)

        def brute(scores, labels):
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            wins2 = int((2 * (pos > neg)).sum() + (pos == neg).sum())
            return wins2 / (2 * pos.size * neg.size)

        for _ in range(1000):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            levels = int(rng.integers(2, 12))  # few levels -> many ties
            scores = rng.integers(0, levels, size=n).astype(np.float64)
            assert ha.auc(scores, labels) == brute(scores, labels)

        assert ha.auc([0.0, 0.1, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert ha.auc([0.3, 0.3, 0.3], [0, 1, 1]) == 0.5


def test_criterion_6_structural_audit(benchmark_ds):
    with criterion(6, "subset structure holds for 50 seeds (C=3, T=7)"):
        start = time.time()
        for seed in range(50):
            clusters = ha.kmeans(benchmark_ds, 3, seed=derive_seed(seed, "km"))
            for strict in (False, True):
                coll = ha.build_distributions(benchmark_ds, clusters, 7,
                                              strict_openness=strict,
                                              seed=derive_seed(seed, "bd"))
                table = coll.training_table()
                labels = dict(zip(table.ids, table.y.tolist()))
                two_cluster = [d for d in coll.subsets
                               if d.support_normal_cluster != ALL_NORMALS]
                assert len(two_cluster) == 6
                assert coll.subsets[-1].support_normal_cluster == ALL_NORMALS
                for dd in coll.subsets:
                    if dd.support_normal_cluster != ALL_NORMALS:
                        assert dd.support_normal_cluster != dd.query_normal_cluster
                    assert dd.support_pseudo_kind != dd.query_pseudo_kind
                    support = set(dd.support_ids)
                    assert not dd.virtual_unseen & support
                    if strict:
                        sup_anoms = {s for s in support if labels[s] == 1}
                        qry_anoms = {s for s in dd.query_ids if labels[s] == 1}
                        assert not sup_anoms & qry_anoms
        assert time.time() - start < 20.0


def test_criterion_7_directional_heterogeneity(benchmark_ds):
    with criterion(7, "hard-setting mean unseen AUC: AHL > Homogeneous, "
                      "AHL >= HADG_only - 0.005"):
        start = time.time()
        recorded = pins.criterion7(pins.criterion7_results(benchmark_ds))
        means = recorded["means"]
        print(f"  recorded mean unseen AUC: "
              f"AHL={means['AHL']:.4f} "
              f"Homogeneous={means['Homogeneous']:.4f} "
              f"HADG_only={means['HADG_only']:.4f}")
        assert means["AHL"] > means["Homogeneous"]
        assert means["AHL"] >= means["HADG_only"] - 0.005
        # exact pins: every variant's training path must keep its numbers, and
        # the results checksum must be the one `hetanom run configs/default.json` prints
        assert recorded == json.loads(pins.LEDGER_PATH.read_text())["criterion7"]
        assert time.time() - start < 600.0


def test_criterion_8_determinism_and_replay(tmp_path):
    with criterion(8, "byte-identical reruns and exact replay"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pins.CRITERION8_CONFIG))
        for d in ("r1", "r2"):
            assert cli_main(["run", "--config", str(cfg_path),
                             "--out", str(tmp_path / d)]) == 0
        assert cli_main(["replay", "--manifest", str(tmp_path / "r1" / "manifest.json"),
                         "--out", str(tmp_path / "replayed")]) == 0
        # every file: results, logs, checkpoints and the manifest
        r1 = read_tree(tmp_path / "r1")
        assert len(r1) == 9
        assert read_tree(tmp_path / "r2") == r1
        assert read_tree(tmp_path / "replayed") == r1


def test_criterion_9_serialization(tmp_path, benchmark_ds):
    with criterion(9, "checkpoint and CSV round-trips are exact"):
        rng = np.random.default_rng(9)
        for net in (ScorerNet.init(16, 64, rng), SequencePredictor.init(7, rng)):
            path = tmp_path / "net.ckpt"
            save_checkpoint(path, net)
            back = load_checkpoint(path)
            assert (back.theta == net.theta).all()
        csv_path = tmp_path / "bench.csv"
        write_csv(benchmark_ds, csv_path)
        back = ingest_csv(csv_path)
        assert back.ids == benchmark_ds.ids
        assert (back.features == benchmark_ds.features).all()
        np.testing.assert_array_equal(back.labels, benchmark_ds.labels)


def test_criterion_10_no_leakage(benchmark_ds):
    with criterion(10, "protocol runs never leak test ids into training structures"):
        spec = ha.ProtocolSpec(m_anomalies=10, seen_class="spike",
                               seeds=(0, 1))
        cfg = ha.TrainConfig(epochs=6)
        for seed in spec.seeds:
            root = derive_seed(cfg.seed, "protocol", seed)
            train_ds, test_ds, _ = _protocol_split(benchmark_ds, spec, root)
            fit_cfg = replace(cfg, seed=derive_seed(root, "fit"))
            model = run_variant("AHL", train_ds, fit_cfg)
            res = ha.fit(train_ds, fit_cfg)  # the training structures the model came from
            assert model.exposure_ids == res.training_sample_ids()
            test_ids = set(test_ds.ids)
            # support, query, and history structures
            for dd in res.collection.subsets:
                assert not test_ids & set(dd.support_ids)
                assert not test_ids & set(dd.query_ids)
            assert not test_ids & set(res.table.ids)
            assert not test_ids & model.exposure_ids
