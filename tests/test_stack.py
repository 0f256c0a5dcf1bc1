"""Stacked scorers: G nets with a leading stack axis must give, bit for
bit, what each net gives alone, and stacked training with ragged step
counts must match training each base on its own."""

import math

import numpy as np
import pytest

from hetanom.losses import base_loss_grad, deviation_loss_dscore
from hetanom.nets import AdamState, ScorerNet
from hetanom.partition import TrainingTable
from hetanom.seeding import rng_for
from hetanom.train import TrainConfig, train_bases_epoch, train_scorers

from conftest import make_dataset


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def reference_adam(lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam for one flat vector, written out: returns a step function."""
    state = {"m": None, "v": None, "t": 0}

    def step(theta, grad):
        if state["m"] is None:
            state["m"] = np.zeros_like(theta)
            state["v"] = np.zeros_like(theta)
        state["t"] += 1
        t = state["t"]
        state["m"] = beta1 * state["m"] + (1 - beta1) * grad
        state["v"] = beta2 * state["v"] + (1 - beta2) * grad ** 2
        m_hat = state["m"] / (1 - beta1 ** t)
        v_hat = state["v"] / (1 - beta2 ** t)
        return theta - lr * m_hat / (np.sqrt(v_hat) + eps)

    return step


def reference_support_epoch(net, adam_step, X, y, cfg, rng):
    """The per-base loop: balanced batches (half normals, half anomalies,
    with replacement only where a side is short) and one Adam step each."""
    normal_rows = np.flatnonzero(y == 0)
    anomaly_rows = np.flatnonzero(y == 1)

    def draw(rows, size):
        return rng.choice(rows, size=size, replace=len(rows) < size)

    for _ in range(math.ceil(len(y) / cfg.batch_size)):
        half = cfg.batch_size // 2
        rows = np.concatenate([draw(normal_rows, cfg.batch_size - half),
                               draw(anomaly_rows, half)])
        _, grad = base_loss_grad(net, X[rows], y[rows], cfg.margin)
        net.theta = adam_step(net.theta, grad)


@pytest.mark.parametrize("G", [1, 3, 7])
class TestStackedScorer:
    def nets_and_batch(self, G, n=32, d=9, h=11):
        rng = np.random.default_rng(100 + G)
        nets = [ScorerNet.init(d, h, rng) for _ in range(G)]
        X = rng.normal(size=(G, n, d))
        y = rng.integers(0, 2, size=(G, n))
        return nets, ScorerNet(d, h, np.stack([net.theta for net in nets])), X, y

    def test_forward_and_backward(self, G):
        nets, stack, X, y = self.nets_and_batch(G)
        scores, cache = stack.forward_with_cache(X)
        dscores = deviation_loss_dscore(scores, y, 5.0) / 32
        grad = stack.backward(cache, dscores)
        assert scores.shape == (G, 32) and grad.shape == stack.theta.shape
        for i, net in enumerate(nets):
            alone, cache_i = net.forward_with_cache(X[i])
            np.testing.assert_array_equal(bits(scores[i]), bits(alone))
            np.testing.assert_array_equal(bits(grad[i]), bits(net.backward(cache_i, dscores[i])))

    def test_base_loss_grad(self, G):
        nets, stack, X, y = self.nets_and_batch(G)
        losses, grads = base_loss_grad(stack, X, y, 5.0)
        assert losses.shape == (G,)
        for i, net in enumerate(nets):
            loss_i, grad_i = base_loss_grad(net, X[i], y[i], 5.0)
            assert bits(losses[i]) == bits(loss_i)
            np.testing.assert_array_equal(bits(grads[i]), bits(grad_i))


class TestStackedAdam:
    def test_rows_sitting_out_keep_their_state(self):
        # three rows stepping on a ragged schedule, against one Adam each
        rng = np.random.default_rng(4)
        theta = rng.normal(size=(3, 5))
        opt = AdamState(lr=0.01)
        refs = [reference_adam(0.01) for _ in range(3)]
        want = theta.copy()
        for s, rows in enumerate([[0, 1, 2], [0, 2], [2], [0, 1, 2], [1]]):
            grad = np.sin(theta[rows] + s)
            theta[rows] = opt.step(theta[rows], grad, rows=None if len(rows) == 3 else rows)
            for k, r in enumerate(rows):
                want[r] = refs[r](want[r], grad[k])
            np.testing.assert_array_equal(bits(theta), bits(want))
        np.testing.assert_array_equal(opt.t, [3, 3, 4])

    def test_first_step_takes_every_row(self):
        from hetanom.errors import ShapeError

        with pytest.raises(ShapeError):
            AdamState(lr=0.01).step(np.zeros((1, 2)), np.zeros((1, 2)), rows=[1])


def unequal_table(sizes, seed=0):
    """A table whose subsets have the given (support size, anomaly count)."""
    ds = make_dataset(n_normal=200, n_anomaly=40, dim=4, seed=seed)
    rng = np.random.default_rng(seed)
    normals, anomalies = ds.normal_rows(), ds.anomaly_rows()
    support = []
    for size, n_anom in sizes:
        support.append(np.sort(np.concatenate([
            rng.choice(normals, size - n_anom, replace=False),
            rng.choice(anomalies, n_anom, replace=False)])))
    query = tuple(np.setdiff1d(np.arange(len(ds.ids)), rows) for rows in support)
    return TrainingTable(ids=ds.ids, X=ds.features, y=ds.labels,
                         support_rows=tuple(support), query_rows=query)


class TestRaggedTraining:
    # two supports of equal size but unequal anomaly counts, so equal sizes
    # alone must not decide which bases share batch draws
    SIZES = ((40, 6), (70, 11), (70, 20), (100, 16), (23, 3), (70, 11))

    def test_train_bases_epoch_matches_per_base_loop(self):
        table = unequal_table(self.SIZES)
        cfg = TrainConfig(T=len(self.SIZES), batch_size=16, hidden=8, seed=3)
        for epoch in range(2):
            g = ScorerNet.init(4, 8, rng_for(3, "init", epoch))
            stack, scores = train_bases_epoch(g, table, cfg, epoch)
            for i, rows in enumerate(table.support_rows):
                want = ScorerNet(g.dim, g.hidden, g.theta.copy())
                reference_support_epoch(want, reference_adam(cfg.lr_base), table.X[rows],
                                        table.y[rows], cfg,
                                        rng_for(cfg.seed, "batches", epoch))
                np.testing.assert_array_equal(bits(stack.theta[i]), bits(want.theta))
                np.testing.assert_array_equal(bits(scores[:, i]), bits(want.forward(table.X)))

    def test_train_scorers_matches_per_net_loop(self):
        # persistent Adam: each net's step count runs on across epochs
        table = unequal_table(self.SIZES, seed=1)
        cfg = TrainConfig(batch_size=16, hidden=8)
        init = [ScorerNet.init(4, 8, np.random.default_rng(s)) for s in range(len(self.SIZES))]
        seeds = [10 + i for i in range(len(self.SIZES))]
        got = train_scorers(init, table.X, table.y, table.support_rows, cfg, 3, seeds)
        for i, rows in enumerate(table.support_rows):
            net = ScorerNet(init[i].dim, init[i].hidden, init[i].theta.copy())
            adam_step = reference_adam(cfg.lr_base)
            for epoch in range(3):
                reference_support_epoch(net, adam_step, table.X[rows], table.y[rows], cfg,
                                        rng_for(seeds[i], "plain", epoch))
            np.testing.assert_array_equal(bits(got[i].theta), bits(net.theta))
