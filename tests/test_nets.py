import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from hetanom import train
from hetanom.errors import ConfigurationError, HetanomError
from hetanom.evaluate import ProtocolSpec, run_protocol
from hetanom.losses import base_loss, base_loss_grad
from hetanom.nets import (
    AdamState,
    ScorerNet,
    SequencePredictor,
    _blas_set_threads,
    float_platform,
    load_checkpoint,
    one_blas_thread,
    save_checkpoint,
)
from hetanom.train import TrainConfig, fit, train_scorers

from conftest import make_dataset
from test_evaluate import FAST, tiny_benchmark


def grad_close(analytic, numeric, rel=1e-5, floor=1e-8):
    """Relative agreement, with an absolute deadband for exactly-zero
    gradients where central differences only return roundoff noise."""
    diff = abs(analytic - numeric)
    return diff < floor or diff / max(abs(analytic), abs(numeric)) < rel


def scorer_forward_oracle(net, x):
    """Independent per-coordinate reimplementation of the scorer."""
    d, h = net.dim, net.hidden
    theta = net.theta
    score = theta[d * h + 2 * h]  # b2
    for j in range(h):
        z = theta[d * h + j]  # b1[j]
        for k in range(d):
            z += theta[j * d + k] * x[k]
        score += theta[d * h + h + j] * max(z, 0.0)
    return score


class TestScorerForward:
    def test_zero_parameters(self):
        net = ScorerNet(3, 4, np.zeros(ScorerNet.param_count(3, 4)))
        assert net.forward(np.array([[1.0, -2.0, 3.0]]))[0] == 0.0

    def test_identity_analytic(self):
        # d=1, h=1, W1=1, b1=0, W2=1, b2=0 -> f(2) = 2
        net = ScorerNet(1, 1, np.array([1.0, 0.0, 1.0, 0.0]))
        assert net.forward(np.array([[2.0]]))[0] == 2.0

    def test_matches_reimplementation_oracle(self):
        rng = np.random.default_rng(5)
        net = ScorerNet.init(6, 9, rng)
        for _ in range(10):
            x = rng.normal(size=6)
            assert abs(net.forward(x[None])[0] - scorer_forward_oracle(net, x)) < 1e-12

    def test_dim_mismatch(self):
        net = ScorerNet.init(3, 4, np.random.default_rng(0))
        with pytest.raises(HetanomError, match=r"^input must be a batch \(n, 3\), got \(2, 5\)$"):
            net.forward(np.zeros((2, 5)))
        with pytest.raises(HetanomError, match=r"^input must be a batch \(n, 3\), got \(3,\)$"):
            net.forward(np.zeros(3))  # a single row is not a batch

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        net = ScorerNet.init(4, 5, rng)
        X = rng.normal(size=(7, 4))
        batch = net.forward(X)
        singles = [net.forward(x[None])[0] for x in X]
        # batched matmul may differ from the row-wise dot by one ulp
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)

    def test_init_deterministic(self):
        a = ScorerNet.init(5, 8, np.random.default_rng(42))
        b = ScorerNet.init(5, 8, np.random.default_rng(42))
        assert (a.theta == b.theta).all()
        bound = 1.0 / np.sqrt(5)
        assert (np.abs(a.theta[: 5 * 8]) <= bound).all()


def finite_difference(fn, theta, h=1e-5, coords=None):
    """Central differences of a scalar function of a flat parameter vector."""
    coords = range(len(theta)) if coords is None else coords
    grad = {}
    for j in coords:
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        grad[j] = (fn(tp) - fn(tm)) / (2 * h)
    return grad


@pytest.mark.skipif(_blas_set_threads() is None,
                    reason="the BLAS has no openblas_set_num_threads_local")
class TestScorerBlocks:
    """``forward`` scores in aligned blocks on one BLAS thread; every score
    is bit for bit that of one whole-batch call on one thread."""

    def test_scores_do_not_depend_on_the_blas_thread_count(self, set_blas_threads):
        # at two threads OpenBLAS splits one whole-batch matrix-vector
        # product of this size at a row that is not a multiple of 4
        rng = np.random.default_rng(11)
        net = ScorerNet.init(16, 64, rng)
        X = rng.normal(size=(37_790, 16))
        set_blas_threads(1)
        one = net.forward(X)
        set_blas_threads(2)
        two = net.forward(X)
        assert one.tobytes() == two.tobytes()

    def test_aligned_blocks_give_the_whole_batch_bits(self):
        # calls whose rows start at multiples of 4, none of them one row
        # long, give every row its whole-batch bits (blocks of 2, 3 or 5
        # rows do not, nor does a one-row block)
        rng = np.random.default_rng(12)
        net = ScorerNet.init(16, 64, rng)
        n = 3 * 4096 + 1
        X = rng.normal(size=(n, 16))
        cuts = [np.arange(size, n - 1, size) for size in (4, 8, 12, 100, 1024, 4096)]
        cuts.append(np.unique(4 * rng.integers(1, n // 4, size=40)))
        with one_blas_thread():
            whole = net.forward_with_cache(X)[0]
            for stops in cuts:
                blocks = np.split(X, stops)
                assert min(map(len, blocks)) > 1
                scores = np.concatenate([net.forward_with_cache(b)[0] for b in blocks])
                assert scores.tobytes() == whole.tobytes(), stops[:3]

    @pytest.mark.parametrize("dim, hidden", [(1, 1), (3, 5), (7, 13), (16, 64)])
    def test_forward_matches_one_unblocked_call(self, dim, hidden):
        rng = np.random.default_rng(13)
        net = ScorerNet(dim, hidden, rng.normal(size=ScorerNet.param_count(dim, hidden)))
        B = ScorerNet.SCORE_ROWS
        X = rng.normal(size=(3 * B + 8, dim))
        sizes = [*range(1, 41), *(B * k + r for k in (1, 2, 3) for r in range(8))]
        with one_blas_thread():
            for n in sizes:
                whole = net.forward_with_cache(X[:n])[0]
                assert net.forward(X[:n]).tobytes() == whole.tobytes(), n

    def test_lone_last_row_joins_the_block_before(self, monkeypatch):
        B = ScorerNet.SCORE_ROWS
        net = ScorerNet.init(3, 4, np.random.default_rng(0))
        rows = []
        inner = ScorerNet.forward_with_cache
        monkeypatch.setattr(ScorerNet, "forward_with_cache",
                            lambda self, X: rows.append(len(X)) or inner(self, X))
        for n in (B, B + 1, 2 * B + 1, 2 * B + 2):
            net.forward(np.zeros((n, 3)))
        assert rows == [B, B + 1, B, B + 1, B, B, 2]


    def test_a_stack_scores_as_its_nets_do(self):
        # a (G, n, d) stack runs the same aligned blocks, net by net
        rng = np.random.default_rng(14)
        theta = rng.normal(size=(3, ScorerNet.param_count(16, 64)))
        X = rng.normal(size=(3, 2 * ScorerNet.SCORE_ROWS + 5, 16))
        stacked = ScorerNet(16, 64, theta).forward(X)
        for g in range(3):
            assert stacked[g].tobytes() == ScorerNet(16, 64, theta[g]).forward(X[g]).tobytes()


class TestScorerGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = ScorerNet.init(2, 2, rng)
        X = rng.normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        _, grad = base_loss_grad(net, X, y)

        def loss_at(theta):
            return base_loss(ScorerNet(2, 2, theta), X, y)

        fd = finite_difference(loss_at, net.theta)
        for j, g_fd in fd.items():
            assert grad_close(grad[j], g_fd)

    def test_stationary_point_zero_gradient(self):
        # a normal scored exactly 0 sits at the loss floor
        net = ScorerNet(2, 3, np.zeros(ScorerNet.param_count(2, 3)))
        loss, grad = base_loss_grad(net, np.array([[1.0, 2.0]]), np.array([0]))
        assert loss == 0.0
        assert (grad == 0.0).all()

    def test_gradient_linearity_over_batch(self):
        # the mean loss's gradient is the mean of the one-sample gradients
        rng = np.random.default_rng(3)
        net = ScorerNet.init(3, 4, rng)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 0])
        _, total = base_loss_grad(net, X, y)
        parts = [base_loss_grad(net, X[i : i + 1], y[i : i + 1])[1]
                 for i in range(5)]
        np.testing.assert_allclose(5 * total, np.sum(parts, axis=0), atol=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_theta(self):
        opt = AdamState(lr=0.01)
        theta = np.array([1.0, -2.0])
        new = opt.step(theta, np.zeros(2))
        assert (new == theta).all()
        assert opt.t == 1

    def test_first_step_analytic(self):
        opt = AdamState(lr=0.001)
        new = opt.step(np.array([0.0]), np.array([1.0]))
        assert abs(new[0] - (-0.001 * 1.0 / (1.0 + 1e-8))) < 1e-18

    def test_converges_on_quadratic(self):
        # reference recurrence on f(t) = t^2/2, gradient t
        opt = AdamState(lr=0.1)
        theta = np.array([5.0])
        for _ in range(100):
            theta = opt.step(theta, theta.copy())
        assert abs(theta[0]) < 0.5

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(8)
        opt = AdamState(lr=0.05)
        theta = rng.normal(size=4)
        m = np.zeros(4)
        v = np.zeros(4)
        ref = theta.copy()
        for t in range(1, 21):
            g = np.sin(ref) + 0.1 * t
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g ** 2
            ref = ref - 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            theta = opt.step(theta, np.sin(theta) + 0.1 * t)
        np.testing.assert_allclose(theta, ref, atol=0)


def seq_forward_oracle(net, history):
    """Step-by-step recurrence with explicit gate equations, independent of
    the vectorized implementation."""
    H = SequencePredictor.HIDDEN

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run_direction(seq, layer, direction):
        W, U, b = (net.block(f"{layer}.{part}")[direction] for part in "WUb")
        h = np.zeros(H)
        c = np.zeros(H)
        outs = []
        for x in seq:
            z = W @ x + U @ h + b
            i, f, o, g = sigmoid(z[:H]), sigmoid(z[H:2*H]), sigmoid(z[2*H:3*H]), np.tanh(z[3*H:])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        return outs

    K = len(history)
    h1f = run_direction(history, "l1", 0)
    h1b = run_direction(history[::-1], "l1", 1)
    u = [np.concatenate([h1f[t], h1b[K - 1 - t]]) for t in range(K)]
    h2f = run_direction(u, "l2", 0)
    h2b = run_direction(u[::-1], "l2", 1)
    head = np.concatenate([h2f[-1], h2b[-1]])
    a = np.maximum(net.block("fc.W") @ head + net.block("fc.b"), 0.0)
    return net.block("out.W") @ a + net.block("out.b")


def swap_g_o(block):
    """A (2, 4H, ...) LSTM block with its g and o gate rows swapped: i, f,
    o, g to i, f, g, o and back."""
    H = SequencePredictor.HIDDEN
    return block.reshape(2, 4, H, -1)[:, [0, 1, 3, 2]].reshape(block.shape)


def rows_major_gradient(net, history, dout):
    """Reference gradient of sum(dout . output): the earlier rows-major
    backward pass, which kept every dz as (2, K, n, 4H) in the gate order
    i, f, g, o, read each layer's inputs rows-major, (2, K, n, d), and
    summed the per-step weight gradients last step first."""
    H = net.HIDDEN
    _, (cache1, cache2, head, zf, af) = net.forward_with_cache(history)
    n, K = history.shape[:2]
    grad = np.zeros_like(net.theta)
    net._view(grad, "out.W")[...] = dout.T @ af
    net._view(grad, "out.b")[...] = dout.sum(axis=0)
    dzf = (dout @ net.block("out.W")) * (zf > 0)
    net._view(grad, "fc.W")[...] = dzf.T @ head
    net._view(grad, "fc.b")[...] = dzf.sum(axis=0)
    dhead = dzf @ net.block("fc.W")

    x = history.transpose(1, 0, 2)
    xr1 = np.stack([x, x[::-1]])
    xr2 = cache2[0].transpose(1, 0, 3, 2)
    dh2 = np.zeros((K, 2, H, n))
    dh2[-1] = dhead.T.reshape(2, H, n)
    dx2 = _rows_major_lstm_backward(net, xr2, cache2, dh2, grad, "l2")
    du = dx2[:, 0] + dx2[::-1, 1]
    dh1 = np.stack([du[:, :H], du[::-1, H:]], axis=1)
    _rows_major_lstm_backward(net, xr1, cache1, dh1, grad, "l1")
    return grad


def _rows_major_lstm_backward(net, xr, cache, dh_out, grad, layer):
    _, hs, steps = cache
    H = net.HIDDEN
    _, K, n, d = xr.shape

    def stacked(part):
        return swap_g_o(net.block(f"{layer}.{part}"))

    Ut = stacked("U").transpose(0, 2, 1)
    dzs = np.empty((2, K, n, 4 * H))
    dz = np.empty((2, 4 * H, n))
    dsig = np.empty((2, 3 * H, n))  # the i, f, o gates, in forward order
    dh_next = np.zeros((2, H, n))
    dc_next = np.zeros((2, H, n))
    for t in reversed(range(K)):
        c_prev, sig, g, tanh_c = steps[t]
        i, f, o = sig[:, :H], sig[:, H : 2 * H], sig[:, 2 * H :]
        dh = dh_out[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
        np.multiply(dc, g, out=dsig[:, :H])
        np.multiply(dc, c_prev, out=dsig[:, H : 2 * H])
        np.multiply(dh, tanh_c, out=dsig[:, 2 * H :])
        dsig *= sig
        dsig *= 1.0 - sig
        dc_next = dc * f
        dz[:, : 2 * H] = dsig[:, : 2 * H]
        dz[:, 3 * H :] = dsig[:, 2 * H :]
        dg = dz[:, 2 * H : 3 * H]
        np.multiply(dc, i, out=dg)
        dg *= 1.0 - g ** 2
        dh_next = np.matmul(Ut, dz)
        dzs[:, t] = dz.transpose(0, 2, 1)
    dzsT = dzs.transpose(0, 1, 3, 2)
    dW_steps = np.matmul(dzsT, xr)
    dU_steps = np.matmul(dzsT, hs[:K].transpose(1, 0, 3, 2))
    db_steps = dzs.sum(axis=2)
    dW = np.zeros((2, 4 * H, d))
    dU = np.zeros((2, 4 * H, H))
    db = np.zeros((2, 4 * H))
    for t in reversed(range(K)):
        dW += dW_steps[:, t]
        dU += dU_steps[:, t]
        db += db_steps[:, t]
    for part, block in zip("WUb", (dW, dU, db)):
        net._view(grad, f"{layer}.{part}")[...] = swap_g_o(block)
    dx = np.matmul(dzs, stacked("W")[:, None])
    return dx.transpose(1, 0, 3, 2)


class TestSequencePredictor:
    def test_forward_equals_forward_with_cache(self):
        rng = np.random.default_rng(13)
        net = SequencePredictor.init(7, rng)
        # 1100 rows spans several inference blocks
        for shape in ((1, 5, 7), (2, 5, 7), (48, 5, 7), (1100, 5, 7)):
            history = rng.normal(size=shape)
            out, cache = net.forward_with_cache(history)
            np.testing.assert_array_equal(net.forward(history).view(np.uint64),
                                          out.view(np.uint64))
            assert cache is not None

    @pytest.mark.parametrize("t_dim", [1, 7])
    def test_inference_blocks_give_the_one_call_bits(self, t_dim):
        # at t_dim=1 the output map is a matrix-vector product, whose bits
        # depend on where a call cuts the rows (see the module notes)
        net = SequencePredictor.init(t_dim, np.random.default_rng(0))
        S = np.random.default_rng(100).normal(size=(3120, 5, t_dim))
        with one_blas_thread():
            for n in (513, 514, 515, 1025, 1029, 2050, 3120):
                whole = net._forward(S[:n], keep=False)[0]
                assert net.forward(S[:n]).tobytes() == whole.tobytes(), n

    def test_zero_parameters_zero_output(self):
        net = SequencePredictor(3, np.zeros_like(SequencePredictor.init(3, np.random.default_rng(0)).theta))
        out = net.forward(np.ones((1, 4, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    @pytest.mark.parametrize("t_dim", [1, 3, 7])
    def test_output_size(self, t_dim):
        net = SequencePredictor.init(t_dim, np.random.default_rng(1))
        out = net.forward(np.random.default_rng(2).normal(size=(3, 5, t_dim)))
        assert out.shape == (3, t_dim)

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(9)
        net = SequencePredictor.init(4, rng)
        for _ in range(5):
            history = rng.normal(size=(6, 4))
            got = net.forward(history[None])[0]
            want = seq_forward_oracle(net, history)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = SequencePredictor.init(2, rng)
        history = rng.normal(size=(3, 3, 2))
        target = rng.normal(size=(3, 2))

        out, cache = net.forward_with_cache(history)
        diff = out - target
        grad = net.backward(cache, (2.0 / diff.size) * diff)

        def loss_at(theta):
            trial = SequencePredictor(2, theta)
            d = trial.forward(history) - target
            return float((d ** 2).mean())

        coords = rng.choice(len(net.theta), size=150, replace=False)
        fd = finite_difference(loss_at, net.theta, coords=coords)
        for j, g_fd in fd.items():
            assert grad_close(grad[j], g_fd)

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("t_dim", [1, 3, 7])
    def test_gradient_matches_the_rows_major_reference(self, t_dim, K):
        # finite differences are too loose to catch a dropped term; the
        # reference sums the same terms in another order, so only the last
        # bits may differ: within 1e-14 of the largest entry, and within
        # 1e-13 of each block's largest entry (a block can cancel more)
        rng = np.random.default_rng(100 * t_dim + K)
        net = SequencePredictor.init(t_dim, rng)
        for n in (1, 2, 48, 256, 700):
            history = rng.normal(size=(n, K, t_dim))
            dout = rng.normal(size=(n, t_dim))
            out, cache = net.forward_with_cache(history)
            got = net.backward(cache, dout)
            want = rows_major_gradient(net, history, dout)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), n
            for name in net._offsets:
                g, w = net._view(got, name), net._view(want, name)
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), (n, name)

    def test_saturated_gates_are_exact_and_raise_nothing(self):
        # at a thousand times their initial scale the parameters drive most
        # gates into saturation; underflow to a subnormal or zero is a
        # correct result, every other floating-point event raises
        rng = np.random.default_rng(14)
        net = SequencePredictor(7, 1e3 * SequencePredictor.init(7, rng).theta)
        history = rng.normal(size=(300, 5, 7))
        with np.errstate(all="raise", under="ignore"):
            out = net.forward(history)
            cached, cache = net.forward_with_cache(history)
            grad = net.backward(cache, rng.normal(size=out.shape))
        assert np.isfinite(out).all() and np.isfinite(grad).all()
        np.testing.assert_array_equal(out.view(np.uint64), cached.view(np.uint64))
        sig = np.stack([s for layer in cache[:2] for _, s, _, _ in layer[2]])
        g = np.stack([g for layer in cache[:2] for _, _, g, _ in layer[2]])
        assert (sig == 0.0).any() and (sig == 1.0).any()
        assert (g == -1.0).any() and (g == 1.0).any()

    def test_shape_errors(self):
        net = SequencePredictor.init(3, np.random.default_rng(0))
        with pytest.raises(HetanomError, match=r"^history must be \(n, K, 3\), got \(2, 4, 5\)$"):
            net.forward(np.zeros((2, 4, 5)))
        with pytest.raises(HetanomError, match=r"^history must be \(n, K, 3\), got \(4, 3\)$"):
            net.forward(np.zeros((4, 3)))  # a single history is not a batch

    def test_init_deterministic(self):
        a = SequencePredictor.init(7, np.random.default_rng(123))
        b = SequencePredictor.init(7, np.random.default_rng(123))
        assert (a.theta == b.theta).all()


class TestCheckpoints:
    def test_scorer_roundtrip_bitwise(self, tmp_path):
        net = ScorerNet.init(5, 6, np.random.default_rng(77))
        path = tmp_path / "scorer.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert isinstance(back, ScorerNet)
        assert (back.dim, back.hidden) == (5, 6)
        assert (back.theta == net.theta).all()

    def test_sequence_roundtrip_bitwise(self, tmp_path):
        net = SequencePredictor.init(4, np.random.default_rng(78))
        path = tmp_path / "seq.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert isinstance(back, SequencePredictor)
        assert (back.theta == net.theta).all()

    def test_old_layout_sequence_checkpoint_is_refused(self, tmp_path):
        # the layout before "stacked-ifog": the same parameter count, each
        # direction's blocks apart, and no layout in the descriptor
        net = SequencePredictor.init(3, np.random.default_rng(5))
        desc = json.dumps({"kind": "sequence", "t_dim": 3}, sort_keys=True).encode()
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"AHL1" + len(desc).to_bytes(4, "little") + desc
                         + net.theta.astype("<f8").tobytes())
        with pytest.raises(ConfigurationError, match="sequence checkpoint in parameter "
                                                     "layout None, not 'stacked-ifog'") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigurationError, match="magic"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, SequencePredictor.init(3, np.random.default_rng(2)))
        return path, path.read_bytes()

    def test_cut_inside_header(self, tmp_path):
        path, raw = self._saved(tmp_path)
        for cut in (6, 20):
            path.write_bytes(raw[:cut])
            with pytest.raises(ConfigurationError, match="truncated header") as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)

    def test_partial_float_tail(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-3])
        with pytest.raises(ConfigurationError, match="not whole float64s") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_wrong_parameter_count(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(ConfigurationError, match="parameters") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_malformed_descriptor(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"AHL1" + (3).to_bytes(4, "little") + b"{x}")
        with pytest.raises(ConfigurationError, match="malformed") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_infinite_descriptor_size(self, tmp_path):
        # JSON reads 1e999 as inf, which int() cannot convert
        desc = b'{"dim": 1e999, "hidden": 2, "kind": "scorer"}'
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"AHL1" + len(desc).to_bytes(4, "little") + desc)
        with pytest.raises(ConfigurationError, match="malformed") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.ckpt"
        with pytest.raises(ConfigurationError, match="cannot read checkpoint") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read checkpoint") as info:
            load_checkpoint(tmp_path)
        assert str(tmp_path) in str(info.value)

    def test_header_starts_with_magic(self, tmp_path):
        net = ScorerNet.init(2, 2, np.random.default_rng(1))
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, net)
        assert path.read_bytes()[:4] == b"AHL1"


def blas_threads() -> int:
    """The process's OpenBLAS thread count, read by setting it and setting
    it back through the guard's own symbol."""
    set_threads = _blas_set_threads()
    count = set_threads(1)
    set_threads(count)
    return count


@pytest.mark.skipif(_blas_set_threads() is None,
                    reason="the BLAS has no openblas_set_num_threads_local")
class TestOneBlasThread:
    @pytest.fixture(autouse=True)
    def three_threads(self):
        """Start each test from a count of 3, neither 1 nor a likely default,
        so a restore to any other value shows; put the original back after."""
        original = _blas_set_threads()(3)
        yield
        _blas_set_threads()(original)

    def test_fit_trains_on_one_thread_and_restores(self, monkeypatch):
        seen = []
        inner = train.unified_update
        monkeypatch.setattr(train, "unified_update",
                            lambda *args: seen.append(blas_threads()) or inner(*args))
        fit(make_dataset(n_normal=30, n_anomaly=4, seed=1),
            TrainConfig(T=2, C=2, epochs=6, hidden=8, seed=0))
        assert seen == [1] * 6
        assert blas_threads() == 3

    def test_scorer_forward_scores_on_one_thread_and_restores(self, monkeypatch):
        seen = []
        inner = ScorerNet.forward_with_cache
        monkeypatch.setattr(ScorerNet, "forward_with_cache",
                            lambda self, X: seen.append(blas_threads()) or inner(self, X))
        net = ScorerNet.init(3, 4, np.random.default_rng(0))
        net.forward(np.zeros((2 * ScorerNet.SCORE_ROWS, 3)))
        assert seen == [1, 1]
        assert blas_threads() == 3

    def test_restored_when_fit_raises(self):
        ds = make_dataset(n_normal=10, n_anomaly=1, dim=2, seed=0)
        with pytest.raises(HetanomError, match="^training data must contain at least one anomaly$"):
            fit(ds.take(ds.normal_rows()), TrainConfig(epochs=1))
        assert blas_threads() == 3

    def test_train_scorers_restores(self):
        ds = make_dataset(n_normal=30, n_anomaly=4, seed=2)
        net = ScorerNet.init(ds.dim, 8, np.random.default_rng(0))
        train_scorers([net, net], ds.features, ds.labels, [np.arange(34)] * 2,
                      TrainConfig(batch_size=8, epochs=2), seeds=[0, 1])
        assert blas_threads() == 3

    def test_nested_scopes_restore_only_at_the_outermost(self):
        with one_blas_thread():
            with one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
            with pytest.raises(RuntimeError):
                with one_blas_thread():
                    raise RuntimeError("inner scope fails")
            assert blas_threads() == 1
        assert blas_threads() == 3

    def test_overlapping_scopes_on_two_threads(self):
        inside, leave = threading.Event(), threading.Event()

        def worker():
            with one_blas_thread():
                inside.set()
                leave.wait()

        t = threading.Thread(target=worker, daemon=True)
        try:
            with one_blas_thread():
                t.start()
                assert inside.wait(timeout=30)
            assert blas_threads() == 1  # the worker's scope is still open
        finally:
            leave.set()
            t.join(timeout=30)
        assert not t.is_alive()
        assert blas_threads() == 3

    def test_many_threads_entering_and_leaving(self):
        wrong = []

        def worker():
            for _ in range(200):
                with one_blas_thread():
                    time.sleep(0)  # let another thread enter or leave here
                    with one_blas_thread():
                        if blas_threads() != 1:
                            wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert blas_threads() == 3

    def test_run_protocol_restores(self):
        seen = []
        spec = ProtocolSpec(m_anomalies=6, seeds=(0, 1))
        run_protocol(tiny_benchmark(), spec, FAST, "AHL",
                     model_sink=lambda seed, model: seen.append(blas_threads()))
        assert seen == [1, 1]
        assert blas_threads() == 3


class TestFloatPlatform:
    def test_fields(self):
        record = float_platform()
        assert record["numpy"] == np.__version__
        assert set(record) == {"numpy", "cpu_baseline", "cpu_dispatch",
                               "openblas_config", "openblas_corename"}
        assert all(isinstance(t, str) for t in record["cpu_baseline"] + record["cpu_dispatch"])

    @pytest.mark.skipif(float_platform()["openblas_corename"] is None,
                        reason="the BLAS does not name its core")
    def test_names_the_kernel_in_use(self):
        # a forced OpenBLAS core type is what the record names, not the build's
        env = dict(os.environ, OPENBLAS_CORETYPE="HASWELL",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", "import json; from hetanom.nets import "
                              "float_platform; print(json.dumps(float_platform()))"],
                             env=env, capture_output=True, text=True, check=True, timeout=60).stdout
        record = json.loads(out)
        assert record["openblas_corename"] == "Haswell"
        assert "Haswell" in record["openblas_config"]
