import sys
import threading
import time

import numpy as np
import pytest

from hetanom.errors import CheckpointError, ContractError, ShapeError
from hetanom.evaluate import ProtocolSpec, run_protocol
from hetanom.losses import base_loss, base_loss_grad
from hetanom.nets import (
    AdamState,
    ScorerNet,
    SequencePredictor,
    _blas_set_threads,
    _sigmoid,
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
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 5)))
        with pytest.raises(ShapeError):
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


class TestScorerGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = ScorerNet.init(2, 2, rng)
        X = rng.normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        _, grad = base_loss_grad(net, X, y, 5.0)

        def loss_at(theta):
            return base_loss(ScorerNet(2, 2, theta), X, y, 5.0)

        fd = finite_difference(loss_at, net.theta)
        for j, g_fd in fd.items():
            assert grad_close(grad[j], g_fd)

    def test_stationary_point_zero_gradient(self):
        # a normal scored exactly 0 sits at the loss floor
        net = ScorerNet(2, 3, np.zeros(ScorerNet.param_count(2, 3)))
        loss, grad = base_loss_grad(net, np.array([[1.0, 2.0]]), np.array([0]), 5.0)
        assert loss == 0.0
        assert (grad == 0.0).all()

    def test_gradient_linearity_over_batch(self):
        # the mean loss's gradient is the mean of the one-sample gradients
        rng = np.random.default_rng(3)
        net = ScorerNet.init(3, 4, rng)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 0])
        _, total = base_loss_grad(net, X, y, 5.0)
        parts = [base_loss_grad(net, X[i : i + 1], y[i : i + 1], 5.0)[1]
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

    def run_direction(seq, prefix):
        W, U, b = net.block(f"{prefix}.W"), net.block(f"{prefix}.U"), net.block(f"{prefix}.b")
        h = np.zeros(H)
        c = np.zeros(H)
        outs = []
        for x in seq:
            z = W @ x + U @ h + b
            i, f, g, o = sigmoid(z[:H]), sigmoid(z[H:2*H]), np.tanh(z[2*H:3*H]), sigmoid(z[3*H:])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        return outs

    K = len(history)
    h1f = run_direction(history, "l1f")
    h1b = run_direction(history[::-1], "l1b")
    u = [np.concatenate([h1f[t], h1b[K - 1 - t]]) for t in range(K)]
    h2f = run_direction(u, "l2f")
    h2b = run_direction(u[::-1], "l2b")
    head = np.concatenate([h2f[-1], h2b[-1]])
    a = np.maximum(net.block("fc.W") @ head + net.block("fc.b"), 0.0)
    return net.block("out.W") @ a + net.block("out.b")


def piecewise_sigmoid(x):
    """Reference sigmoid: boolean masks pick 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, 1e-300, 30.0, 709.0, 745.0, 1e308, np.inf]

    def test_bitwise_equal_to_piecewise_at_edges(self):
        x = np.array(self.EDGES + [-v for v in self.EDGES] + [np.nan])
        # underflow to a subnormal or zero is the correct result and numpy
        # ignores it by default; every other floating-point event raises
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(x)
            want = piecewise_sigmoid(x)
        finite = ~np.isnan(x)
        np.testing.assert_array_equal(got[finite].view(np.uint64),
                                      want[finite].view(np.uint64))
        assert np.isnan(got[~finite]).all()

    def test_bitwise_equal_to_piecewise_on_gate_blocks(self):
        rng = np.random.default_rng(12)
        z = rng.normal(scale=8.0, size=(4, 2, 33, 7))
        np.testing.assert_array_equal(_sigmoid(z).view(np.uint64),
                                      piecewise_sigmoid(z.ravel()).reshape(z.shape).view(np.uint64))


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
        assert net.forward_with_cache(history, keep=False)[1] is None

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

    def test_shape_errors(self):
        net = SequencePredictor.init(3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 4, 5)))
        with pytest.raises(ShapeError):
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

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, SequencePredictor.init(3, np.random.default_rng(2)))
        return path, path.read_bytes()

    def test_cut_inside_header(self, tmp_path):
        path, raw = self._saved(tmp_path)
        for cut in (6, 20):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated header") as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)

    def test_partial_float_tail(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-3])
        with pytest.raises(CheckpointError, match="not whole float64s") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_wrong_parameter_count(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError, match="parameters") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_malformed_descriptor(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"AHL1" + (3).to_bytes(4, "little") + b"{x}")
        with pytest.raises(CheckpointError, match="malformed") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_infinite_descriptor_size(self, tmp_path):
        # JSON reads 1e999 as inf, which int() cannot convert
        desc = b'{"dim": 1e999, "hidden": 2, "kind": "scorer"}'
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"AHL1" + len(desc).to_bytes(4, "little") + desc)
        with pytest.raises(CheckpointError, match="malformed") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

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

    def test_fit_trains_on_one_thread_and_restores(self):
        seen = []
        fit(make_dataset(n_normal=30, n_anomaly=4, seed=1),
            TrainConfig(T=2, C=2, epochs=6, hidden=8, seed=0),
            checkpoint_hook=lambda epoch, g: seen.append(blas_threads()))
        assert seen == [1] * 6
        assert blas_threads() == 3

    def test_restored_when_fit_raises(self):
        ds = make_dataset(n_normal=10, n_anomaly=1, dim=2, seed=0)
        with pytest.raises(ContractError):
            fit(ds.take(ds.normal_rows()), TrainConfig(epochs=1))
        assert blas_threads() == 3

    def test_train_scorers_restores(self):
        ds = make_dataset(n_normal=30, n_anomaly=4, seed=2)
        net = ScorerNet.init(ds.dim, 8, np.random.default_rng(0))
        train_scorers([net, net], ds.features, ds.labels, [np.arange(34)] * 2,
                      TrainConfig(batch_size=8), epochs=2, seeds=[0, 1])
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

    def test_run_protocol_on_two_threads_restores(self):
        seen = []
        spec = ProtocolSpec(kind="general", m_anomalies=6, seeds=(0, 1))
        run_protocol(tiny_benchmark(), spec, FAST, "AHL", threads=2,
                     model_sink=lambda seed, model: seen.append(blas_threads()))
        assert seen == [1, 1]
        assert blas_threads() == 3
