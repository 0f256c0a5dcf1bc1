import numpy as np
import pytest

from hetanom.errors import HetanomError
from hetanom.losses import (MARGIN, base_loss, base_loss_grad, cdl_loss, deviation_loss,
                            deviation_loss_dscore)
from hetanom.nets import ScorerNet


class TestDeviation:
    def test_loss_values(self):
        assert MARGIN == 5.0  # the paper's margin
        assert deviation_loss(0.0, 0) == 0.0  # normal at the prior mean
        assert deviation_loss(6.0, 1) == 0.0  # anomaly beyond the margin
        assert deviation_loss(2.0, 1) == 3.0  # hinge: 5 - 2

    def test_loss_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(scale=4.0, size=500)
        for y in (0, 1):
            losses = deviation_loss(scores, np.full(500, y))
            assert (losses >= 0).all()
            zero = losses == 0
            if y == 0:
                np.testing.assert_array_equal(zero, scores == 0.0)
            else:
                np.testing.assert_array_equal(zero, scores >= MARGIN)


class TestBaseLoss:
    def test_single_normal_zero(self):
        net = ScorerNet(2, 2, np.zeros(ScorerNet.param_count(2, 2)))
        assert base_loss(net, np.ones((1, 2)), np.array([0])) == 0.0

    def test_mean_reduction(self):
        # per-sample losses 1 and 3 -> mean 2: normals scored 1 and 3 give |dev| 1, 3
        net = ScorerNet(1, 1, np.array([1.0, 0.0, 1.0, 0.0]))  # identity on x >= 0
        X = np.array([[1.0], [3.0]])
        y = np.array([0, 0])
        assert base_loss(net, X, y) == 2.0

    def test_empty_set_rejected(self):
        net = ScorerNet.init(2, 2, np.random.default_rng(0))
        with pytest.raises(HetanomError, match="^base_loss over an empty sample set$"):
            base_loss(net, np.empty((0, 2)), np.empty(0))

    def test_matches_scalar_resummation_oracle(self):
        rng = np.random.default_rng(7)
        net = ScorerNet.init(3, 5, rng)
        X = rng.normal(size=(11, 3))
        y = rng.integers(0, 2, size=11)
        got = base_loss(net, X, y)
        acc = 0.0
        for i in range(11):
            acc += float(deviation_loss(net.forward(X[i : i + 1])[0], int(y[i])))
        assert abs(got - acc / 11) < 1e-12

    def test_nonfinite_loss_names_sample(self):
        net = ScorerNet(1, 1, np.array([1e308, 1e308, 1e308, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(HetanomError, match="index 0"):
                base_loss_grad(net, np.array([[1e308]]), np.array([0]))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def reference_loss_grad(net, X, y):
    """``base_loss_grad`` composed from the public per-sample formulas."""
    scores, cache = net.forward_with_cache(X)
    n = scores.shape[-1]
    return deviation_loss(scores, y).mean(axis=-1), net.backward(
        cache, deviation_loss_dscore(scores, y) / n)


class EchoNet(ScorerNet):
    """Scores each sample with its first feature and returns d(loss)/d(score)
    as the gradient: a scorer's output layer cannot give -0.0 (its sum
    starts from +0.0), so the kinks' signed zeros are fed in this way."""

    def forward_with_cache(self, X):
        return X[..., 0], None

    def backward(self, cache, dscores):
        return dscores


# both kinks, either side of the margin, and signed zeros
KINK_SCORES = (0.0, -0.0, MARGIN, np.nextafter(MARGIN, 0), np.nextafter(MARGIN, np.inf),
               -MARGIN, 2.5, -1e-300)


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
class TestBaseLossGradBits:
    """``base_loss_grad``: bit for bit the public formulas, at their kinks
    too."""

    def test_kink_scores(self, stacked):
        scores = np.array(KINK_SCORES * 2)
        y = np.repeat([0, 1], len(KINK_SCORES))
        if stacked:
            scores, y = np.stack([scores, scores[::-1]]), np.stack([y, y[::-1]])
        net = EchoNet(1, 1, np.zeros(ScorerNet.param_count(1, 1)))
        loss, grad = base_loss_grad(net, scores[..., None], y)
        want_loss, want_grad = reference_loss_grad(net, scores[..., None], y)
        np.testing.assert_array_equal(bits(loss), bits(want_loss))
        np.testing.assert_array_equal(bits(grad), bits(want_grad))

    def test_scorer_at_the_kinks(self, stacked):
        # zero weights: every sample scores b2 exactly
        d, h = 3, 5
        rng = np.random.default_rng(9)
        b2s = [0.0, MARGIN, np.nextafter(MARGIN, 0)]
        thetas = []
        for b2 in b2s:
            theta = np.zeros(ScorerNet.param_count(d, h))
            theta[-1] = b2
            thetas.append(theta)
        thetas.append(ScorerNet.init(d, h, rng).theta)
        X = rng.normal(size=(len(thetas), 12, d))
        y = rng.integers(0, 2, size=(len(thetas), 12))
        stack = ScorerNet(d, h, np.stack(thetas))
        # the zero-weight scorers score b2 exactly
        np.testing.assert_array_equal(bits(stack.forward_with_cache(X)[0][:len(b2s)]),
                                      bits(np.repeat(b2s, 12).reshape(-1, 12)))
        cases = [(stack, X, y)] if stacked else [
            (ScorerNet(d, h, theta), X[i], y[i]) for i, theta in enumerate(thetas)]
        for net, X_i, y_i in cases:
            loss, grad = base_loss_grad(net, X_i, y_i)
            want_loss, want_grad = reference_loss_grad(net, X_i, y_i)
            np.testing.assert_array_equal(bits(loss), bits(want_loss))
            np.testing.assert_array_equal(bits(grad), bits(want_grad))

    def test_nan_feature_names_the_sample(self, stacked):
        net = ScorerNet.init(2, 3, np.random.default_rng(1))
        X = np.random.default_rng(2).normal(size=(3, 6, 2))
        X[2, 4, 1] = np.nan
        y = np.zeros((3, 6), dtype=np.int64)
        if stacked:
            net = ScorerNet(2, 3, np.stack([net.theta] * 3))
            message = "^non-finite loss at sample index 4 of scorer 2$"
        else:
            X, y, message = X[2], y[2], "^non-finite loss at sample index 4$"
        with pytest.raises(HetanomError, match=message):
            base_loss_grad(net, X, y)


class TestCdlLoss:
    def _net(self, seed, d=2, h=3):
        return ScorerNet.init(d, h, np.random.default_rng(seed))

    def _batch(self, seed, n=6, d=2):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.integers(0, 2, size=n)

    def test_single_base_degenerates_to_base_loss(self):
        net = self._net(1)
        X, y = self._batch(2)
        total, grads, losses = cdl_loss([(net, X, y)], np.array([1.0]))
        assert total == base_loss(net, X, y)
        assert losses == [total]
        np.testing.assert_array_equal(grads[0], base_loss_grad(net, X, y)[1])

    def test_uniform_weights_average(self):
        # per-base losses 2 and 4 with weights (.5, .5) -> 3
        n1 = ScorerNet(1, 1, np.array([1.0, 0.0, 1.0, 0.0]))
        b1 = (n1, np.array([[2.0]]), np.array([0]))  # loss 2
        b2 = (n1, np.array([[4.0]]), np.array([0]))  # loss 4
        total, _, _ = cdl_loss([b1, b2], np.array([0.5, 0.5]))
        assert total == 3.0

    def test_one_hot_matches_single(self):
        bases = []
        for s in range(3):
            net = self._net(s)
            X, y = self._batch(10 + s)
            bases.append((net, X, y))
        w = np.array([0.0, 1.0, 0.0])
        total, grads, losses = cdl_loss(bases, w)
        ref_loss, ref_grad = base_loss_grad(*bases[1])
        assert abs(total - ref_loss) < 1e-15
        np.testing.assert_array_equal(grads[1], ref_grad)
        assert (grads[0] == 0).all() and (grads[2] == 0).all()
        # the per-base losses are unweighted, zero weights included
        assert losses == [base_loss(n, X, y) for n, X, y in bases]

    def test_weight_validation(self):
        bases = [(self._net(0), *self._batch(1))]
        with pytest.raises(HetanomError, match="^cdl aggregation: weights must sum to 1"):
            cdl_loss(bases, np.array([0.5]))
        with pytest.raises(HetanomError,
                           match=r"^cdl aggregation: weights must be non-negative, got \[-1\.0\]$"):
            cdl_loss(bases, np.array([-1.0]))
        with pytest.raises(HetanomError, match=r"^cdl aggregation: weights length \(2,\) "
                                               r"!= number of bases 1$"):
            cdl_loss(bases, np.array([0.5, 0.5]))

    def test_nan_weights_rejected(self):
        bases = [(self._net(s), *self._batch(40 + s)) for s in range(2)]
        with pytest.raises(HetanomError, match="cdl aggregation"):
            cdl_loss(bases, np.array([np.nan, np.nan]))
        with pytest.raises(HetanomError, match="cdl aggregation"):
            cdl_loss(bases, np.array([np.inf, 1.0]))

    def test_linear_in_weights(self):
        bases = [(self._net(s), *self._batch(30 + s)) for s in range(3)]
        rng = np.random.default_rng(4)
        w1 = rng.dirichlet(np.ones(3))
        w2 = rng.dirichlet(np.ones(3))
        alpha = 0.3
        mixed, _, _ = cdl_loss(bases, alpha * w1 + (1 - alpha) * w2)
        t1, _, _ = cdl_loss(bases, w1)
        t2, _, _ = cdl_loss(bases, w2)
        assert abs(mixed - (alpha * t1 + (1 - alpha) * t2)) < 1e-12


class TestContinuity:
    def test_deviation_loss_continuous_at_kinks(self):
        eps = 1e-9
        # normal branch kink at score 0, anomaly branch kink at the margin
        for kink, y in ((0.0, 0), (5.0, 1)):
            at = float(deviation_loss(kink, y))
            below = float(deviation_loss(kink - eps, y))
            above = float(deviation_loss(kink + eps, y))
            assert abs(below - at) < 2 * eps
            assert abs(above - at) < 2 * eps
