import numpy as np
import pytest

from hetanom.errors import ContractError, NumericError
from hetanom.losses import base_loss, base_loss_grad, cdl_loss, deviation_loss
from hetanom.nets import ScorerNet

MARGIN = 5.0


class TestDeviation:
    def test_loss_values(self):
        assert deviation_loss(0.0, 0, MARGIN) == 0.0  # normal at the prior mean
        assert deviation_loss(6.0, 1, MARGIN) == 0.0  # anomaly beyond the margin
        assert deviation_loss(2.0, 1, MARGIN) == 3.0  # hinge: 5 - 2

    def test_loss_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(scale=4.0, size=500)
        for y in (0, 1):
            losses = deviation_loss(scores, np.full(500, y), MARGIN)
            assert (losses >= 0).all()
            zero = losses == 0
            if y == 0:
                np.testing.assert_array_equal(zero, scores == 0.0)
            else:
                np.testing.assert_array_equal(zero, scores >= MARGIN)


class TestBaseLoss:
    def test_single_normal_zero(self):
        net = ScorerNet(2, 2, np.zeros(ScorerNet.param_count(2, 2)))
        assert base_loss(net, np.ones((1, 2)), np.array([0]), MARGIN) == 0.0

    def test_mean_reduction(self):
        # per-sample losses 1 and 3 -> mean 2: normals scored 1 and 3 give |dev| 1, 3
        net = ScorerNet(1, 1, np.array([1.0, 0.0, 1.0, 0.0]))  # identity on x >= 0
        X = np.array([[1.0], [3.0]])
        y = np.array([0, 0])
        assert base_loss(net, X, y, MARGIN) == 2.0

    def test_empty_set_rejected(self):
        net = ScorerNet.init(2, 2, np.random.default_rng(0))
        with pytest.raises(ContractError):
            base_loss(net, np.empty((0, 2)), np.empty(0), MARGIN)

    def test_matches_scalar_resummation_oracle(self):
        rng = np.random.default_rng(7)
        net = ScorerNet.init(3, 5, rng)
        X = rng.normal(size=(11, 3))
        y = rng.integers(0, 2, size=11)
        got = base_loss(net, X, y, MARGIN)
        acc = 0.0
        for i in range(11):
            acc += float(deviation_loss(net.forward(X[i : i + 1])[0], int(y[i]), MARGIN))
        assert abs(got - acc / 11) < 1e-12

    def test_nonfinite_loss_names_sample(self):
        net = ScorerNet(1, 1, np.array([1e308, 1e308, 1e308, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="index 0"):
                base_loss_grad(net, np.array([[1e308]]), np.array([0]), MARGIN)


class TestCdlLoss:
    def _net(self, seed, d=2, h=3):
        return ScorerNet.init(d, h, np.random.default_rng(seed))

    def _batch(self, seed, n=6, d=2):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.integers(0, 2, size=n)

    def test_single_base_degenerates_to_base_loss(self):
        net = self._net(1)
        X, y = self._batch(2)
        total, grads, losses = cdl_loss([(net, X, y)], np.array([1.0]), MARGIN)
        assert total == base_loss(net, X, y, MARGIN)
        assert losses == [total]
        np.testing.assert_array_equal(grads[0], base_loss_grad(net, X, y, MARGIN)[1])

    def test_uniform_weights_average(self):
        # per-base losses 2 and 4 with weights (.5, .5) -> 3
        n1 = ScorerNet(1, 1, np.array([1.0, 0.0, 1.0, 0.0]))
        b1 = (n1, np.array([[2.0]]), np.array([0]))  # loss 2
        b2 = (n1, np.array([[4.0]]), np.array([0]))  # loss 4
        total, _, _ = cdl_loss([b1, b2], np.array([0.5, 0.5]), MARGIN)
        assert total == 3.0

    def test_one_hot_matches_single(self):
        bases = []
        for s in range(3):
            net = self._net(s)
            X, y = self._batch(10 + s)
            bases.append((net, X, y))
        w = np.array([0.0, 1.0, 0.0])
        total, grads, losses = cdl_loss(bases, w, MARGIN)
        ref_loss, ref_grad = base_loss_grad(*bases[1], MARGIN)
        assert abs(total - ref_loss) < 1e-15
        np.testing.assert_array_equal(grads[1], ref_grad)
        assert (grads[0] == 0).all() and (grads[2] == 0).all()
        # the per-base losses are unweighted, zero weights included
        assert losses == [base_loss(n, X, y, MARGIN) for n, X, y in bases]

    def test_weight_validation(self):
        bases = [(self._net(0), *self._batch(1))]
        with pytest.raises(ContractError):
            cdl_loss(bases, np.array([0.5]), MARGIN)         # sum != 1
        with pytest.raises(ContractError):
            cdl_loss(bases, np.array([-1.0]), MARGIN)        # negative
        with pytest.raises(ContractError):
            cdl_loss(bases, np.array([0.5, 0.5]), MARGIN)    # wrong length

    def test_nan_weights_rejected(self):
        bases = [(self._net(s), *self._batch(40 + s)) for s in range(2)]
        with pytest.raises(NumericError, match="cdl aggregation"):
            cdl_loss(bases, np.array([np.nan, np.nan]), MARGIN)
        with pytest.raises(NumericError, match="cdl aggregation"):
            cdl_loss(bases, np.array([np.inf, 1.0]), MARGIN)

    def test_linear_in_weights(self):
        bases = [(self._net(s), *self._batch(30 + s)) for s in range(3)]
        rng = np.random.default_rng(4)
        w1 = rng.dirichlet(np.ones(3))
        w2 = rng.dirichlet(np.ones(3))
        alpha = 0.3
        mixed, _, _ = cdl_loss(bases, alpha * w1 + (1 - alpha) * w2, MARGIN)
        t1, _, _ = cdl_loss(bases, w1, MARGIN)
        t2, _, _ = cdl_loss(bases, w2, MARGIN)
        assert abs(mixed - (alpha * t1 + (1 - alpha) * t2)) < 1e-12


class TestContinuity:
    def test_deviation_loss_continuous_at_kinks(self):
        eps = 1e-9
        # normal branch kink at score 0, anomaly branch kink at the margin
        for kink, y in ((0.0, 0), (5.0, 1)):
            at = float(deviation_loss(kink, y, MARGIN))
            below = float(deviation_loss(kink - eps, y, MARGIN))
            above = float(deviation_loss(kink + eps, y, MARGIN))
            assert abs(below - at) < 2 * eps
            assert abs(above - at) < 2 * eps
