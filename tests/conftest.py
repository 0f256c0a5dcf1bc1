import numpy as np
import pytest

from hetanom.data import FeatureDataset
from hetanom.nets import ScorerNet
from hetanom.synth import default_benchmark, generate
from hetanom.train import _epoch_batches, _train_stack


@pytest.fixture(scope="session")
def benchmark_ds() -> FeatureDataset:
    """The repo's fixed synthetic benchmark (1200 normals, 240 anomalies)."""
    return generate(default_benchmark())


@pytest.fixture(scope="session")
def small_ds() -> FeatureDataset:
    """A thinned benchmark (400 normals, 60 anomalies) for fast loop tests."""
    full = generate(default_benchmark())
    rows = list(range(0, 1200, 3)) + list(range(1200, 1440, 4))
    return full.take(rows)


def make_dataset(n_normal=8, n_anomaly=4, dim=3, seed=0, tag="blob"):
    rng = np.random.default_rng(seed)
    n = n_normal + n_anomaly
    labels = np.array([0] * n_normal + [1] * n_anomaly, dtype=np.int64)
    return FeatureDataset(
        ids=tuple(f"s{i}" for i in range(n)),
        features=rng.normal(size=(n, dim)),
        labels=labels,
        class_tags=tuple("" if l == 0 else tag for l in labels),
    )


def train_support_epoch(net, opt, X, y, cfg, rng) -> None:
    """One support-set pass for one scorer, in place: the one-row case of
    the stacked trainer, used as the per-net reference."""
    y = np.asarray(y)
    stack = ScorerNet(net.dim, net.hidden, net.theta[None])
    _train_stack(stack, opt, X, y, [_epoch_batches(rng, y, cfg.batch_size)], cfg.margin)
    net.theta = stack.theta[0]
