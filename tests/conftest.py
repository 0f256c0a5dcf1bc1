import numpy as np
import pytest

from hetanom.data import FeatureDataset
from hetanom.nets import ScorerNet, _blas_set_threads
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


@pytest.fixture
def set_blas_threads():
    """OpenBLAS's ``openblas_set_num_threads_local``, for a test to set the
    process's thread count with; the count the test found is put back
    after it. Skips where the BLAS lacks the symbol or will not run more
    than one thread."""
    set_threads = _blas_set_threads()
    if set_threads is None:
        pytest.skip("the BLAS has no openblas_set_num_threads_local")
    original = set_threads(2)
    try:
        if set_threads(2) < 2:
            pytest.skip("the BLAS will not run more than one thread")
        yield set_threads
    finally:
        set_threads(original)


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
    _train_stack(stack, opt, X, y, [_epoch_batches(rng, y, cfg.batch_size)])
    net.theta = stack.theta[0]


def reference_kmeans(X, k, rng, max_iters=100, tol=1e-6):
    """k-means as it ran before it skipped its final assignment and computed
    its distances in blocks: the final assignment always runs, and every
    assignment makes its (n, k) distances one whole column at a time.
    Returns (centroids, assign, whether the last Lloyd step repaired an
    empty cluster)."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[int(rng.integers(n))]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = X[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    repaired = False
    for _ in range(max_iters):
        assign, repaired = reference_assign_with_repair(X, centroids)
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = X[assign == c].mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    assign, _ = reference_assign_with_repair(X, centroids)
    return centroids, assign, repaired


def reference_assign_with_repair(X, centroids):
    """``partition._assign_with_repair`` before its distances were blocked:
    two (n, d) temporaries per column of an (n, k) matrix."""
    k =centroids.shape[0]
    dist = np.empty((X.shape[0], k))
    for c in range(k):
        dist[:, c] = ((X - centroids[c]) ** 2).sum(axis=1)
    assign = dist.argmin(axis=1)
    repaired = False
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign, repaired
        own = dist[np.arange(len(assign)), assign].copy()
        own[counts[assign] <= 1] = -np.inf
        far = int(own.argmax())
        centroids[empties[0]] = X[far]
        dist[:, empties[0]] = ((X - centroids[empties[0]]) ** 2).sum(axis=1)
        assign[far] = empties[0]
        repaired = True
