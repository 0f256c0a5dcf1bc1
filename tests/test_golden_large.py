"""Golden pins for the large-table paths: k-means and ``stratified_split``
on the default benchmark mixture with every component count multiplied by
ten (14,400 rows), and ``generate`` on that mixture and the default one.
The pins in ``golden/large_table.json`` were recorded before
``FeatureDataset.take`` and ``kmeans`` were made cheaper, and those in
``golden/generate.json`` before ``generate`` filled one preallocated
table, so they hold those paths to their earlier results bit for bit."""

import hashlib
import json
from pathlib import Path

import pytest

from hetanom.data import SplitSpec, stratified_split
from hetanom.partition import kmeans
from hetanom.synth import Component, MixtureSpec, default_benchmark, generate

PINS_PATH = Path(__file__).parent / "golden" / "large_table.json"
GENERATE_PINS_PATH = Path(__file__).parent / "golden" / "generate.json"
SCALE = 10
KMEANS_K = 3
KMEANS_SEEDS = (3, 4, 7)
SPLIT_SEED = 11


def scaled_ds():
    base = default_benchmark()

    def scale(components):
        return tuple(Component(c.mean, c.std, c.count * SCALE, c.class_tag) for c in components)

    return generate(MixtureSpec(dim=base.dim, normal_components=scale(base.normal_components),
                                anomaly_components=scale(base.anomaly_components),
                                seed=base.seed))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _f8(a) -> bytes:
    return a.astype("<f8", copy=False).tobytes()


def large_digests() -> dict:
    """SHA-256 of each pinned result: centroids and assignments per k-means
    seed, and each split part's ids and features."""
    ds = scaled_ds()
    out = {}
    for seed in KMEANS_SEEDS:
        clusters = kmeans(ds, KMEANS_K, seed=seed)
        out[f"kmeans/{seed}"] = {
            "centroids": _sha(_f8(clusters.centroids)),
            "assign": _sha(clusters.assign.astype("<i8", copy=False).tobytes()),
        }
    for name, part in zip(("first", "second"), stratified_split(ds, SplitSpec(seed=SPLIT_SEED))):
        out[f"split/{name}"] = {
            "ids": _sha("\n".join(part.ids).encode("utf-8")),
            "features": _sha(_f8(part.features)),
        }
    return out


@pytest.fixture(scope="module")
def digests():
    return large_digests()


@pytest.mark.parametrize("key", [f"kmeans/{s}" for s in KMEANS_SEEDS] + ["split/first",
                                                                        "split/second"])
def test_large_table_golden(digests, key):
    assert digests[key] == json.loads(PINS_PATH.read_text())[key]


def generate_digests() -> dict:
    """SHA-256 of each part of the default benchmark and of the x10 mixture."""
    out = {}
    for name, ds in (("default", generate(default_benchmark(7))), ("x10", scaled_ds())):
        out[f"generate/{name}"] = {
            "ids": _sha("\n".join(ds.ids).encode("utf-8")),
            "features": _sha(_f8(ds.features)),
            "labels": _sha(ds.labels.astype("<i8", copy=False).tobytes()),
            "class_tags": _sha("\n".join(ds.class_tags).encode("utf-8")),
        }
    return out


@pytest.fixture(scope="module")
def gen_digests():
    return generate_digests()


@pytest.mark.parametrize("key", ["generate/default", "generate/x10"])
def test_generate_golden(gen_digests, key):
    assert gen_digests[key] == json.loads(GENERATE_PINS_PATH.read_text())[key]
