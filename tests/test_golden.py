"""Golden pins: the criterion-8 config must reproduce its recorded results
checksum, per-epoch fit logs and checkpoints bit for bit, a default fit on
the benchmark its recorded parameters and log (and a small CDL_minus fit
its own), and subset simulation its recorded manifests and training
tables."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hetanom import TrainConfig, fit
from hetanom.cli import main as cli_main
from hetanom.synth import default_benchmark, generate
from hetanom.train import simulate

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "criterion8.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def theta_sha(net) -> str:
    return hashlib.sha256(np.ascontiguousarray(net.theta, dtype="<f8").tobytes()).hexdigest()


def log_sha(log) -> str:
    """SHA-256 of a fit log as ``hetanom run`` writes it."""
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in log)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_criterion8_golden(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(GOLDEN["config"]))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert _sha256(out / "results.json") == GOLDEN["results_sha256"]
    logs = {p.name: _sha256(p) for p in sorted((out / "logs").iterdir())}
    assert logs == GOLDEN["fit_log_sha256"]
    ckpts = {p.name: _sha256(p) for p in sorted((out / "checkpoints").iterdir())}
    assert ckpts == GOLDEN["checkpoint_sha256"]


def test_default_fit_golden():
    pins = json.loads((GOLDEN_DIR / "fit_default.json").read_text())
    res = fit(generate(default_benchmark(seed=1)), TrainConfig())
    assert theta_sha(res.unified) == pins["unified_theta_sha256"]
    assert theta_sha(res.seq_net) == pins["seq_theta_sha256"]
    assert log_sha(res.log) == pins["log_sha256"]


def test_cdl_minus_fit_golden():
    # accuracy-based importance weights, the one thing CDL_minus changes
    res = fit(generate(default_benchmark(seed=1)),
              TrainConfig(T=3, C=3, epochs=8, hidden=16, seed=2), accuracy_weights=True)
    assert res.seq_net is None
    assert theta_sha(res.unified) == \
        "da6ef3e9f2a475005b402f931bb1f65cfcd5a61a4cc8861dc403a40046420c83"
    assert log_sha(res.log) == "ae787f3dc22d303c3bbb810ef5729fe5ab5f9b155813624e7078b7b86af2e0fa"


#: subset simulation on the default benchmark: (TrainConfig fields, rows kept)
SUBSET_CASES = {
    "few_shot": ({"seed": 3}, None),
    "strict": ({"seed": 4, "strict_openness": True}, None),
    "one_shot": ({"seed": 5}, "normals+1"),
}


def subset_digests(ds, case: str) -> dict:
    """SHA-256 of the canonical subset manifest, the k-means centroids and
    every training-table field of one ``simulate`` call."""
    fields, rows = SUBSET_CASES[case]
    if rows == "normals+1":
        ds = ds.take(np.concatenate([ds.normal_rows(), ds.anomaly_rows()[:1]]))
    clusters, coll, table = simulate(ds, TrainConfig(**fields))

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def rows_sha(arrays) -> str:
        return sha(json.dumps([a.tolist() for a in arrays]).encode("utf-8"))

    return {
        "manifest": sha(json.dumps(coll.to_manifest(), sort_keys=True).encode("utf-8")),
        "centroids": sha(np.ascontiguousarray(clusters.centroids, dtype="<f8").tobytes()),
        "ids": sha("\n".join(table.ids).encode("utf-8")),
        "X": sha(np.ascontiguousarray(table.X, dtype="<f8").tobytes()),
        "y": sha(np.ascontiguousarray(table.y, dtype="<i8").tobytes()),
        "support_rows": rows_sha(table.support_rows),
        "query_rows": rows_sha(table.query_rows),
    }


@pytest.mark.parametrize("case", sorted(SUBSET_CASES))
def test_subsets_golden(benchmark_ds, case):
    pins = json.loads((GOLDEN_DIR / "subsets.json").read_text())
    assert subset_digests(benchmark_ds, case) == pins[case]
