"""Golden pins: the criterion-8 config must reproduce its recorded results
checksum, per-epoch fit logs and checkpoints bit for bit, and a default
fit on the benchmark its recorded parameters and log."""

import hashlib
import json
from pathlib import Path

import numpy as np

from hetanom import TrainConfig, fit
from hetanom.cli import main as cli_main
from hetanom.synth import default_benchmark, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "criterion8.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def theta_sha(net):
        return hashlib.sha256(np.ascontiguousarray(net.theta, dtype="<f8").tobytes()).hexdigest()

    log = "".join(json.dumps(record, sort_keys=True) + "\n" for record in res.log)
    assert theta_sha(res.unified) == pins["unified_theta_sha256"]
    assert theta_sha(res.seq_net) == pins["seq_theta_sha256"]
    assert hashlib.sha256(log.encode("utf-8")).hexdigest() == pins["log_sha256"]
