"""Golden pins: the criterion-8 config must reproduce its recorded results
checksum, per-epoch fit logs and checkpoints bit for bit."""

import hashlib
import json
from pathlib import Path

from hetanom.cli import main as cli_main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "criterion8.json").read_text())


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
