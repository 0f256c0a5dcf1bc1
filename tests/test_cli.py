import json
import re
from pathlib import Path

import pytest

from hetanom.cli import MANIFEST_VERSION, execute_replay, execute_sweep, main, parse_config
from hetanom.data import ingest_csv
from hetanom.errors import ConfigurationError, ReplayError


def minimal_config(out_dir, seeds=(0,), variants=("AHL",), epochs=3):
    return {
        "seed": 1,
        "output_dir": str(out_dir),
        "dataset": {"kind": "synthetic", "spec": {
            "dim": 6,
            "seed": 5,
            "normal_components": [
                {"mean": [0.0] * 6, "std": [1.0] * 6, "count": 60},
                {"mean": [4.0] * 6, "std": [1.0] * 6, "count": 60},
            ],
            "anomaly_components": [
                {"mean": [8.0] * 6, "std": [0.5] * 6, "count": 20, "class_tag": "hot"},
                {"mean": [-6.0] * 6, "std": [0.5] * 6, "count": 20, "class_tag": "cold"},
            ],
        }},
        "train": {"T": 3, "C": 2, "epochs": epochs, "hidden": 16},
        "protocol": {"kind": "general", "m_anomalies": 6, "seeds": list(seeds)},
        "variants": list(variants),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestParseConfig:
    def test_t_zero_names_field(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["train"]["T"] = 0
        with pytest.raises(ConfigurationError, match="train.T"):
            parse_config(cfg)

    def test_unknown_top_level_field(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            parse_config(cfg)

    def test_unknown_train_field(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["train"]["nope"] = 1
        with pytest.raises(ConfigurationError, match="train.nope"):
            parse_config(cfg)

    def test_bad_variant(self, tmp_path):
        cfg = minimal_config(tmp_path / "out", variants=("Wrong",))
        with pytest.raises(ConfigurationError, match=r"variants\[0\]"):
            parse_config(cfg)

    def test_csv_needs_path(self):
        with pytest.raises(ConfigurationError, match="dataset.path"):
            parse_config({"dataset": {"kind": "csv"},
                          "protocol": {"kind": "general", "seeds": [0]}})

    @pytest.mark.parametrize("path, value", [
        (("seed",), "abc"),
        (("seed",), 2.5),
        (("seed",), True),
        (("sweep",), {"param": "C", "values": ["x"]}),
        (("sweep",), {"param": "C", "values": [True]}),
        (("train", "lr_base"), "x"),
        (("train", "lr_base"), True),
        (("train", "lr_base"), float("nan")),
        (("train", "T"), "7"),
        (("train", "T"), 2.5),
        (("train", "T"), True),
        (("train", "strict_openness"), 1),
        (("train",), None),
        (("protocol", "m_anomalies"), "10"),
        (("protocol", "seeds"), "012"),
        (("protocol", "seen_class"), 3),
        (("output_dir",), 7),
        (("dataset", "spce"), {"dim": 6}),
        (("sweep", "extra"), 1),
        (("dataset", "spec", "extra"), 1),
        (("dataset", "spec", "dim"), 6.9),
        (("dataset", "spec", "seed"), True),
        (("dataset", "spec", "normal_components", 0, "count"), True),
        (("dataset", "spec", "normal_components", 1, "count"), 6.9),
        (("dataset", "spec", "normal_components", 0, "std"), [float("nan")] * 6),
        (("dataset", "spec", "anomaly_components", 0, "mean"), "abc"),
        (("dataset", "spec", "anomaly_components", 1, "mean"), [True] * 6),
        (("dataset", "spec", "anomaly_components", 0, "class_tag"), 3),
        (("dataset", "spec", "anomaly_components", 1, "tag"), "cold"),
        pytest.param(("train", "lr_base"), 10**400, id="path29-int-beyond-float"),
    ])
    def test_wrong_type_names_field(self, tmp_path, path, value):
        cfg = minimal_config(tmp_path / "out")
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = value
        field = "sweep.values" if path == ("sweep",) else "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(field)}(\[0\])?: "):
            parse_config(cfg)

    @pytest.mark.parametrize("kind, field", [("csv", "spec"), ("synthetic", "path")])
    def test_field_of_the_other_dataset_kind_refused(self, tmp_path, kind, field):
        cfg = minimal_config(tmp_path / "out")
        cfg["dataset"] = {"kind": kind, "path": "bench.csv", "spec": cfg["dataset"]["spec"]}
        with pytest.raises(ConfigurationError, match=rf"^dataset.{field}: "):
            parse_config(cfg)

    def test_cross_domain_refused(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path / "out")
        cfg["protocol"]["kind"] = "cross_domain"
        with pytest.raises(ConfigurationError, match="^protocol.kind: "):
            parse_config(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == ("config error: protocol.kind: "
                                           "must be 'general' or 'hard'\n")

    @pytest.mark.parametrize("path", [("train", "weight_mode"), ("protocol", "fine_tune_epochs")])
    def test_removed_field_refused(self, tmp_path, path):
        cfg = minimal_config(tmp_path / "out")
        cfg[path[0]][path[1]] = 1
        field = re.escape(".".join(path))
        with pytest.raises(ConfigurationError, match=rf"^{field}: unknown field$"):
            parse_config(cfg)

    def test_duplicate_sweep_values_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["sweep"] = {"param": "C", "values": [2, 2]}
        assert main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "config error: sweep.values: must be distinct\n"
        assert not out.exists()

    def test_invalid_sweep_value_names_its_index(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["sweep"] = {"param": "C", "values": [2, 0]}
        with pytest.raises(ConfigurationError, match=r"^sweep.values\[1\]: C: must be >= 1"):
            parse_config(cfg)


class TestRunCommand:
    def test_minimal_run_writes_results(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert len(results["results"]) == 1
        entry = results["results"][0]
        assert entry["variant"] == "AHL"
        assert len(entry["per_seed"]) == 1
        assert (out / "manifest.json").exists()
        assert (out / "results.csv").exists()
        assert (out / "logs" / "AHL-seed0.jsonl").exists()
        assert (out / "checkpoints" / "AHL-seed0.ckpt").exists()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path / "out")
        cfg["train"]["T"] = 0
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "train.T" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg = minimal_config(tmp_path / "out-a")
        path_a = write_config(tmp_path, cfg, "a.json")
        assert main(["run", "--config", str(path_a)]) == 0
        cfg["output_dir"] = str(tmp_path / "out-b")
        path_b = write_config(tmp_path, cfg, "b.json")
        assert main(["run", "--config", str(path_b)]) == 0

        tree_a = read_tree(tmp_path / "out-a")
        tree_b = read_tree(tmp_path / "out-b")
        assert set(tree_a) == set(tree_b)
        for name in tree_a:
            if name == "manifest.json":
                continue  # embeds output_dir, everything else must agree
            assert tree_a[name] == tree_b[name], name
        man_a = json.loads(tree_a["manifest.json"])
        man_b = json.loads(tree_b["manifest.json"])
        assert man_a["results_sha256"] == man_b["results_sha256"]

    def test_non_integer_threads_variable_exit_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, minimal_config(out))
        monkeypatch.setenv("AHL_THREADS", "abc")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "config error: AHL_THREADS: must be an integer\n"
        assert not out.exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = minimal_config(tmp_path / "o1")
        p = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(p)]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o2"),
                     "--seed", "99"]) == 0
        a = (tmp_path / "o1" / "results.json").read_bytes()
        b = (tmp_path / "o2" / "results.json").read_bytes()
        assert a != b


class TestReplay:
    def test_replay_reproduces(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "replayed")]) == 0
        assert (tmp_path / "replayed" / "results.json").read_bytes() == \
            (out / "results.json").read_bytes()

    def test_tampered_seed_detected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["seed"] = 123456
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(manifest))
        assert main(["replay", "--manifest", str(tampered),
                     "--out", str(tmp_path / "replayed")]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_version_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format_version": 99, "config": {},
                                   "results_sha256": "x"}))
        assert main(["replay", "--manifest", str(bad),
                     "--out", str(tmp_path / "r")]) == 1
        assert "format_version" in capsys.readouterr().err

    # each older format lists config fields that are gone, by section
    @pytest.mark.parametrize("version, gone", [
        (1, {"train": dict(plain_sgd=False, prior_mode="analytic", prior_draws=5000,
                           subset_mode=None, pseudo_per_subset=None)}),
        (2, {"train": dict(reduction="mean")}),
        (3, {"train": dict(weight_mode="sequence"), "protocol": dict(fine_tune_epochs=10)}),
    ], ids=["1", "2", "3"])
    def test_old_manifest_version_refused(self, tmp_path, version, gone):
        cfg = minimal_config(tmp_path / "out")
        for section, values in gone.items():
            cfg[section].update(values)
        old = tmp_path / f"v{version}.json"
        old.write_text(json.dumps({"format_version": version, "command": "run", "config": cfg,
                                   "dataset_sha256": None, "results_sha256": "x"}))
        with pytest.raises(ReplayError, match=f"format_version {version}"):
            execute_replay(old, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("manifest, message", [
        ([], "manifest: must be a JSON object"),
        ({"format_version": MANIFEST_VERSION}, "manifest: missing field 'config'"),
        ({"format_version": MANIFEST_VERSION, "config": minimal_config("out")},
         "manifest: missing field 'results_sha256'"),
        ({"format_version": MANIFEST_VERSION, "command": "train",
          "config": minimal_config("out"), "results_sha256": "x"},
         "manifest: command 'train' is neither 'run' nor 'sweep'"),
    ], ids=["not-an-object", "no-config", "no-checksum", "unknown-command"])
    def test_malformed_manifest_refused_before_any_work(self, tmp_path, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ReplayError, match=re.escape(message)):
            execute_replay(path, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"format_version": 2, "comm', "manifest: invalid JSON"),
        (None, "manifest: file not found"),
    ], ids=["truncated", "missing"])
    def test_unreadable_manifest_is_a_config_error(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        assert main(["replay", "--manifest", str(manifest),
                     "--out", str(tmp_path / "replayed")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "replayed").exists()


class TestSweepCommand:
    def test_sweep_csv_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out, epochs=2)
        cfg["sweep"] = {"param": "C", "values": [2, 3]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_more_than_one_variant_refused_before_writing(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out, variants=("AHL", "Homogeneous"))
        cfg["sweep"] = {"param": "C", "values": [2]}
        with pytest.raises(ConfigurationError, match="^variants: "):
            execute_sweep(parse_config(cfg), out)
        assert not out.exists()


class TestGenData:
    def test_default_benchmark_export(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["gen-data", "--out", str(out)]) == 0
        ds = ingest_csv(out)
        assert ds.n_normal == 1200 and ds.n_anomaly == 240

    def test_custom_spec_and_seed(self, tmp_path):
        spec = minimal_config(tmp_path)["dataset"]["spec"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out), "--spec", str(spec_path),
                     "--seed", "11"]) == 0
        ds = ingest_csv(out)
        assert ds.n_normal == 120 and ds.n_anomaly == 40

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 6, "seed": 5, "normal_comp', "spec: invalid JSON"),
        (None, "spec: file not found"),
    ], ids=["truncated", "missing"])
    def test_unreadable_spec_is_a_config_error(self, tmp_path, capsys, text, message):
        spec_path = tmp_path / "spec.json"
        if text is not None:
            spec_path.write_text(text)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out), "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()
