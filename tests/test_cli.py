import csv
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from hetanom import cli, evaluate
from hetanom.cli import MANIFEST_VERSION, execute_replay, execute_run, main, parse_config
from hetanom.data import ingest_csv, write_csv
from hetanom.errors import ConfigurationError, ReplayError
from hetanom.evaluate import METRICS, ProtocolSpec, check_clusters, sweep
from hetanom.synth import MixtureSpec, generate
from hetanom.train import TrainConfig


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

    @pytest.mark.parametrize("name", ["lr_base", "lr_unified", "lr_seq", "seq_batch_size",
                                      "c_unseen", "c_other", "margin"])
    def test_fixed_value_is_an_unknown_train_field(self, tmp_path, name):
        # the paper fixes these values; they are module constants, not config fields
        cfg = minimal_config(tmp_path / "out")
        cfg["train"][name] = 1.0
        with pytest.raises(ConfigurationError, match=rf"^train\.{name}: unknown field$"):
            parse_config(cfg)

    def test_bad_variant(self, tmp_path):
        cfg = minimal_config(tmp_path / "out", variants=("Wrong",))
        with pytest.raises(ConfigurationError, match=r"variants\[0\]"):
            parse_config(cfg)

    def test_manifest_config_round_trips(self, tmp_path):
        # the manifest records asdict(config), less train.seed
        config = parse_config(minimal_config(tmp_path / "out"))
        recorded = asdict(config)
        del recorded["train"]["seed"]
        assert parse_config(recorded) == config

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
        (("dataset", "spec", "normal_components", 0, "std", 0), "x"),
        (("dataset", "spec", "normal_components", 0, "std", 0), True),
        (("dataset", "spec", "normal_components", 0, "std", 0), float("nan")),
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
        pytest.param(("dataset", "spec", "normal_components", 0, "std", 0), 10**400,
                     id="path29-int-beyond-float"),
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

    def test_train_fraction_is_an_unknown_field(self, tmp_path, capsys):
        # the split is the constant data.TRAIN_FRACTION
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["protocol"]["train_fraction"] = 0.75
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "config error: protocol.train_fraction: unknown field\n"
        assert not out.exists()

    def test_duplicate_sweep_values_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["sweep"] = {"param": "C", "values": [2, 2]}
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "config error: sweep.values: must be distinct\n"
        assert not out.exists()

    def test_train_seed_refused(self, tmp_path, capsys):
        # the top-level seed is the one that seeds training
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["train"]["seed"] = 123
        with pytest.raises(ConfigurationError, match="^train.seed: .*top-level seed"):
            parse_config(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: train.seed: ")
        assert not out.exists()

    def test_invalid_sweep_value_names_its_index(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["sweep"] = {"param": "C", "values": [2, 0]}
        with pytest.raises(ConfigurationError, match=r"^sweep.values\[1\]: C: must be >= 1"):
            parse_config(cfg)

    def test_one_cluster_for_several_subsets_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = minimal_config(out, variants=("Homogeneous",))
        cfg["train"]["C"] = 1
        with pytest.raises(ConfigurationError, match=r"^train.C: must be >= 2 when T > 1"):
            parse_config(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: train.C: ")
        assert not out.exists()
        cfg["train"]["C"] = 2
        cfg["sweep"] = {"param": "C", "values": [2, 1]}
        with pytest.raises(ConfigurationError,
                           match=r"^sweep.values\[1\]: C: must be >= 2 when T > 1"):
            parse_config(cfg)

    def test_one_subset_runs_on_one_cluster(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["train"].update(T=1, C=1)
        assert parse_config(cfg).train.C == 1

    @pytest.mark.parametrize("protocol, message", [
        ({"kind": "hard", "seen_class": "nope", "m_anomalies": 6},
         "protocol.seen_class: 'nope' not present in dataset"),
        ({"kind": "general", "m_anomalies": 41},
         "protocol.m_anomalies: 41 exceeds the 40 available anomalies"),
        ({"kind": "hard", "seen_class": "hot", "m_anomalies": 21},
         "protocol.m_anomalies: 21 exceeds the 20 available anomalies"),
    ], ids=["seen-class", "m-general", "m-hard"])
    @pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
    def test_protocol_the_data_cannot_carry_refused_before_writing(
            self, tmp_path, capsys, protocol, message, sweep):
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["protocol"].update(protocol)
        if sweep:
            cfg["sweep"] = {"param": "C", "values": [2]}
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["AHL", "CDL_minus", "HADG_only"])
    @pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
    def test_more_clusters_than_training_normals_refused_before_writing(
            self, tmp_path, capsys, variant, sweep):
        # 120 normals, of which a 0.75 split trains on 90
        out = tmp_path / "out"
        cfg = minimal_config(out, variants=(variant,))
        if sweep:
            cfg["sweep"] = {"param": "C", "values": [2, 100]}
        else:
            cfg["train"]["C"] = 100
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == ("config error: train.C: 100 exceeds the 90 normals "
                                           "a seed trains on\n")
        assert not out.exists()

    @pytest.mark.parametrize("protocol, message", [
        ({"m_anomalies": 40}, "protocol.m_anomalies: 40 leaves none of the 40 anomalies to test"),
    ], ids=["no-test-anomaly"])
    def test_split_the_data_cannot_carry_refused_before_writing(
            self, tmp_path, capsys, protocol, message):
        # 120 normals and 40 anomalies; this failed mid-run once, after
        # other jobs had written their logs
        out = tmp_path / "out"
        cfg = minimal_config(out, seeds=(0, 1))
        cfg["protocol"].update(protocol)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_two_normals_refused_before_writing(self, tmp_path, capsys):
        # a 0.75 split of 2 normals trains on both and tests on none
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["dataset"]["spec"]["normal_components"] = [
            {"mean": [0.0] * 6, "std": [1.0] * 6, "count": 2}]
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "config error: dataset: 2 normals leave none to test on\n"
        assert not out.exists()

    def test_clusters_checked_against_the_training_split(self, tmp_path):
        # 120 normals, of which a 0.75 split trains on 90
        ds, _ = parse_config(minimal_config(tmp_path / "out")).dataset.load()
        check_clusters(ds, 90)
        with pytest.raises(ConfigurationError, match=r"^train.C: 91 exceeds the 90 normals"):
            check_clusters(ds, 91)

    def test_variant_without_clusters_runs_with_a_large_C(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out, variants=("Homogeneous",))
        cfg["train"]["C"] = 100
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert (out / "results.json").exists()


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

    def test_results_csv_lists_every_metric(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out, seeds=(0, 1), variants=("AHL", "Homogeneous"), epochs=2)
        cfg["protocol"] = {"kind": "hard", "m_anomalies": 6, "seen_class": "hot",
                           "seeds": [0, 1]}
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variant", "kind", "seed", *METRICS]
        assert rows[0][-1] == "auc_unseen_macro"
        expected = [[entry["variant"], entry["kind"], str(r["seed"]),
                     *("" if r[m] is None else repr(r[m]) for m in METRICS)]
                    for entry in json.loads((out / "results.json").read_text())["results"]
                    for r in entry["per_seed"]]
        assert rows[1:] == expected and len(expected) == 4
        assert all(row[-1] != "" for row in rows[1:])  # "cold" is unseen in every seed

    def test_missing_csv_dataset_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = minimal_config(out)
        missing = tmp_path / "absent.csv"
        cfg["dataset"] = {"kind": "csv", "path": str(missing)}
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: dataset.path: no such file: {missing}\n"
        assert not out.exists()

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

    def test_threads_other_than_one_refused_before_writing(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(minimal_config(out))
        with pytest.raises(ConfigurationError, match="^threads: "):
            execute_run(config, out, 2)
        assert not out.exists()

    @pytest.mark.parametrize("args", [["run", "--config", "config.json"],
                                      ["replay", "--manifest", "manifest.json", "--out", "o"]],
                             ids=["run", "replay"])
    def test_threads_flag_is_gone(self, args, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(args + ["--threads", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_seed_override_changes_results(self, tmp_path):
        cfg = minimal_config(tmp_path / "o1")
        p = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(p)]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o2"),
                     "--seed", "99"]) == 0
        a = (tmp_path / "o1" / "results.json").read_bytes()
        b = (tmp_path / "o2" / "results.json").read_bytes()
        assert a != b


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _group(pgid: int) -> list[int]:
    """The pids of the processes in process group ``pgid``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # the process ended while it was read
            continue
        if int(fields[2]) == pgid:
            pids.append(int(stat.parent.name))
    return pids


class TestWorkers:
    """A run's (variant or swept value, seed) jobs run in a pool of forked
    workers; the artifacts do not depend on it."""

    @pytest.mark.parametrize("serial", ["one-cpu", "no-fork", "other-thread"])
    @pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
    def test_artifacts_equal_the_in_process_run(self, tmp_path, monkeypatch, serial, sweep):
        cfg = minimal_config(tmp_path / "out", seeds=(0, 1),
                             variants=("AHL", "Homogeneous", "RamFULL"), epochs=2)
        if sweep:
            cfg["variants"] = ["AHL"]
            cfg["sweep"] = {"param": "C", "values": [2, 3]}
        config = parse_config(cfg)
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: contexts.append(method) or get_context(method))
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        pooled = execute_run(config, tmp_path / "pooled")
        assert contexts == ["fork"]
        if serial == "one-cpu":
            monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
        elif serial == "no-fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        release = threading.Event()
        if serial == "other-thread":
            threading.Thread(target=release.wait, args=(60,)).start()
        try:
            assert execute_run(config, tmp_path / "serial") == pooled
        finally:
            release.set()
        assert contexts == ["fork"]  # no pool the second time
        assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")
        assert len(_tree(tmp_path / "pooled")) == (3 if sweep else 15)

    @pytest.mark.skipif(evaluate._usable_cpus() < 2, reason="the pool needs 2 usable CPUs")
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the group from /proc")
    def test_ctrl_c_ends_the_run_and_its_workers(self, tmp_path):
        # two jobs of about 45 s each; SIGINT goes to the whole process
        # group, as a terminal's Ctrl-C sends it
        cfg = minimal_config(tmp_path / "out", seeds=(0, 1), epochs=10_000)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hetanom.cli", "run", "--config",
             str(write_config(tmp_path, cfg))],
            env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while len(_group(proc.pid)) < 3:  # the run and its two workers
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
            assert _group(proc.pid) == []
        finally:
            if _group(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


class TestReplay:
    def test_replay_reproduces(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "replayed")]) == 0
        assert (tmp_path / "replayed" / "results.json").read_bytes() == \
            (out / "results.json").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "command" not in manifest and "seed" not in manifest["config"]["train"]

    def test_missing_csv_dataset_refused_before_any_work(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        cfg = minimal_config("out")
        cfg["dataset"] = {"kind": "csv", "path": str(missing)}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format_version": MANIFEST_VERSION, "config": cfg,
                                    "dataset_sha256": "x", "results_sha256": "x"}))
        assert main(["replay", "--manifest", str(path),
                     "--out", str(tmp_path / "replayed")]) == 2
        assert capsys.readouterr().err == f"config error: dataset.path: no such file: {missing}\n"
        assert not (tmp_path / "replayed").exists()

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
        (4, {"train": dict(seed=0)}),
        (5, {"train": dict(lr_base=2e-4, lr_unified=5e-3, lr_seq=2e-2, seq_batch_size=256,
                           c_unseen=1.0, c_other=0.5, margin=5.0)}),
        (6, {"protocol": dict(train_fraction=0.75)}),
    ], ids=["1", "2", "3", "4", "5", "6"])
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
        ({"format_version": MANIFEST_VERSION, "config": minimal_config("out"),
          "results_sha256": "x"},
         "manifest: missing field 'dataset_sha256'"),
    ], ids=["not-an-object", "no-config", "no-checksum", "no-dataset-checksum"])
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
    """A config with a ``sweep`` section: ``run`` runs the sweep."""

    def test_sweep_csv_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out, epochs=2)
        cfg["sweep"] = {"param": "C", "values": [2, 3]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.json",
                                                         "sweep.csv"]
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "replayed")]) == 0
        for name in ("results.json", "sweep.csv"):
            assert (tmp_path / "replayed" / name).read_bytes() == (out / name).read_bytes()

    def test_more_than_one_variant_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = minimal_config(out, variants=("AHL", "Homogeneous"))
        cfg["sweep"] = {"param": "C", "values": [2]}
        with pytest.raises(ConfigurationError,
                           match="^variants: a sweep runs one variant, got 2$"):
            parse_config(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: variants: ")
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


class TestRelativeCsvPath:
    def test_run_in_one_directory_replays_from_another(self, tmp_path, monkeypatch):
        csv_dir = tmp_path / "csvt"
        csv_dir.mkdir()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(minimal_config("out")["dataset"]["spec"]))
        assert main(["gen-data", "--out", str(csv_dir / "data.csv"),
                     "--spec", str(spec_path)]) == 0
        cfg = minimal_config("r1")
        cfg["dataset"] = {"kind": "csv", "path": "data.csv"}
        write_config(csv_dir, cfg)
        monkeypatch.chdir(csv_dir)
        assert main(["run", "--config", "config.json"]) == 0
        manifest = json.loads((csv_dir / "r1" / "manifest.json").read_text())
        assert manifest["config"]["dataset"]["path"] == str((csv_dir / "data.csv").resolve())
        monkeypatch.chdir(tmp_path)
        assert main(["replay", "--manifest", "csvt/r1/manifest.json",
                     "--out", "replayed"]) == 0
        assert (tmp_path / "replayed" / "results.json").read_bytes() == \
            (csv_dir / "r1" / "results.json").read_bytes()


class TestCsvReadOnce:
    """The manifest hashes the bytes the run read, whatever happens to the
    file while the run lasts."""

    @pytest.mark.parametrize("change", ["overwrite", "remove"])
    def test_dataset_checksum_is_of_the_bytes_read(self, tmp_path, monkeypatch, change):
        csv_path = tmp_path / "data.csv"
        write_csv(generate(MixtureSpec.from_dict(minimal_config("out")["dataset"]["spec"])),
                  csv_path)
        original = csv_path.read_bytes()
        cfg = minimal_config(tmp_path / "out")
        cfg["dataset"] = {"kind": "csv", "path": str(csv_path)}
        inner = cli.run_protocols

        def changing_run_protocols(*args, **kwargs):
            if change == "overwrite":
                csv_path.write_bytes(b"id,label,class,f0\n")
            else:
                csv_path.unlink()
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, "run_protocols", changing_run_protocols)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["dataset_sha256"] == hashlib.sha256(original).hexdigest()


class TestReplayCsv:
    """Replay reads a csv dataset once, checks those bytes against the
    manifest's checksum before writing anything, and runs on them."""

    def run_on_csv(self, tmp_path):
        spec = MixtureSpec.from_dict(minimal_config("out")["dataset"]["spec"])
        csv_path = tmp_path / "data.csv"
        write_csv(generate(spec), csv_path)
        cfg = minimal_config(tmp_path / "out", epochs=1)
        cfg["dataset"] = {"kind": "csv", "path": str(csv_path)}
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        return spec, csv_path, tmp_path / "out" / "manifest.json"

    @pytest.mark.parametrize("change", ["edited", "unrecorded"])
    def test_unmatched_dataset_refused_before_writing(self, tmp_path, change):
        spec, csv_path, manifest_path = self.run_on_csv(tmp_path)
        if change == "edited":
            write_csv(generate(replace(spec, seed=6)), csv_path)
        else:  # a csv manifest whose checksum is null is not trusted
            manifest = json.loads(manifest_path.read_text())
            manifest["dataset_sha256"] = None
            manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ReplayError, match="^dataset file changed since the recorded run$"):
            execute_replay(manifest_path, tmp_path / "replayed")
        assert not (tmp_path / "replayed").exists()

    def test_replay_reads_the_csv_once(self, tmp_path, monkeypatch):
        _, csv_path, manifest_path = self.run_on_csv(tmp_path)
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            if path.name == csv_path.name:
                reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        execute_replay(manifest_path, tmp_path / "replayed")
        assert len(reads) == 1


class TestSweepChecksHaveOneOwner:
    def test_bad_param_same_message_from_config_and_library(self, tmp_path, capsys):
        cfg = minimal_config(tmp_path / "out")
        cfg["sweep"] = {"param": "T", "values": [2]}
        message = "sweep.param: must be 'C' or 'K', got 'T'"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(cfg)
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        ds = generate(MixtureSpec.from_dict(cfg["dataset"]["spec"]))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            sweep("T", [2], ds, ProtocolSpec(kind="general", m_anomalies=6, seeds=(0,)),
                  TrainConfig(T=3, C=2, epochs=1, hidden=8))

    def test_empty_values_refused(self, tmp_path):
        cfg = minimal_config(tmp_path / "out")
        cfg["sweep"] = {"param": "C", "values": []}
        with pytest.raises(ConfigurationError, match="^sweep.values: must be a non-empty list$"):
            parse_config(cfg)

    def test_python_built_sweep_with_two_variants_refused_before_writing(self, tmp_path):
        out = tmp_path / "out"
        cfg = minimal_config(out)
        cfg["sweep"] = {"param": "C", "values": [2]}
        config = parse_config(cfg)
        with pytest.raises(ConfigurationError, match="^variants: a sweep runs one variant, got 2$"):
            execute_run(replace(config, variants=("AHL", "Homogeneous")), out)
        assert not out.exists()
