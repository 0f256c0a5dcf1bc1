"""Batch experiment driver.

Subcommands: ``run`` (execute a config), ``replay`` (reproduce a run from
its manifest and verify the recorded checksum), ``sweep`` (hyperparameter
sweep to plot-data CSV), ``gen-data`` (export the synthetic benchmark to
CSV). All outputs are deterministic: rerunning a config produces
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import FeatureDataset, ingest_csv, write_csv
from .errors import ConfigurationError, HetanomError, ReplayError
from .evaluate import (
    ProtocolSpec,
    canonical_variant,
    results_csv,
    run_protocol,
    sweep,
    sweep_csv,
    swept_config,
)
from .nets import save_checkpoint
from .schema import build, typed
from .synth import MixtureSpec, default_benchmark, generate
from .train import TrainConfig

MANIFEST_VERSION = 4


@dataclass(frozen=True)
class DatasetSource:
    kind: str  # "csv" | "synthetic"
    path: str | None = None
    spec: MixtureSpec | None = None

    def load(self) -> FeatureDataset:
        if self.kind == "csv":
            return ingest_csv(self.path)
        return generate(self.spec if self.spec is not None else default_benchmark())

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.path is not None:
            out["path"] = self.path
        if self.spec is not None:
            out["spec"] = self.spec.to_dict()
        return out


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSource
    train: TrainConfig
    protocol: ProtocolSpec
    variants: tuple[str, ...]
    output_dir: str | None = None
    seed: int = 0
    sweep: SweepSpec | None = None

    def to_dict(self) -> dict:
        train = {f.name: getattr(self.train, f.name) for f in fields(TrainConfig)}
        protocol = {f.name: getattr(self.protocol, f.name) for f in fields(ProtocolSpec)}
        protocol["seeds"] = list(protocol["seeds"])
        out = {
            "dataset": self.dataset.to_dict(),
            "train": train,
            "protocol": protocol,
            "variants": list(self.variants),
            "seed": self.seed,
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        if self.sweep is not None:
            out["sweep"] = {"param": self.sweep.param, "values": list(self.sweep.values)}
        return out


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict; errors name the offending field path."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config: must be a JSON object")
    known_top = {"dataset", "train", "protocol", "variants", "output_dir", "seed", "sweep"}
    for key in raw:
        if key not in known_top:
            raise ConfigurationError(f"{key}: unknown field")

    ds_raw = raw.get("dataset")
    if not isinstance(ds_raw, dict) or ds_raw.get("kind") not in ("csv", "synthetic"):
        raise ConfigurationError("dataset.kind: must be 'csv' or 'synthetic'")
    dataset = build("dataset", DatasetSource, ds_raw)
    if dataset.kind == "csv" and not dataset.path:
        raise ConfigurationError("dataset.path: required for csv datasets")
    if dataset.kind == "csv" and dataset.spec is not None:
        raise ConfigurationError("dataset.spec: only a synthetic dataset takes a spec")
    if dataset.kind == "synthetic" and dataset.path is not None:
        raise ConfigurationError("dataset.path: only a csv dataset takes a path")

    train = build("train", TrainConfig, raw.get("train", {}))
    train.validate(prefix="train.")

    proto_raw = raw.get("protocol")
    if not isinstance(proto_raw, dict):
        raise ConfigurationError("protocol: required section")
    protocol = build("protocol", ProtocolSpec, proto_raw)
    protocol.validate(prefix="protocol.")

    variants_raw = raw.get("variants", ["AHL"])
    if not isinstance(variants_raw, list) or not variants_raw:
        raise ConfigurationError("variants: must be a non-empty list")
    variants = []
    for i, name in enumerate(variants_raw):
        try:
            variants.append(canonical_variant(str(name)))
        except ConfigurationError as exc:
            raise ConfigurationError(f"variants[{i}]: {exc}") from None

    sweep_spec = None
    if raw.get("sweep") is not None:
        sweep_spec = build("sweep", SweepSpec, raw["sweep"])
        if sweep_spec.param not in ("C", "K"):
            raise ConfigurationError("sweep.param: must be 'C' or 'K'")
        if not sweep_spec.values:
            raise ConfigurationError("sweep.values: must be a non-empty list")
        if len(set(sweep_spec.values)) != len(sweep_spec.values):
            raise ConfigurationError("sweep.values: must be distinct")
        for i, value in enumerate(sweep_spec.values):
            swept_config(train, sweep_spec.param, value).validate(
                prefix=f"sweep.values[{i}]: ")

    return RunConfig(
        dataset=dataset,
        train=train,
        protocol=protocol,
        variants=tuple(variants),
        output_dir=typed("output_dir", raw.get("output_dir"), str | None),
        seed=typed("seed", raw.get("seed", 0), int),
        sweep=sweep_spec,
    )


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path, "config"))


def _read_json(path, what: str):
    """The JSON value in ``path``; a missing or malformed file is a
    :class:`ConfigurationError` that starts with ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"{what}: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what}: invalid JSON: {exc}") from None


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def execute_run(config: RunConfig, out_dir: Path, threads: int = 1) -> str:
    """Run every variant, write all artifacts, return the results checksum."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "logs").mkdir(exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    ds = config.dataset.load()
    cfg = replace(config.train, seed=config.seed)

    results = []
    for variant in config.variants:

        def sink(seed, model, variant=variant):
            if model.fit_result is not None:
                log_path = out_dir / "logs" / f"{variant}-seed{seed}.jsonl"
                with open(log_path, "w", encoding="utf-8") as fh:
                    for record in model.fit_result.log:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
            for i, net in enumerate(model.nets):
                suffix = "" if len(model.nets) == 1 else f"-net{i}"
                save_checkpoint(out_dir / "checkpoints" / f"{variant}-seed{seed}{suffix}.ckpt", net)

        results.append(run_protocol(ds, config.protocol, cfg, variant,
                                    threads=threads, model_sink=sink))

    results_obj = {"results": [r.to_dict() for r in results]}
    results_bytes = _canonical_json(results_obj)
    (out_dir / "results.json").write_bytes(results_bytes)
    (out_dir / "results.csv").write_text(results_csv(results), encoding="utf-8")
    checksum = _sha256(results_bytes)
    _write_manifest(config, out_dir, "run", checksum)
    return checksum


def execute_sweep(config: RunConfig, out_dir: Path, threads: int = 1) -> str:
    if config.sweep is None:
        raise ConfigurationError("sweep: section required for the sweep command")
    if len(config.variants) != 1:
        raise ConfigurationError(f"variants: the sweep command runs one variant, "
                                 f"got {len(config.variants)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = config.dataset.load()
    cfg = replace(config.train, seed=config.seed)
    entries = sweep(config.sweep.param, config.sweep.values, ds, config.protocol,
                    cfg, variant=config.variants[0], threads=threads)
    csv_text = sweep_csv(config.sweep.param, entries)
    (out_dir / "sweep.csv").write_text(csv_text, encoding="utf-8")
    results_obj = {"sweep": {str(v): r.to_dict() for v, r in entries}}
    results_bytes = _canonical_json(results_obj)
    (out_dir / "results.json").write_bytes(results_bytes)
    checksum = _sha256(results_bytes)
    _write_manifest(config, out_dir, "sweep", checksum)
    return checksum


def _write_manifest(config: RunConfig, out_dir: Path, command: str, checksum: str) -> None:
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "config": config.to_dict(),
        "dataset_sha256": _dataset_checksum(config.dataset),
        "results_sha256": checksum,
    }
    (out_dir / "manifest.json").write_bytes(_canonical_json(manifest))


def _dataset_checksum(source: DatasetSource) -> str | None:
    if source.kind != "csv":
        return None
    return _sha256(Path(source.path).read_bytes())


def execute_replay(manifest_path: Path, out_dir: Path, threads: int = 1) -> str:
    """Re-execute a recorded run and verify it reproduces bitwise. The
    manifest is checked before any work starts."""
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict):
        raise ReplayError("manifest: must be a JSON object")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ReplayError(
            f"manifest format_version {manifest.get('format_version')!r} "
            f"is not {MANIFEST_VERSION}")
    for key in ("config", "results_sha256"):
        if key not in manifest:
            raise ReplayError(f"manifest: missing field {key!r}")
    command = manifest.get("command", "run")
    if command not in ("run", "sweep"):
        raise ReplayError(f"manifest: command {command!r} is neither 'run' nor 'sweep'")
    config = parse_config(manifest["config"])
    recorded_ds = manifest.get("dataset_sha256")
    if recorded_ds is not None and _dataset_checksum(config.dataset) != recorded_ds:
        raise ReplayError("dataset file changed since the recorded run")
    if command == "sweep":
        checksum = execute_sweep(config, out_dir, threads)
    else:
        checksum = execute_run(config, out_dir, threads)
    if checksum != manifest["results_sha256"]:
        raise ReplayError(
            f"replay produced checksum {checksum}, "
            f"manifest records {manifest['results_sha256']}")
    return checksum


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("AHL_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigurationError("AHL_THREADS: must be an integer") from None


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=args.out)
    return config


def _resolve_out(config: RunConfig, args) -> Path:
    out = getattr(args, "out", None) or config.output_dir
    if not out:
        raise ConfigurationError("output_dir: set it in the config or pass --out")
    return Path(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hetanom",
                                     description="batch experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the global seed")
    p_run.add_argument("--threads", type=int, default=None)

    p_replay = sub.add_parser("replay", help="reproduce a run from its manifest")
    p_replay.add_argument("--manifest", required=True)
    p_replay.add_argument("--out", required=True)
    p_replay.add_argument("--threads", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="hyperparameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=None)

    p_gen = sub.add_parser("gen-data", help="export the synthetic benchmark to CSV")
    p_gen.add_argument("--out", required=True, help="output CSV file")
    p_gen.add_argument("--spec", default=None, help="JSON file with a mixture spec")
    p_gen.add_argument("--seed", type=int, default=None, help="override the mixture seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(load_config(args.config), args)
            checksum = execute_run(config, _resolve_out(config, args), _threads_from(args))
            print(f"ok results_sha256={checksum}")
        elif args.command == "replay":
            checksum = execute_replay(Path(args.manifest), Path(args.out),
                                      _threads_from(args))
            print(f"replay ok results_sha256={checksum}")
        elif args.command == "sweep":
            config = _apply_overrides(load_config(args.config), args)
            checksum = execute_sweep(config, _resolve_out(config, args), _threads_from(args))
            print(f"ok results_sha256={checksum}")
        else:  # gen-data
            if args.spec is not None:
                spec = MixtureSpec.from_dict(_read_json(args.spec, "spec"))
            else:
                spec = default_benchmark()
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            ds = generate(spec)
            write_csv(ds, args.out)
            print(f"wrote {len(ds.ids)} samples ({ds.n_normal} normal, "
                  f"{ds.n_anomaly} anomaly) to {args.out}")
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HetanomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
