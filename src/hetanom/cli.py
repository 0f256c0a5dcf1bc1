"""Batch experiment driver.

Subcommands: ``run`` (execute a config: the protocol for every variant,
or, when the config has a ``sweep`` section, a hyperparameter sweep to
plot-data CSV), ``replay`` (reproduce a run from its manifest and verify
the recorded checksum), ``gen-data`` (export the synthetic benchmark to
CSV). All outputs are deterministic: rerunning a config produces
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .data import FeatureDataset, ingest_csv, write_csv
from .errors import ConfigurationError, HetanomError, ReplayError
from .evaluate import (
    ProtocolSpec,
    SweepSpec,
    canonical_variant,
    results_csv,
    run_protocols,
    sweep,
    sweep_csv,
    swept_config,
)
from .nets import float_platform, save_checkpoint
from .schema import build
from .synth import MixtureSpec, default_benchmark, generate
from .train import TrainConfig

MANIFEST_VERSION = 8


@dataclass(frozen=True)
class DatasetSource:
    """A csv file at ``path``; without one, the synthetic mixture ``spec``, or
    the default benchmark when ``spec`` is unset too."""

    path: str | None = None
    spec: MixtureSpec | None = None

    def __post_init__(self):
        if self.path is not None and self.spec is not None:
            raise ConfigurationError("spec: a dataset read from a path takes no spec")

    def load(self) -> tuple[FeatureDataset, str | None]:
        """The dataset and, for a csv, the SHA-256 of the bytes it was read
        from (the file is read once). A csv ``path`` that names no file is a
        config error."""
        if self.path is not None:
            if not Path(self.path).is_file():
                raise ConfigurationError(f"dataset.path: no such file: {self.path}")
            data = Path(self.path).read_bytes()
            return ingest_csv(self.path, data), _sha256(data)
        return generate(self.spec if self.spec is not None else default_benchmark()), None


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSource
    protocol: ProtocolSpec
    train: TrainConfig = TrainConfig()
    variants: tuple[str, ...] = ("AHL",)
    seed: int = 0
    sweep: SweepSpec | None = None

    def __post_init__(self):
        """Canonicalise the variants, each once; refuse a sweep the run cannot carry out."""
        if not self.variants:
            raise ConfigurationError("variants: must be a non-empty list")
        variants = []
        for i, name in enumerate(self.variants):
            try:
                variant = canonical_variant(name)
            except ConfigurationError as exc:
                raise ConfigurationError(f"variants[{i}]: {exc}") from None
            if variant in variants:
                raise ConfigurationError(f"variants[{i}]: {variant} is listed twice")
            variants.append(variant)
        object.__setattr__(self, "variants", tuple(variants))
        if self.sweep is None:
            return
        for i, value in enumerate(self.sweep.values):
            try:
                swept_config(self.train, self.sweep.param, value)
            except ConfigurationError as exc:
                raise ConfigurationError(f"sweep.values[{i}]: {exc}") from None
        if len(self.variants) != 1:
            raise ConfigurationError(f"variants: a sweep runs one variant, got {len(self.variants)}")


def parse_config(raw: dict) -> RunConfig:
    """The run config in the JSON object ``raw``; errors name the field's path."""
    if isinstance(raw, dict) and isinstance(raw.get("train"), dict) and "seed" in raw["train"]:
        raise ConfigurationError("train.seed: set the top-level seed instead")
    return build("", RunConfig, raw)


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path, "config"))


def _read_json(path, what: str):
    """The JSON value in ``path``; a file that cannot be read, is not UTF-8
    or is not JSON is a :class:`ConfigurationError` that starts with ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"{what}: file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"{what}: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{what}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what}: invalid JSON: {exc}") from None


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def execute_run(config: RunConfig, out_dir: Path, threads: int = 1) -> str:
    """Run what the config describes, then write its artifacts and manifest
    into ``out_dir``, which must be absent or empty, and return the results
    checksum. Without a ``sweep`` section that is the protocol for every
    variant, with per-seed logs and checkpoints; with one, a protocol run of
    the one variant per swept value. Every (variant or swept value, seed) job
    runs in one pool of forked workers sized from the usable CPUs (see
    ``evaluate.run_protocols``). Nothing is written until every job has
    finished, so a refused, failed or interrupted run leaves no output; a
    failed write removes what it wrote (an ``OSError`` is raised as a
    HetanomError naming the file). ``threads`` is no thread count and is
    accepted only as 1."""
    if threads != 1:
        raise ConfigurationError(f"threads: must be 1, got {threads!r}")
    return _execute(config, *config.dataset.load(), out_dir)


def _execute(config: RunConfig, ds: FeatureDataset, dataset_sha256: str | None,
             out_dir: Path, expected_sha256: str | None = None) -> str:
    """``execute_run`` on the loaded dataset ``ds``; a csv's ``dataset_sha256``
    goes into the manifest. The models wait in memory for the write phase.
    A replay passes the recorded ``expected_sha256``: results that do not
    reproduce it raise :class:`ReplayError` before anything is written."""
    existing = next(p for p in (out_dir, *out_dir.absolute().parents) if p.exists())
    if existing == out_dir and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise ConfigurationError(f"--out: {out_dir} is not empty")
    if not existing.is_dir():
        raise ConfigurationError(f"--out: cannot create {out_dir}: {existing} is not a directory")
    cfg = replace(config.train, seed=config.seed)
    models = []
    if config.sweep is not None:
        entries = sweep(config.sweep.param, config.sweep.values, ds, config.protocol,
                        cfg, variant=config.variants[0])
        table, text = "sweep.csv", sweep_csv(config.sweep.param, entries)
        results_obj = {"sweep": {str(v): r.to_dict() for v, r in entries}}
    else:
        results = run_protocols(ds, config.protocol, [(v, cfg) for v in config.variants],
                                model_sink=lambda seed, model: models.append((seed, model)))
        table, text = "results.csv", results_csv(results)
        results_obj = {"results": [r.to_dict() for r in results]}
    results_bytes = _canonical_json(results_obj)
    checksum = _sha256(results_bytes)
    if expected_sha256 is not None and checksum != expected_sha256:
        raise ReplayError(f"replay produced checksum {checksum}, "
                          f"manifest records {expected_sha256}")
    recorded = asdict(config)
    del recorded["train"]["seed"]  # the top-level seed replaces it
    if config.dataset.path is not None:  # so the run replays from any directory
        recorded["dataset"]["path"] = str(Path(config.dataset.path).resolve())
    manifest = {
        "format_version": MANIFEST_VERSION,
        "config": recorded,
        "dataset_sha256": dataset_sha256,
        "results_sha256": checksum,
        "platform": float_platform(),  # for the reader; replay ignores it
    }
    # a failed write removes the topmost directory it made, or out_dir's entries
    absolute = out_dir.absolute()
    missing = [p for p in (absolute, *absolute.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if config.sweep is None:
            (out_dir / "logs").mkdir()
            (out_dir / "checkpoints").mkdir()
        for seed, model in models:
            stem = f"{model.name}-seed{seed}"
            if model.log is not None:
                with open(out_dir / "logs" / f"{stem}.jsonl", "w", encoding="utf-8") as fh:
                    for record in model.log:
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
            for i, net in enumerate(model.nets):
                suffix = "" if len(model.nets) == 1 else f"-net{i}"
                save_checkpoint(out_dir / "checkpoints" / f"{stem}{suffix}.ckpt", net)
        (out_dir / table).write_text(text, encoding="utf-8")
        (out_dir / "results.json").write_bytes(results_bytes)
        (out_dir / "manifest.json").write_bytes(_canonical_json(manifest))
    except BaseException as exc:
        for entry in missing[-1:] or list(out_dir.iterdir()):
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise HetanomError(f"{exc.filename or out_dir}: cannot write: {exc.strerror or exc}") from exc
        raise
    return checksum


def execute_replay(manifest_path: Path, out_dir: Path) -> str:
    """Re-execute a recorded run and verify it reproduces bitwise. The
    manifest, the dataset against its recorded checksum and the results
    against theirs are checked before anything is written; the run uses the
    dataset bytes that were checked."""
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict):
        raise ConfigurationError("manifest: must be a JSON object")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ConfigurationError(
            f"manifest format_version {manifest.get('format_version')!r} "
            f"is not {MANIFEST_VERSION}")
    for key in ("config", "results_sha256", "dataset_sha256"):
        if key not in manifest:
            raise ConfigurationError(f"manifest: missing field {key!r}")
    config = parse_config(manifest["config"])
    ds, dataset_sha256 = config.dataset.load()
    if dataset_sha256 != manifest["dataset_sha256"]:
        raise ReplayError("dataset file changed since the recorded run")
    # str(): a recorded null is a checksum that no run reproduces
    return _execute(config, ds, dataset_sha256, out_dir, str(manifest["results_sha256"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hetanom",
                                     description="batch experiment driver")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a run config (a sweep, if it has one)")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the global seed")

    p_replay = sub.add_parser("replay", help="reproduce a run from its manifest")
    p_replay.add_argument("--manifest", required=True)
    p_replay.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen-data", help="export the synthetic benchmark to CSV")
    p_gen.add_argument("--out", required=True, help="output CSV file")
    p_gen.add_argument("--spec", default=None, help="JSON file with a mixture spec")
    p_gen.add_argument("--seed", type=int, default=None, help="override the mixture seed")

    args = parser.parse_args(argv)
    try:
        if args.subcommand == "run":
            config = load_config(args.config)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            checksum = execute_run(config, Path(args.out))
            print(f"ok results_sha256={checksum}")
        elif args.subcommand == "replay":
            checksum = execute_replay(Path(args.manifest), Path(args.out))
            print(f"replay ok results_sha256={checksum}")
        else:  # gen-data
            out = Path(args.out)
            if not out.parent.is_dir():
                raise ConfigurationError(f"--out: no such directory: {out.parent}")
            if out.is_dir():
                raise ConfigurationError(f"--out: {out} is a directory")
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
