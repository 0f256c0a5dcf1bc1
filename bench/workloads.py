"""The benchmark's three workloads, driven through hetanom's public API.

Each workload makes its inputs from the benchmark seed in ``setup`` (which
the runner repeats and times), runs one unit of work in ``run_pass``
(timed), and checks that unit's output in ``check``, which returns the
problems found and the pass's mean unseen-class AUC. README.md says why
each workload was chosen and which layers it exercises or bypasses.
``run_pass`` takes an input index: passes with the same index run on the
same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import hetanom as ha
from hetanom import cli
from hetanom.synth import Component, MixtureSpec

WEIGHT_TOLERANCE = 1e-9  # the library's own sum-to-one tolerance


def sub_seed(seed: int, tag: str) -> int:
    """An input seed for one purpose, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def class_aucs(scores, ds, classes) -> dict[str, float]:
    """AUC of normals against each listed anomaly class."""
    tags = np.array(ds.class_tags)
    normal = ds.labels == 0
    return {c: ha.auc(scores[normal | (tags == c)], ds.labels[normal | (tags == c)])
            for c in classes}


def auc_problems(aucs: dict[str, float]) -> list[str]:
    return [f"AUC {name} = {v!r} is outside [0, 1]"
            for name, v in aucs.items() if not 0.0 <= v <= 1.0]


class Workload:
    """Hooks a workload may leave out."""

    def prepare_checks(self) -> None:
        """Untimed work the output checks need, run once after set-up."""

    def cleanup(self, result) -> None:
        """Release what one pass left behind, outside the timed region."""


class FitAhl(Workload):
    """One ``fit`` with the default TrainConfig on the default benchmark
    mixture drawn with the benchmark seed."""

    name = "fit-ahl"

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.seed = seed
        self.cfg = ha.TrainConfig()

    def setup(self) -> None:
        self.ds = ha.generate(ha.default_benchmark(seed=self.seed))
        # every class is seen in training, so quality is judged on a fresh
        # draw of the same mixture
        self.heldout = ha.generate(ha.default_benchmark(seed=sub_seed(self.seed, "heldout")))

    def run_pass(self, index: int):
        return ha.fit(self.ds, self.cfg)

    def check(self, res) -> tuple[list[str], float]:
        problems = []
        if len(res.importance) != self.cfg.epochs:
            problems.append(f"{len(res.importance)} importance states for "
                            f"{self.cfg.epochs} epochs")
        for state in res.importance:
            w = state.w
            if not np.isfinite(w).all():
                problems.append(f"epoch {state.epoch}: non-finite importance weights {w}")
            elif (w < 0).any() or abs(w.sum() - 1.0) > WEIGHT_TOLERANCE:
                problems.append(f"epoch {state.epoch}: weights {w} are negative or "
                                f"do not sum to 1")
        scores = res.unified.forward(self.heldout.features)
        if not np.isfinite(scores).all():
            return problems + ["non-finite held-out scores"], 0.0
        classes = sorted({t for t, y in zip(self.heldout.class_tags, self.heldout.labels) if y})
        aucs = class_aucs(scores, self.heldout, classes)
        return problems + auc_problems(aucs), float(np.mean(list(aucs.values())))

    def facts(self) -> dict:
        return {"rows": len(self.ds), "config": "TrainConfig()"}


class ProtocolHard(Workload):
    """``cli.execute_run`` on configs/default.json with the benchmark seed as
    the run's global seed and the protocol seed list shortened to its first
    two seeds, so the pass still fans out over seeds."""

    name = "protocol-hard"
    PROTOCOL_SEEDS_KEPT = 2

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.config_path = tmp / "config.json"
        self.threads = max(1, int(os.environ.get("AHL_THREADS") or 1))  # the CLI's default
        self.cli_digest = None

    def setup(self) -> None:
        raw = json.loads((self.root / "configs" / "default.json").read_text(encoding="utf-8"))
        raw["seed"] = self.seed
        raw["protocol"]["seeds"] = raw["protocol"]["seeds"][:self.PROTOCOL_SEEDS_KEPT]
        self.config = cli.parse_config(raw)
        self.config_path.write_text(json.dumps(raw), encoding="utf-8")

    def prepare_checks(self) -> None:
        """Record the digest of a plain ``hetanom run`` of the same config."""
        out = tempfile.mkdtemp(dir=self.tmp)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hetanom.cli", "run", "--config", str(self.config_path),
             "--out", out], cwd=self.root, env=env, capture_output=True, text=True, timeout=120)
        shutil.rmtree(out)
        match = re.search(r"results_sha256=([0-9a-f]{64})", proc.stdout)
        if proc.returncode != 0 or match is None:
            raise RuntimeError(f"hetanom run failed ({proc.returncode}): {proc.stderr.strip()}")
        self.cli_digest = match.group(1)

    def run_pass(self, index: int):
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        return cli.execute_run(self.config, out, self.threads), out

    def check(self, result) -> tuple[list[str], float]:
        digest, out = result
        problems = []
        if digest != self.cli_digest:
            problems.append(f"results_sha256 {digest} != hetanom run's {self.cli_digest}")
        raw = (out / "results.json").read_bytes()
        if hashlib.sha256(raw).hexdigest() != digest:
            problems.append("results.json does not hash to the returned digest")
        per_seed = [r for v in json.loads(raw)["results"] for r in v["per_seed"]]
        aucs = {f"{i}.{k}": r[k] for i, r in enumerate(per_seed)
                for k in ("auc_overall", "auc_seen", "auc_unseen", "auc_unseen_macro")
                if r[k] is not None}
        macro = [r["auc_unseen_macro"] for r in per_seed if r["auc_unseen_macro"] is not None]
        if not macro:
            problems.append("no unseen-class AUC in results.json")
        return problems + auc_problems(aucs), float(np.mean(macro)) if macro else 0.0

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1])

    def facts(self) -> dict:
        return {"results_sha256": self.cli_digest,
                "protocol_seeds": list(self.config.protocol.seeds),
                "threads": self.threads}


def scaled_benchmark(seed: int, factor: int) -> MixtureSpec:
    """The default mixture with every component count multiplied."""
    base = ha.default_benchmark(seed=seed)

    def scale(components):
        return tuple(Component(c.mean, c.std, c.count * factor, c.class_tag) for c in components)

    return MixtureSpec(dim=base.dim, normal_components=scale(base.normal_components),
                       anomaly_components=scale(base.anomaly_components), seed=seed)


class LargeTable(Workload):
    """Subset simulation and scoring on a ~100k-row table; no training in
    the pass."""

    name = "large-table"
    SCALE = 70  # 1440 rows x 70 = 100,800 rows
    SEEN_CLASS = "spike"
    LABELLED = 10  # labelled anomalies of the seen class in the training split
    SCORER_NORMALS = 600  # normals in the sample the set-up scorer is fitted on

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.seed = seed
        self.cfg = ha.TrainConfig()

    def setup(self) -> None:
        ds = self.ds = ha.generate(scaled_benchmark(self.seed, self.SCALE))
        tags = np.array(ds.class_tags)
        anomalies = ds.anomaly_rows()
        seen = anomalies[tags[anomalies] == self.SEEN_CLASS]
        rng = np.random.default_rng(sub_seed(self.seed, "labelled"))
        self.picked = np.sort(rng.choice(seen, size=self.LABELLED, replace=False))
        self.rest = np.setdiff1d(anomalies, self.picked)
        self.unseen = sorted(set(tags[anomalies]) - {self.SEEN_CLASS})
        train, _ = self.split()
        rng = np.random.default_rng(sub_seed(self.seed, "scorer-sample"))
        sample = np.concatenate([rng.choice(train.normal_rows(), self.SCORER_NORMALS,
                                            replace=False), train.anomaly_rows()])
        self.scorer = ha.fit(train.take(np.sort(sample)), self.cfg).unified

    def split(self):
        """Hard split: normals 75/25, the labelled seen-class anomalies to
        training, every other anomaly to test."""
        ds = self.ds
        norm_train, norm_test = ha.stratified_split(
            ds.take(ds.normal_rows()), ha.SplitSpec(seed=sub_seed(self.seed, "split")))
        train_rows = np.concatenate([[ds.row_of(s) for s in norm_train.ids], self.picked])
        test_rows = np.concatenate([[ds.row_of(s) for s in norm_test.ids], self.rest])
        return ds.take(np.sort(train_rows)), ds.take(np.sort(test_rows))

    def run_pass(self, index: int):
        # each input index draws its own clustering and subset seeds: some
        # k-means++ starts take tens of Lloyd iterations instead of three, and
        # they should show in the tail of every run, not in the median of a few
        train, test = self.split()
        clusters = ha.kmeans(train, self.cfg.C,
                             seed=sub_seed(self.seed, f"clusters/{index}"))
        collection = ha.build_distributions(train, clusters, self.cfg.T,
                                            seed=sub_seed(self.seed, f"subsets/{index}"))
        table = collection.training_table()
        scores = self.scorer.forward(test.features)
        aucs = class_aucs(scores, test, self.unseen)
        aucs["overall"] = ha.auc(scores, test.labels)
        return table, test, aucs

    def check(self, result) -> tuple[list[str], float]:
        table, test, aucs = result
        problems = auc_problems(aucs)
        leaked = set(test.ids) & set(table.ids)
        if leaked:
            problems.append(f"{len(leaked)} test ids in the training table, "
                            f"e.g. {sorted(leaked)[:3]}")
        return problems, float(np.mean([aucs[c] for c in self.unseen]))

    def facts(self) -> dict:
        return {"rows": len(self.ds), "scorer_rows": self.SCORER_NORMALS + self.LABELLED}


WORKLOADS = {w.name: w for w in (FitAhl, ProtocolHard, LargeTable)}
