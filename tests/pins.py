"""Every exact pin, computed one way for the tests and for their ledger
``golden/pins.json``. ``python tests/pins.py`` recomputes every group, prints
a ``| pin | old | new |`` table of the pins that moved and exits 1 if any
did; ``--drift NAME`` writes the new pins, NAME and this machine's float
platform into the ledger instead. Nothing else writes the ledger."""

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the package in this checkout, as the tests import it
    sys.path.insert(0, str(ROOT / "src"))

from hetanom import (BENCHMARK_SEEDS, ProtocolSpec, SplitSpec, TrainConfig,  # noqa: E402
                     default_benchmark, fit, generate, kmeans)
from hetanom.cli import _canonical_json, execute_run, load_config, parse_config  # noqa: E402
from hetanom.data import split_rows  # noqa: E402
from hetanom.evaluate import run_protocols  # noqa: E402
from hetanom.nets import float_platform  # noqa: E402
from hetanom.train import simulate  # noqa: E402

LEDGER_PATH = Path(__file__).parent / "golden" / "pins.json"
META = ("about", "drift", "platform")  # the ledger's keys that hold no pin


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def f8(a) -> str:
    return sha(np.ascontiguousarray(a, dtype="<f8").tobytes())


def i8(a) -> str:
    return sha(np.ascontiguousarray(a, dtype="<i8").tobytes())


def lines_sha(strings) -> str:
    return sha("\n".join(strings).encode("utf-8"))


def log_sha(log) -> str:  # a fit log as `hetanom run` writes it
    return sha("".join(json.dumps(record, sort_keys=True) + "\n" for record in log).encode())


def tree_sha(root: Path) -> dict:
    return {p.name: sha(p.read_bytes()) for p in sorted(root.iterdir())}


CRITERION8_CONFIG = {
    "seed": 3, "variants": ["AHL", "Homogeneous"],
    "dataset": {"spec": {"dim": 5, "seed": 2, "normal_components": [
        {"mean": [0.0] * 5, "std": [1.0] * 5, "count": 50},
        {"mean": [4.0] * 5, "std": [1.0] * 5, "count": 50}], "anomaly_components": [
        {"mean": [7.0] * 5, "std": [0.5] * 5, "count": 16, "class_tag": "hot"}]}},
    "train": {"T": 3, "C": 2, "epochs": 6, "hidden": 16},
    "protocol": {"m_anomalies": 4, "seeds": [0, 1]}}


def criterion8() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"results_sha256": execute_run(parse_config(CRITERION8_CONFIG), Path(tmp)),
                "fit_log_sha256": tree_sha(Path(tmp, "logs")),
                "checkpoint_sha256": tree_sha(Path(tmp, "checkpoints"))}


def fit_default() -> dict:  # ragged support sizes, 13-batch sequence passes
    res = fit(generate(default_benchmark(seed=1)), TrainConfig())
    return {"unified_theta_sha256": f8(res.unified.theta),
            "seq_theta_sha256": f8(res.seq_net.theta), "log_sha256": log_sha(res.log)}


def cdl_minus() -> dict:  # accuracy-based importance weights, what CDL_minus changes
    res = fit(generate(default_benchmark(seed=1)),
              TrainConfig(T=3, C=3, epochs=8, hidden=16, seed=2), accuracy_weights=True)
    assert res.seq_net is None
    return {"unified_theta_sha256": f8(res.unified.theta), "log_sha256": log_sha(res.log)}


SUBSET_CASES = {"few_shot": {"seed": 3}, "one_shot": {"seed": 5},  # TrainConfig fields
                "strict": {"seed": 4, "strict_openness": True}}


def subsets() -> dict:  # per case: the subset manifest, centroids and training table
    out = {}
    for case, fields in SUBSET_CASES.items():
        ds = generate(default_benchmark())
        if case == "one_shot":
            ds = ds.take(np.concatenate([ds.normal_rows(), ds.anomaly_rows()[:1]]))
        clusters, coll, table = simulate(ds, TrainConfig(**fields))
        out[case] = {
            "manifest": sha(json.dumps(coll.to_manifest(), sort_keys=True).encode()),
            "centroids": f8(clusters.centroids), "ids": lines_sha(table.ids),
            "X": f8(table.X), "y": i8(table.y),
            "support_rows": sha(json.dumps([a.tolist() for a in table.support_rows]).encode()),
            "query_rows": sha(json.dumps([a.tolist() for a in table.query_rows]).encode())}
    return out


def scaled_ds():  # the default benchmark mixture, every component count times ten
    base = default_benchmark()
    return generate(replace(base, **{
        side: tuple(replace(c, count=10 * c.count) for c in getattr(base, side))
        for side in ("normal_components", "anomaly_components")}))


def large_table() -> dict:  # k-means (k = 3) per seed and each split part, 14,400 rows
    ds, out = scaled_ds(), {}
    for seed in (3, 4, 7):
        clusters = kmeans(ds, 3, seed=seed)
        out[f"kmeans/{seed}"] = {"centroids": f8(clusters.centroids), "assign": i8(clusters.assign)}
    for name, rows in zip(("first", "second"), split_rows(ds.labels, SplitSpec(seed=11))):
        part = ds.take(rows)
        out[f"split/{name}"] = {"ids": lines_sha(part.ids), "features": f8(part.features)}
    return out


def generated() -> dict:
    return {name: {"ids": lines_sha(ds.ids), "features": f8(ds.features),
                   "labels": i8(ds.labels), "class_tags": lines_sha(ds.class_tags)}
            for name, ds in (("default", generate(default_benchmark(7))), ("x10", scaled_ds()))}


def criterion7_results(ds):  # the shipped config's hard protocol, in process
    spec = ProtocolSpec(m_anomalies=10, seen_class="spike", seeds=BENCHMARK_SEEDS)
    return run_protocols(ds, spec, [(v, TrainConfig())
                                    for v in ("AHL", "Homogeneous", "HADG_only")])


def criterion7(results) -> dict:  # mean unseen AUCs; the checksum as `cli` computes it
    return {"means": {res.variant: res.mean_std("auc_unseen")[0] for res in results},
            "results_sha256": sha(_canonical_json({"results": [r.to_dict() for r in results]}))}


def configs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: execute_run(load_config(ROOT / "configs" / f"{name}.json"), Path(tmp) / name)
                for name in ("default", "sweep")}


GROUPS = {"criterion8": criterion8, "fit_default": fit_default, "cdl_minus": cdl_minus,
          "subsets": subsets, "large_table": large_table, "generate": generated, "configs": configs,
          "criterion7": lambda: criterion7(criterion7_results(generate(default_benchmark())))}


def moved(old: dict, new: dict) -> list:  # a row per pin changed, added or removed
    def flatten(tree, at=""):
        if not isinstance(tree, dict):
            return {at[1:]: tree}
        return {k: v for key, sub in tree.items() for k, v in flatten(sub, f"{at}/{key}").items()}

    old, new = flatten(old), flatten(new)
    return [f"| `{k}` | {old.get(k, '(none)')} | {new.get(k, '(none)')} |"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


def main(argv=None, path: Path = LEDGER_PATH) -> int:
    parser = argparse.ArgumentParser(description="check or rewrite the pin ledger")
    parser.add_argument("--drift", metavar="NAME", help="write the new pins, as this drift")
    args = parser.parse_args(argv)
    ledger = json.loads(path.read_text(encoding="utf-8"))
    new = {name: compute() for name, compute in GROUPS.items()}
    rows = moved({k: v for k, v in ledger.items() if k not in META}, new)
    print("\n".join(["| pin | old | new |", "|---|---|---|", *rows]))
    if args.drift is not None:
        ledger = dict(about=ledger["about"], **new, drift=args.drift, platform=float_platform())
        path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if rows and args.drift is None else 0


if __name__ == "__main__":
    sys.exit(main())
