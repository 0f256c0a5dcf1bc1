"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --trace-seeds 1 --out summary.json

Every workload of BENCHMARK.json runs for its ``run_seconds``. Runs go
seed by seed, every workload within a seed, so that a change in machine
load falls on all workloads alike. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
the distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json. ``--trace-seeds`` adds one traced run
per workload and seed and keeps its per-layer metrics and, for
``fit-ahl``, the pinned-BLAS reference pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    expected = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected or not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: correct={result['correct']}, metrics "
                 f"{sorted(set(result['metrics']) ^ expected)} differ from BENCHMARK.json")
    report = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "facts": report["facts"],
            "machine": report["machine"], "pinned_reference": report.get("pinned_reference")}


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run(bench, w, seed, seconds, trace=0))
            m = runs[w][-1]["result"]["metrics"]
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        entry = summary["workloads"][w] = {"metrics": {}}
        for name in bounds:
            s = stats([r["result"]["metrics"][name]["value"] for r in runs[w]])
            entry["metrics"][name] = s
            flag = ""
            if s["spread"] is not None:
                worst = max(worst, s["spread"] / bounds[name])
                flag = "  over bound/3" if s["spread"] > bounds[name] / 3 else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{w:14} {name:12} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{spread:>7} {bounds[name]:6.2f}{flag}")
        entry["facts"] = {r["seed"]: r["facts"] for r in runs[w]}
    summary["machine"] = runs[workloads[-1]][-1]["machine"]
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")

    for seed in parse_seeds(args.trace_seeds) if args.trace_seeds else []:
        for w in workloads:
            traced = run(bench, w, seed, seconds, trace=1)
            entry = summary["workloads"][w]
            entry.setdefault("layers", []).append(
                {"seed": seed, **{k: v["value"] for k, v in traced["result"]["metrics"].items()}})
            if traced["pinned_reference"]:
                ref = traced["pinned_reference"]
                entry.setdefault("pinned_reference", []).append(
                    {"seed": seed, "pass_s": ref["pass_s"], "cpu_s": ref["cpu_s"]})
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
