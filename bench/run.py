"""hetanom benchmark: one workload per run, end-to-end metrics or, with
``--trace 1``, the per-layer table.

    python3 bench/run.py --workload fit-ahl --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in. Human-readable lines go to standard output first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full report (machine facts, every pass, the
per-layer table and, when traced, the spans) is written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json`` in the checkout.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-ups per run, spread over its seconds
MIN_PASSES = 3  # an untraced run's medians are over at least three passes
MIN_TRACED = 2  # traced and untraced passes each, in a traced run
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "pass_s_p50": "s", "pass_s_tail": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "auc_unseen": "AUC"}


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it. Below
    twenty samples that percentile lies under the median, so the maximum is
    reported instead."""
    s = sorted(times)
    k = len(s) - 10  # samples at or below the percentile
    if 2 * k >= len(s):
        return s[k - 1], f"p{100 * k / len(s):.0f} of {len(s)} passes"
    return s[-1], f"max of {len(s)} passes (fewer than 20)"


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def import_seconds() -> float:
    """Time to import hetanom in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import hetanom; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_sample(wl) -> dict:
    """One set-up: an import in a fresh interpreter, then the workload's
    in-process set-up."""
    import_s = import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    return {"import_s": import_s, "setup_s": import_s + time.perf_counter() - t0}


def run_one_pass(wl, index: int, recorder=None) -> dict:
    """Time one pass, then check its output; a pass that raises fails."""
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        if recorder is None:
            out = wl.run_pass(index)
        else:
            with recorder.installed(), recorder.span("pass"):
                out = wl.run_pass(index)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        problems, quality = wl.check(out)
        wl.cleanup(out)
    except Exception:  # the pass boundary: record the failure and go on
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        problems, quality = [traceback.format_exc()], None
    for problem in problems:
        print(f"FAIL {wl.name}: {problem}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "traced": recorder is not None,
            "problems": problems, "auc_unseen": quality}


def run_passes(wl, seconds: float, setups: list[dict], recorder=None) -> list[dict]:
    """Passes while another median-length pass still fits in ``seconds``;
    a traced run alternates untraced and traced passes so both see the
    same machine state, and gives each traced pass the inputs of the
    untraced pass before it. Between passes, another set-up is sampled
    each time a further 1/SETUP_SAMPLES of ``seconds`` has gone by, so the
    samples fall into different phases of the machine's speed."""
    passes = []
    start = time.perf_counter()
    while True:
        due = min(SETUP_SAMPLES, 1 + int((time.perf_counter() - start) * SETUP_SAMPLES / seconds))
        while len(setups) < due:
            setups.append(setup_sample(wl))
        if recorder is None:
            passes.append(run_one_pass(wl, len(passes)))
        else:
            traced = len(passes) % 2 == 1
            passes.append(run_one_pass(wl, len(passes) // 2, recorder if traced else None))
        untraced = sum(not p["traced"] for p in passes)
        enough = (untraced >= MIN_TRACED and len(passes) - untraced >= MIN_TRACED
                  if recorder is not None else untraced >= MIN_PASSES)
        next_end = (time.perf_counter() - start
                    + statistics.median(p["wall_s"] for p in passes))
        if enough and next_end > seconds:
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(wl))
            return passes


def pinned_reference(args) -> dict:
    """One pass of the same workload in a child with BLAS pinned to one thread."""
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--reference"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"pinned reference run failed: {proc.stderr.strip()}")
    ref = json.loads(lines[-1])
    if not ref["correct"]:
        print(f"FAIL {args.workload}: pinned reference pass: {proc.stderr.strip()}",
              file=sys.stderr)
    return ref


def print_layer_table(metrics: dict, traced_p50: float) -> None:
    print(f"{'layer':48} {'calls/pass':>11} {'self s/pass':>12} {'share':>6} {'rows|bytes/pass':>16}")
    rows = []
    for module, qualname, size_kind, _ in spans.LAYERS:
        base = spans.layer_name(module, qualname)
        size = f"{metrics[f'{base}.{size_kind}']:.0f} {size_kind}" if size_kind else ""
        rows.append((metrics[f"{base}.self_s"], base, metrics[f"{base}.calls"], size))
    for self_s, base, calls, size in sorted(rows, reverse=True):
        share = self_s / traced_p50 if traced_p50 > 0 else 0.0
        print(f"{base:48} {calls:11.1f} {self_s:12.4f} {share:6.1%} {size:>16}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-ahl", "protocol-hard", "large-table"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="internal: one pass, JSON with its wall and CPU seconds")
    args = parser.parse_args(argv)

    if not (SRC / "hetanom" / "__init__.py").is_file():
        print(f"error: no hetanom package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports hetanom, so only once src/ is on the path

    if Path(workloads.ha.__file__).resolve().parent != SRC / "hetanom":
        print(f"error: imported hetanom from {workloads.ha.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, tmp)
        if args.reference:
            wl.setup()
            p = run_one_pass(wl, 0)
            print(json.dumps({"pass_s": p["wall_s"], "cpu_s": p["cpu_s"],
                              "correct": not p["problems"], "machine": machine_facts()}))
            return 0 if not p["problems"] else 1

        machine = machine_facts()
        print(f"# machine {json.dumps(machine, sort_keys=True)}")
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        setups = [setup_sample(wl)]
        wl.prepare_checks()

        recorder = spans.Recorder() if args.trace else None
        passes = run_passes(wl, args.seconds, setups, recorder)
        setup_s = statistics.median(s["setup_s"] for s in setups)
        failed = sum(bool(p["problems"]) for p in passes)
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        p50 = statistics.median(untraced)
        print(f"failed_frac  {failed / len(passes):.4f}  ({failed} of {len(passes)} passes)")

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine, "facts": wl.facts(),
                  "setups": setups,
                  "passes": passes, "failed_frac": failed / len(passes)}
        if args.trace:
            traced = [p["wall_s"] for p in passes if p["traced"]]
            traced_p50 = statistics.median(traced)
            values = recorder.layer_metrics(len(traced))
            values["trace.pass_s_p50"] = traced_p50
            values["trace.overhead_s"] = traced_p50 - p50
            print_layer_table(values, traced_p50)
            print(f"untraced pass_s_p50 {p50:.4f} s, traced {traced_p50:.4f} s, "
                  f"tracing overhead {traced_p50 - p50:+.4f} s")
            if args.workload == "fit-ahl":
                ref = report["pinned_reference"] = pinned_reference(args)
                print(f"reference, BLAS pinned to 1 thread (not gated): pass_s "
                      f"{ref['pass_s']:.4f} s, cpu_s {ref['cpu_s']:.4f} s, beside the "
                      f"untraced pass_s_p50 {p50:.4f} s with default BLAS threads")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in spans.metric_units().items()}
            report["spans"] = recorder.dump()
        else:
            aucs = [p["auc_unseen"] for p in passes if p["auc_unseen"] is not None]
            tail_s, tail_note = tail(untraced)
            values = {
                "setup_s": setup_s,
                "pass_s_p50": p50,
                "pass_s_tail": tail_s,
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "auc_unseen": statistics.median(aucs) if aucs else 0.0,
            }
            notes = {"setup_s": f"median of {len(setups)} set-ups over the run, import "
                                f"{statistics.median(s['import_s'] for s in setups):.3f} s",
                     "pass_s_p50": f"{len(untraced)} passes", "pass_s_tail": tail_note,
                     "cpu_s": "median per pass, children included",
                     "peak_rss_mb": "this process", "auc_unseen": "median over passes"}
            for name, value in values.items():
                print(f"{name:12} {value:12.4f} {E2E_UNITS[name]:4}  ({notes[name]})")
            metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in values.items()}
        report["metrics"] = metrics

        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report), encoding="utf-8")
        correct = failed == 0 and report.get("pinned_reference", {}).get("correct", True)
        print(json.dumps({"correct": correct, "attempted": len(passes),
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
