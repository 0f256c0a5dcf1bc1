import csv
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hetanom import evaluate
from hetanom.cli import execute_run, main, parse_config
from hetanom.errors import ConfigurationError, HetanomError
from hetanom.evaluate import (
    METRICS,
    EvalResult,
    ProtocolSpec,
    auc,
    canonical_variant,
    run_protocol,
    run_protocols,
    run_variant,
    sweep,
    sweep_csv,
)
from hetanom.synth import Component, MixtureSpec, default_benchmark, generate
from hetanom.train import TrainConfig, fit

from test_cli import minimal_config


def auc_bruteforce(scores, labels):
    """O(n^2) pairwise oracle with doubled half-credits (exact integers)."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins2 = 0
    for a in pos:
        for n in neg:
            if a > n:
                wins2 += 2
            elif a == n:
                wins2 += 1
    return wins2 / (2 * len(pos) * len(neg))


def auc_tie_loop(scores, labels):
    """The former per-row tie loop of ``auc``, kept as a reference: doubled
    midranks of each run of scores equal to the run's first."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels == 1
    m = int(pos.sum())
    n_neg = int(len(labels) - m)
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    ranks2 = np.empty(len(scores), dtype=np.int64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        ranks2[order[i : j + 1]] = (i + 1) + (j + 1)
        i = j + 1
    return (int(ranks2[pos].sum()) - m * (m + 1)) / (2 * m * n_neg)


def auc_stable_sort(scores, labels):
    """``auc`` on a stable sort, as it was before it took the default sort:
    doubled midranks of the runs of equal sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    m = int(pos.sum())
    n_neg = len(scores) - m
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    start = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))
    end = np.append(start[1:], len(scores)) - 1
    ranks2 = np.empty(len(scores), dtype=np.int64)
    ranks2[order] = np.repeat(start + end + 2, end - start + 1)
    return (int(ranks2[pos].sum()) - m * (m + 1)) / (2 * m * n_neg)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5

    def test_four_point_example(self):
        # pairs: wins 3, losses 1 -> 0.75
        assert auc([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(HetanomError, match="^AUC needs at least one positive and one negative$"):
            auc([0.1, 0.2], [1, 1])

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, size=n).astype(np.float64) / 4.0
            assert auc(scores, labels) == auc_bruteforce(scores, labels)

    def test_matches_tie_loop_on_heavy_ties_signed_zeros_and_nan(self):
        rng = np.random.default_rng(2)
        pool = np.array([0.0, -0.0, np.nan, 0.25, -0.25, 1.0, np.inf])
        for _ in range(300):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice(pool, size=n)
            assert auc(scores, labels) == auc_tie_loop(scores, labels)
        scores = rng.integers(0, 40, size=5000) / 8.0
        labels = rng.integers(0, 2, size=5000)
        assert auc(scores, labels) == auc_tie_loop(scores, labels)

    def test_matches_the_stable_sort_with_ties_signed_zeros_infs_and_nans(self):
        # only NaNs (each its own run) are placed by the order of the sort
        rng = np.random.default_rng(3)
        pool = np.array([0.0, -0.0, np.nan, 0.25, -0.25, 1.0, np.inf, -np.inf])
        for _ in range(3000):
            n = int(rng.integers(2, 300))
            labels = rng.integers(0, 2, size=n)
            labels[rng.choice(n, size=2, replace=False)] = [0, 1]
            scores = rng.choice(pool[: rng.integers(2, len(pool) + 1)], size=n)
            assert auc(scores, labels) == auc_stable_sort(scores, labels)
        scores = rng.normal(size=37_790)
        scores[rng.choice(len(scores), size=500, replace=False)] = np.nan
        labels = rng.integers(0, 2, size=len(scores))
        assert auc(scores, labels) == auc_stable_sort(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(3.0 * scores + 7.0, labels) == base


def tiny_benchmark(seed=0):
    """A small two-class benchmark that trains in well under a second."""
    d = 6
    return generate(MixtureSpec(
        dim=d,
        normal_components=(
            Component((0.0,) * d, (1.0,) * d, 60),
            Component((4.0, 4.0, 0.0, 0.0, 0.0, 0.0), (1.0,) * d, 60),
        ),
        anomaly_components=(
            Component((8.0,) * d, (0.5,) * d, 24, "hot"),
            Component((-6.0,) * d, (0.5,) * d, 24, "cold"),
        ),
        seed=seed,
    ))


FAST = TrainConfig(T=3, C=2, epochs=6, warmup_epochs=5, K=5, hidden=16)


class TestRunProtocol:
    def test_general_protocol_runs(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(0, 1))
        res = run_protocol(ds, spec, FAST, "AHL")
        assert len(res.per_seed) == 2
        for r in res.per_seed:
            assert 0.0 <= r.auc_overall <= 1.0

    def test_deterministic(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(3, 4))
        a = run_protocol(ds, spec, FAST, "AHL")
        b = run_protocol(ds, spec, FAST, "AHL")
        assert a == b

    def test_hard_all_classes_seen_reports_absent_unseen(self):
        # only one anomaly class exists: nothing is unseen
        d = 4
        ds = generate(MixtureSpec(
            dim=d,
            normal_components=(Component((0.0,) * d, (1.0,) * d, 80),),
            anomaly_components=(Component((6.0,) * d, (0.5,) * d, 20, "only"),),
            seed=1,
        ))
        spec = ProtocolSpec(seen_class="only", m_anomalies=5, seeds=(0,))
        res = run_protocol(ds, spec, TrainConfig(T=2, C=2, epochs=2, hidden=8), "AHL")
        assert res.per_seed[0].auc_unseen is None
        assert res.per_seed[0].auc_seen is not None

    def test_unknown_seen_class(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(seen_class="nope", m_anomalies=4, seeds=(0,))
        with pytest.raises(ConfigurationError, match="seen_class"):
            run_protocol(ds, spec, FAST, "AHL")

    def test_no_leakage(self):
        ds = tiny_benchmark()
        from hetanom.evaluate import _protocol_split
        from hetanom.seeding import derive_seed
        spec = ProtocolSpec(m_anomalies=6, seeds=(5,))
        root = derive_seed(FAST.seed, "protocol", 5)
        train_ds, test_ds, _ = _protocol_split(ds, spec, root)
        from dataclasses import replace
        cfg = replace(FAST, seed=derive_seed(root, "fit"))
        for name in evaluate.VARIANTS:
            model = run_variant(name, train_ds, cfg)
            assert not set(test_ds.ids) & model.exposure_ids, name
            if name in ("Homogeneous", "RamFULL", "RamHADG"):  # the split they draw rows from
                assert model.exposure_ids == frozenset(train_ds.ids), name

    def test_seeds_run_and_aggregate_in_ascending_order(self):
        ds = tiny_benchmark()
        sunk = []
        shuffled = run_protocol(ds, ProtocolSpec(m_anomalies=6, seeds=(2, 0, 1)),
                                FAST, "Homogeneous",
                                model_sink=lambda seed, model: sunk.append(seed))
        ordered = run_protocol(ds, ProtocolSpec(m_anomalies=6, seeds=(0, 1, 2)),
                               FAST, "Homogeneous")
        assert sunk == [0, 1, 2]
        assert [r.seed for r in shuffled.per_seed] == [0, 1, 2]
        assert shuffled == ordered


class TestWorkerPool:
    """``run_protocols`` runs its (run, seed) jobs in a pool of forked
    workers. ``_usable_cpus`` reports 2 here, so the pool runs on any
    machine."""

    SPEC = ProtocolSpec(m_anomalies=6, seeds=(0, 1, 2))
    RUNS = [("Homogeneous", FAST), ("RamFULL", FAST)]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)

    @staticmethod
    def fail_jobs(monkeypatch, failures):
        """Make each job ``(variant, seed)`` of ``failures`` raise
        ``HetanomError(message)`` in scoring, after ``delay`` seconds, where
        ``failures[(variant, seed)] == (delay, message)``."""
        inner = evaluate._score_test

        def score(model, test_ds, seed, seen_classes):
            if (model.name, seed) in failures:
                delay, message = failures[(model.name, seed)]
                time.sleep(delay)
                raise HetanomError(message)
            return inner(model, test_ds, seed, seen_classes)

        monkeypatch.setattr(evaluate, "_score_test", score)

    def run(self, sunk):
        return run_protocols(tiny_benchmark(), self.SPEC, self.RUNS,
                             model_sink=lambda seed, model: sunk.append((model.name, seed)))

    def test_pool_gives_the_serial_results_and_leaves_no_worker(self, monkeypatch):
        pooled_sunk, serial_sunk = [], []
        pooled = self.run(pooled_sunk)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
        serial = self.run(serial_sunk)
        assert pooled == serial
        assert pooled_sunk == serial_sunk == [(v, s) for v, _ in self.RUNS for s in (0, 1, 2)]
        assert evaluate._JOBS == ()

    def test_failing_job_raises_in_the_parent_and_stops_the_sinks(self, monkeypatch):
        self.fail_jobs(monkeypatch, {("RamFULL", 1): (0.0, "job failed")})
        sunk = []
        with pytest.raises(HetanomError) as info:
            self.run(sunk)
        assert type(info.value) is HetanomError and str(info.value) == "job failed"
        # raised in a worker: the cause holds the worker's traceback
        assert "raise HetanomError(message)" in str(info.value.__cause__)
        assert sunk == [("Homogeneous", 0), ("Homogeneous", 1), ("Homogeneous", 2), ("RamFULL", 0)]
        assert multiprocessing.active_children() == []
        assert evaluate._JOBS == ()

    def test_earlier_failure_in_serial_order_wins(self, monkeypatch):
        # the later job fails first, while the earlier one still sleeps
        self.fail_jobs(monkeypatch, {("Homogeneous", 1): (0.5, "earlier job"),
                                     ("Homogeneous", 2): (0.0, "later job")})
        sunk = []
        with pytest.raises(HetanomError, match="^earlier job$"):
            self.run(sunk)
        assert sunk == [("Homogeneous", 0)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_sink_error_stops_the_pool(self, error):
        def sink(seed, model):
            raise error("stop")

        with pytest.raises(error, match="^stop$"):
            run_protocols(tiny_benchmark(), self.SPEC, self.RUNS, model_sink=sink)
        assert multiprocessing.active_children() == []
        assert evaluate._JOBS == ()

    @pytest.mark.parametrize("failure", ["job", "sink", "KeyboardInterrupt"])
    def test_workers_exit_by_themselves_after_an_error(self, monkeypatch, failure):
        # the jobs not yet handed to the workers are cancelled, the others
        # finish, and every worker exits by itself before the call returns
        if failure == "job":
            self.fail_jobs(monkeypatch, {("Homogeneous", 1): (0.0, "job failed")})
        error = KeyboardInterrupt if failure == "KeyboardInterrupt" else RuntimeError
        workers = []

        def sink(seed, model):
            workers.extend(multiprocessing.active_children())
            if failure != "job":
                raise error(f"{failure} failed")

        with pytest.raises((HetanomError, error), match=f"^{failure} failed$"):
            run_protocols(tiny_benchmark(), self.SPEC, self.RUNS, model_sink=sink)
        assert multiprocessing.active_children() == []
        assert len(workers) == 2 and [worker.exitcode for worker in workers] == [0, 0]
        assert evaluate._JOBS == ()

    def test_concurrent_calls_each_run_their_own_jobs(self, monkeypatch):
        # while both threads live, this process runs other threads, so both
        # calls take the in-process path
        runs = [("Homogeneous", FAST)]
        specs = [ProtocolSpec(m_anomalies=6, seeds=(0, 1, 2)),
                 ProtocolSpec(m_anomalies=6, seeds=(3, 4, 5, 6))]
        got = [None, None]

        def call(i):
            try:
                got[i] = run_protocols(tiny_benchmark(), specs[i], runs)
            except Exception as exc:
                got[i] = exc

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
        assert got == [run_protocols(tiny_benchmark(), spec, runs) for spec in specs]
        assert evaluate._JOBS == ()

    @staticmethod
    def kill_worker_of(monkeypatch, job):
        """Make job ``(variant, seed)`` SIGKILL the worker it runs in, as the
        OOM killer would."""
        parent, inner = os.getpid(), evaluate._score_test

        def score(model, test_ds, seed, seen_classes):
            if (model.name, seed) == job and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return inner(model, test_ds, seed, seen_classes)

        monkeypatch.setattr(evaluate, "_score_test", score)

    def test_killed_worker_fails_the_call_by_name(self, monkeypatch):
        self.kill_worker_of(monkeypatch, ("Homogeneous", 0))
        sunk = []
        start = time.monotonic()
        with pytest.raises(HetanomError) as info:
            self.run(sunk)
        assert time.monotonic() - start < 10
        assert str(info.value) == "protocol job (Homogeneous, seed 0) did not finish: a worker died"
        assert sunk == []
        assert multiprocessing.active_children() == []
        assert evaluate._JOBS == ()

    def test_killed_worker_fails_the_run_with_exit_code_1(self, tmp_path, monkeypatch, capsys):
        self.kill_worker_of(monkeypatch, ("Homogeneous", 0))
        out = tmp_path / "out"
        cfg = minimal_config(seeds=(0, 1), variants=("Homogeneous",), epochs=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: HetanomError: protocol job (Homogeneous, seed 0) did not finish: "
            "a worker died\n")
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch):
        # seed 0's job finishes before seed 1's fails
        self.fail_jobs(monkeypatch, {("Homogeneous", 1): (0.0, "job failed")})
        out = tmp_path / "out"
        config = parse_config(minimal_config(seeds=(0, 1), variants=("Homogeneous",),
                                             epochs=2))
        with pytest.raises(HetanomError, match="^job failed$"):
            execute_run(config, out)
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestRefusedBeforeAnyJob:
    """``run_protocols`` refuses what the data cannot carry before any job,
    in the pool and in this process, for every library caller."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["in-process", "pooled"])
    def no_jobs(self, request, monkeypatch):
        def job(job):
            raise AssertionError("a job ran")

        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: request.param)
        monkeypatch.setattr(evaluate, "_run_job", job)

    def test_no_anomaly_left_to_test(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=ds.n_anomaly, seeds=(0, 1))
        with pytest.raises(ConfigurationError, match=r"^protocol.m_anomalies: 48 leaves none "
                                                     r"of the 48 anomalies to test$"):
            run_protocol(ds, spec, FAST, "AHL")

    def test_every_swept_C_checked(self):
        spec = ProtocolSpec(m_anomalies=6, seeds=(0, 1))
        with pytest.raises(ConfigurationError, match=r"^train.C: 10000 exceeds the 90 normals "
                                                     r"a seed trains on$"):
            sweep("C", [2, 10_000], tiny_benchmark(), spec, FAST, "AHL")


def test_import_leaves_multiprocessing_unloaded():
    # multiprocessing costs 11-18 ms of import time; run_protocols imports it
    code = ("import sys, hetanom; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout == "[]\n"


class TestVariants:
    def test_names_normalized(self):
        assert canonical_variant("ahl") == "AHL"
        assert canonical_variant("hadg-only") == "HADG_only"
        assert canonical_variant("CDL-MINUS") == "CDL_minus"
        with pytest.raises(ConfigurationError):
            canonical_variant("mystery")

    def test_ramfull_t1_equals_homogeneous(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=1, C=2, epochs=3, hidden=8, seed=4)
        ram = run_variant("RamFULL", ds, cfg)
        homog = run_variant("Homogeneous", ds, cfg)
        x = ds.features[:10]
        np.testing.assert_array_equal(ram.scores(x), homog.scores(x))

    def test_homogeneous_is_scorer_0_of_ramfull(self):
        # on a protocol split, Homogeneous's one scorer has scorer 0's init and
        # batch stream: its net is RamFULL's first, bit for bit
        from dataclasses import replace
        from hetanom.evaluate import _protocol_split
        from hetanom.seeding import derive_seed
        spec = ProtocolSpec(m_anomalies=10, seen_class="spike", seeds=(0,))
        root = derive_seed(0, "protocol", 0)
        train_ds, _, _ = _protocol_split(generate(default_benchmark()), spec, root)
        cfg = replace(TrainConfig(epochs=4), seed=derive_seed(root, "fit"))
        homog = run_variant("Homogeneous", train_ds, cfg)
        ram = run_variant("RamFULL", train_ds, cfg)
        assert len(homog.nets) == 1 and len(ram.nets) == cfg.T
        np.testing.assert_array_equal(homog.nets[0].theta, ram.nets[0].theta)
        assert not np.array_equal(ram.nets[0].theta, ram.nets[1].theta)

    def test_cdl_minus_weights_valid_every_epoch(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=3, C=2, epochs=4, hidden=8, seed=5)
        model = run_variant("CDL_minus", ds, cfg)
        res = fit(ds, cfg, accuracy_weights=True)
        assert model.log == res.log
        for record in model.log:
            w = np.array(record["w"])
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-9
        assert res.seq_net is None

    def test_ensembles_average_bases(self):
        ds = tiny_benchmark()
        cfg = TrainConfig(T=3, C=2, epochs=2, hidden=8, seed=6)
        for name in ("HADG_only", "RamHADG", "RamFULL"):
            model = run_variant(name, ds, cfg)
            assert len(model.nets) == 3
            scores = model.scores(ds.features[:5])
            manual = np.mean([net.forward(ds.features[:5]) for net in model.nets], axis=0)
            np.testing.assert_array_equal(scores, manual)

    def test_hadg_only_simulates_the_subsets_fit_does(self):
        # one subset-simulation path: HADG_only trains on fit's training table,
        # in few-shot mode and in one-shot mode
        ds = tiny_benchmark()
        one_shot = ds.take(np.concatenate([ds.normal_rows(), ds.anomaly_rows()[:1]]))
        cfg = TrainConfig(T=3, C=2, epochs=1, hidden=8, seed=7)
        for data in (ds, one_shot):
            model = run_variant("HADG_only", data, cfg)
            assert model.exposure_ids == frozenset(fit(data, cfg).table.ids)


class TestSweep:
    def test_c_sweep_rows(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(0,))
        entries = sweep("C", [2, 3], ds, spec, FAST)
        text = sweep_csv("C", entries)
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header + 2 values
        assert lines[0].startswith("param,value,auc_overall_mean")

    def test_k_sweep_raises_warmup(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(0,))
        entries = sweep("K", [7], ds, spec,
                        TrainConfig(T=2, C=2, epochs=8, warmup_epochs=5, hidden=8))
        assert entries[0][1].per_seed[0].auc_overall is not None

    def test_sweep_deterministic_bytes(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(0,))
        a = sweep_csv("C", sweep("C", [2], ds, spec, FAST))
        b = sweep_csv("C", sweep("C", [2], ds, spec, FAST))
        assert a == b

    def test_csv_columns_follow_metrics(self):
        from hetanom.evaluate import SeedResult
        macro = EvalResult(variant="AHL", kind="hard", per_seed=(
            SeedResult(0, 0.8, 1.0, 0.6, 0.65, ("a",)),
            SeedResult(1, 0.7, 1.0, 0.5, 0.45, ("a",)),
        ))
        no_unseen = EvalResult(variant="AHL", kind="general", per_seed=(
            SeedResult(0, 0.8, 0.9, None, None, ("a", "b")),
        ))
        rows = list(csv.reader(io.StringIO(sweep_csv("C", [(2, macro), (3, no_unseen)]))))
        assert rows[0] == ["param", "value",
                           *(f"{m}_{s}" for m in METRICS for s in ("mean", "std"))]
        assert rows[0][-2:] == ["auc_unseen_macro_mean", "auc_unseen_macro_std"]
        assert rows[1][-2:] == [repr(v) for v in macro.mean_std("auc_unseen_macro")]
        assert rows[2] == ["C", "3", repr(0.8), repr(0.0), repr(0.9), repr(0.0), "", "", "", ""]
        assert list(macro.to_dict()["aggregate"]) == list(METRICS)

    def test_bad_param(self):
        ds = tiny_benchmark()
        spec = ProtocolSpec(m_anomalies=6, seeds=(0,))
        with pytest.raises(ConfigurationError):
            sweep("T", [1], ds, spec, FAST)


class TestEvalResult:
    def test_aggregate_handles_absent(self):
        from hetanom.evaluate import SeedResult
        res = EvalResult(variant="AHL", kind="general", per_seed=(
            SeedResult(0, 0.8, 0.9, None, None, ("a",)),
            SeedResult(1, 0.6, 0.7, None, None, ("a",)),
        ))
        mean, std = res.mean_std("auc_overall")
        assert abs(mean - 0.7) < 1e-12
        assert res.mean_std("auc_unseen") is None
        d = res.to_dict()
        assert d["aggregate"]["auc_unseen"] is None
