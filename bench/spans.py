"""Outside-in span recorder for hetanom's public functions.

Spans are recorded from the benchmark's own code: each function in
``LAYERS`` is replaced by a timing wrapper in every hetanom module that
looks the name up (``fit`` calls ``hetanom.train.base_loss``, so that is
the name patched there), and methods are replaced on their class. No file
of the package is changed and the originals are restored on exit.

A span is (name, start, end, parent). A layer's self time is the summed
duration of its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _history_rows(a, k, r) -> int:
    history = a[1] if len(a) > 1 else k["history"]
    return history.shape[0] if history.ndim == 3 else 1


# (module, qualified name, size kind, size of one call from (args, kwargs, result))
LAYERS = (
    ("nets", "SequencePredictor.forward_with_cache", "rows", _history_rows),
    ("nets", "SequencePredictor.backward", None, None),
    ("nets", "ScorerNet.forward_with_cache", "rows", lambda a, k, r: len(a[1])),
    ("nets", "ScorerNet.backward", None, None),
    ("nets", "AdamState.step", None, None),
    ("nets", "save_checkpoint", "bytes", lambda a, k, r: os.path.getsize(a[0])),
    ("losses", "base_loss", "rows", lambda a, k, r: len(a[1])),
    ("losses", "base_loss_grad", None, None),
    ("losses", "cdl_loss", None, None),
    ("train", "fit", "rows", lambda a, k, r: len(a[0])),
    ("train", "train_bases_epoch", None, None),
    ("train", "estimate_importance", None, None),
    ("train", "generalization_errors", None, None),
    ("train", "unified_update", None, None),
    ("train", "train_scorer", "rows", lambda a, k, r: len(a[1])),
    ("partition", "kmeans", "rows", lambda a, k, r: len(a[0])),
    ("partition", "build_distributions", "rows", lambda a, k, r: len(a[0])),
    ("partition", "DistributionCollection.training_table", "rows", lambda a, k, r: len(r)),
    ("synth", "generate", "rows", lambda a, k, r: len(r)),
    ("synth", "synthesize_pseudo", None, None),
    ("evaluate", "run_protocol", None, None),
    ("evaluate", "run_variant", None, None),
    ("evaluate", "auc", "rows", lambda a, k, r: len(a[0])),
    ("data", "stratified_split", "rows", lambda a, k, r: len(a[0])),
    ("data", "FeatureDataset.take", "rows", lambda a, k, r: len(a[1])),
    ("cli", "execute_run", "bytes", lambda a, k, r: _dir_bytes(a[1])),
    ("seeding", "derive_seed", None, None),
)


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


UNITS = {"calls": "count", "self_s": "s", "rows": "rows", "bytes": "bytes"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in table order."""
    units = {}
    for module, qualname, size_kind, _ in LAYERS:
        base = layer_name(module, qualname)
        for kind in ("calls", "self_s") + ((size_kind,) if size_kind else ()):
            units[f"{base}.{kind}"] = UNITS[kind]
    return units | {"trace.pass_s_p50": "s", "trace.overhead_s": "s"}


class Recorder:
    """Keeps spans in memory while the wrappers are installed."""

    def __init__(self):
        # (span id, name, start, end, parent id or -1, rows or bytes)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, 0))

    def _wrap(self, name, fn, size_of):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = 0 if size_of is None else size_of(args, kwargs, result)
            recorder.spans.append((span_id, name, start, end, parent, size))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer in every hetanom module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hetanom" or n.startswith("hetanom."))]
        undo = []
        try:
            for module, qualname, _, size_of in LAYERS:
                owner = importlib.import_module(f"hetanom.{module}")
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                name = layer_name(module, qualname)
                if outer:  # a method: replace it on its class
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, size_of))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, size_of)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self seconds and rows or bytes for every layer."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, list] = {}
        for span_id, name, start, end, _, size in self.spans:
            t = totals.setdefault(name, [0, 0.0, 0])
            t[0] += 1
            t[1] += (end - start) - child_time.get(span_id, 0.0)
            t[2] += size
        metrics = {}
        for module, qualname, size_kind, _ in LAYERS:
            base = layer_name(module, qualname)
            calls, self_s, size = totals.get(base, (0, 0.0, 0))
            metrics[f"{base}.calls"] = calls / passes
            metrics[f"{base}.self_s"] = self_s / passes
            if size_kind:
                metrics[f"{base}.{size_kind}"] = size / passes
        return metrics

    def dump(self) -> dict:
        """Spans in columnar form, times in seconds from the first span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        return {
            "names": names,
            "id": [s[0] for s in self.spans],
            "name": [index[s[1]] for s in self.spans],
            "start_s": [round(s[2] - t0, 7) for s in self.spans],
            "end_s": [round(s[3] - t0, 7) for s in self.spans],
            "parent": [s[4] for s in self.spans],
        }
