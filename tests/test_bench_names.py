"""The benchmark under bench/ resolves hetanom's names from outside the
package: ``bench/spans.py`` patches the functions in its ``LAYERS``, and
``bench/workloads.py`` calls the public API. Both files are only read
here, so a change that would break ``bench/run.py --trace 1`` fails this
suite instead."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import hetanom
from hetanom import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans_module():
    # executed from its source text, so that nothing is written under bench/
    path = BENCH / "spans.py"
    module = types.ModuleType("bench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _attributes_of(name: str) -> set[str]:
    """Every attribute ``workloads.py`` reads off the module it binds as ``name``."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name}


@pytest.mark.parametrize("module, qualname",
                         [layer[:2] for layer in _spans_module().LAYERS],
                         ids=lambda v: v)
def test_every_traced_layer_resolves(module, qualname):
    # the way Recorder.installed finds it: methods on their own class,
    # functions as module attributes
    owner = importlib.import_module(f"hetanom.{module}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        assert attr in owner.__dict__, f"{qualname} is not defined on its class"
    else:
        assert callable(getattr(owner, attr))


def test_workload_names_resolve():
    used = _attributes_of("ha") | {"auc", "fit", "generate", "default_benchmark",
                                   "TrainConfig", "kmeans", "build_distributions",
                                   "stratified_split", "SplitSpec"}
    missing = sorted(name for name in used if not hasattr(hetanom, name))
    assert not missing, f"hetanom lacks {missing}"
    missing = sorted(name for name in _attributes_of("cli") if not hasattr(cli, name))
    assert not missing, f"hetanom.cli lacks {missing}"
    for method in ("row_of", "take"):
        assert callable(getattr(hetanom.FeatureDataset, method, None)), method


def test_execute_run_takes_threads_third():
    # the workload passes it positionally
    params = list(inspect.signature(cli.execute_run).parameters)
    assert params[:3] == ["config", "out_dir", "threads"]
