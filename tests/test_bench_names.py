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


def _workloads_tree() -> ast.Module:
    return ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))


def _attributes_of(name: str) -> set[str]:
    """Every attribute ``workloads.py`` reads off the module it binds as ``name``."""
    return {node.attr for node in ast.walk(_workloads_tree())
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


def _module_calls():
    """Every ``ha.<fn>(...)`` and ``cli.<fn>(...)`` call in ``workloads.py``."""
    calls = [node for node in ast.walk(_workloads_tree())
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in ("ha", "cli")]
    return [pytest.param(node, id=f"{node.func.value.id}.{node.func.attr}:{node.lineno}")
            for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset))]


@pytest.mark.parametrize("call", _module_calls())
def test_workload_calls_bind(call):
    # the call's positional count and keyword names against the signature,
    # so a renamed or removed parameter fails here and not in bench/run.py
    owner = {"ha": hetanom, "cli": cli}[call.func.value.id]
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(kw.arg is not None for kw in call.keywords)
    signature = inspect.signature(getattr(owner, call.func.attr))
    signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
