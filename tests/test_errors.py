"""The package has three exception classes, one per thing a caller does: fix
the input (``ConfigurationError``, exit 2), know the run failed
(``HetanomError``, exit 1), or know a replay did not reproduce its record
(``ReplayError``, exit 1). A new class, or a raise of another one, fails
here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hetanom

SRC = Path(hetanom.__file__).parent
CLASSES = {
    "HetanomError": ("Exception",),
    "ConfigurationError": ("HetanomError", "ValueError"),
    "ReplayError": ("HetanomError",),
}


def test_the_package_defines_exactly_the_three_classes():
    modules = [hetanom] + [importlib.import_module(f"hetanom.{info.name}")
                           for info in pkgutil.iter_modules(hetanom.__path__)]
    defined = {(module.__name__, name): tuple(base.__name__ for base in value.__bases__)
               for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    assert defined == {("hetanom.errors", name): bases for name, bases in CLASSES.items()}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_names_one_of_the_three(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            # a worker re-raises Ctrl-C as itself: an interrupt, not an error
            assert name in CLASSES or (name == "KeyboardInterrupt"
                                       and not isinstance(node.exc, ast.Call)), (
                f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
