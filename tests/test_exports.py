"""Every name a spofdm module exports through ``__all__`` exists, and the
test layout stays flat: shared helpers live in ``tests/support.py``, so no
file under ``tests/`` imports a test module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import spofdm


def test_all_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(spofdm.__path__):
        module = importlib.import_module(f"spofdm.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_no_test_module_imports_another():
    imports = []
    for path in sorted(Path(__file__).parent.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[-1].startswith("test_")]
    assert imports == []
