"""Every name a spofdm module exports through ``__all__`` exists, importing
the package loads none of its heavy dependencies, and the test layout stays
flat: shared helpers live in ``tests/support.py``, so no file under
``tests/`` imports a test module."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import spofdm


def test_all_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(spofdm.__path__):
        module = importlib.import_module(f"spofdm.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


FOOTPRINT = """
import importlib, pkgutil, sys
import spofdm

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "cryptography"})

for info in pkgutil.iter_modules(spofdm.__path__):
    importlib.import_module(f"spofdm.{info.name}")
print(loaded())
from spofdm.harness import run_ber_experiment, table1_scenario
run_ber_experiment(table1_scenario(), ["1_2"], [15.0], max_codewords=1).summary_text()
print(loaded())
from spofdm.keystream import SecretKey, phase_plans
phase_plans(SecretKey(bytes(16)), 0, 0, 1, 128, 16)
print(loaded())
"""


def test_import_footprint():
    # scipy is imported inside the functions that need it, and the AES
    # backend on the first keystream derivation, which a BER point and its
    # summary never make
    env = {**os.environ, "PYTHONPATH": str(Path(spofdm.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[]", "['cryptography']"]


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
