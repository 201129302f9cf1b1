"""The benchmark under ``bench/`` imports names from ``ricguard``; each must
still resolve, so removing one from the package cannot silently break it.

The scripts are only parsed, never run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _ricguard_imports():
    """(script, module, name) for every ``from ricguard... import name``."""
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ricguard":
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(_ricguard_imports())


def test_bench_imports_found():
    assert len({script for script, _, _ in IMPORTS}) >= 3


@pytest.mark.parametrize("script,module,name", IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS])
def test_bench_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script} imports {module}.{name}"
