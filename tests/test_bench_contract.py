"""The benchmark under ``bench/`` and the scripts under ``demos/`` import
names from ``ricguard``; each must still resolve, so removing one from the
package cannot silently break them.

The scripts are only parsed, never run. For the two demos that train a
detector, which the suite does not run, this is the only check.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _ricguard_imports():
    """(script, module, name) for every ``from ricguard... import name``."""
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ricguard":
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(_ricguard_imports())


def test_bench_imports_found():
    scripts = {script for script, _, _ in IMPORTS}
    assert len(scripts) >= 3
    assert {"detect_poisoning.py", "end_to_end_loop.py"} <= scripts


@pytest.mark.parametrize("script,module,name", IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in IMPORTS])
def test_bench_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script} imports {module}.{name}"


#: Attributes ``bench/session.py`` reads off the objects that ``ricguard``
#: returns to it: the scored records and their verdicts, the decoded records,
#: and the verified store.
READ_ATTRIBUTES = [
    ("ricguard.detector", "ScoredRecord", "record"),
    ("ricguard.detector", "ScoredRecord", "verdict"),
    ("ricguard.detector", "AnomalyVerdict", "is_anomalous"),
    ("ricguard.detector", "AnomalyVerdict", "magnitude"),
    ("ricguard.detector", "AnomalyVerdict", "ue_id"),
    ("ricguard.kpm", "KpmRecord", "feature_values"),
    ("ricguard.harness", "TelemetryStore", "append"),
    ("ricguard.harness", "TelemetryStore", "records_at"),
]


@pytest.mark.parametrize("module,cls,attr", READ_ATTRIBUTES,
                         ids=[f"{c}.{a}" for _, c, a in READ_ATTRIBUTES])
def test_bench_read_attribute_exists(module, cls, attr):
    assert f".{attr}" in (ROOT / "bench" / "session.py").read_text(), \
        f"bench/session.py no longer reads .{attr}; drop it from the list"
    assert hasattr(getattr(importlib.import_module(module), cls), attr), \
        f"bench/session.py reads {cls}.{attr}"
