"""The benchmark under ``bench/`` and the scripts under ``demos/`` import
names from ``ricguard``; each must still resolve, so removing one from the
package cannot silently break them.

Each keyword argument a script passes to such a name must also still be
accepted, so removing a parameter cannot silently break them either.

The scripts are only parsed, never run. For the two demos that train a
detector, which the suite does not run, this is the only check.
"""

import ast
import importlib
import inspect
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
#: the verified store, the emulator and its messages and labels, inspection
#: outcomes, consumer decisions and attestation rounds.
READ_ATTRIBUTES = [
    ("ricguard.detector", "ScoredRecord", "record"),
    ("ricguard.detector", "ScoredRecord", "verdict"),
    ("ricguard.detector", "AnomalyVerdict", "is_anomalous"),
    ("ricguard.detector", "AnomalyVerdict", "magnitude"),
    ("ricguard.detector", "AnomalyVerdict", "ue_id"),
    ("ricguard.kpm", "KpmRecord", "feature_values"),
    ("ricguard.harness", "TelemetryStore", "append"),
    ("ricguard.harness", "TelemetryStore", "records_at"),
    ("ricguard.emulator", "EmittedMessage", "frame"),
    ("ricguard.emulator", "EmittedMessage", "injected"),
    ("ricguard.emulator", "EmittedMessage", "labels"),
    ("ricguard.emulator", "EmittedMessage", "records"),
    ("ricguard.emulator", "EmittedMessage", "kind"),
    ("ricguard.emulator", "EmittedMessage", "node_id"),
    ("ricguard.emulator", "GroundTruthLabel", "ue_id"),
    ("ricguard.emulator", "GroundTruthLabel", "timestamp"),
    ("ricguard.emulator", "GroundTruthLabel", "poisoned"),
    ("ricguard.emulator", "RanEmulator", "step"),
    ("ricguard.emulator", "RanEmulator", "generate_tick"),
    ("ricguard.inspector", "InspectionOutcome", "verdict"),
    ("ricguard.inspector", "InspectionOutcome", "match"),
    ("ricguard.signatures", "MatchResult", "hits"),
    ("ricguard.harness", "ConsumerDecision", "records_seen"),
    ("ricguard.attestation", "RoundResult", "outcome"),
    ("ricguard.attestation", "AttestationEngine", "reference_loaded"),
    ("ricguard.attestation", "AttestationEngine", "run_round"),
]


@pytest.mark.parametrize("module,cls,attr", READ_ATTRIBUTES,
                         ids=[f"{c}.{a}" for _, c, a in READ_ATTRIBUTES])
def test_bench_read_attribute_exists(module, cls, attr):
    assert f".{attr}" in (ROOT / "bench" / "session.py").read_text(), \
        f"bench/session.py no longer reads .{attr}; drop it from the list"
    owner = getattr(importlib.import_module(module), cls)
    # a dataclass field without a default is not a class attribute
    assert hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", {}), \
        f"bench/session.py reads {cls}.{attr}"


def _ricguard_keywords():
    """(script, module, name, keyword) for every keyword argument passed in
    a call to a name the script imports from ``ricguard``."""
    for path in SCRIPTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ricguard":
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in imported:
                module, name = imported[node.func.id]
                for keyword in node.keywords:
                    if keyword.arg is not None:  # not a ``**mapping``
                        yield path.name, module, name, keyword.arg


KEYWORDS = sorted(set(_ricguard_keywords()))


def test_bench_keywords_found():
    scripts = {script for script, _, _, _ in KEYWORDS}
    assert {"detect_poisoning.py", "end_to_end_loop.py", "session.py"} <= scripts


@pytest.mark.parametrize("script,module,name,keyword", KEYWORDS,
                         ids=[f"{s}:{n}({k}=)" for s, _, n, k in KEYWORDS])
def test_bench_keyword_accepted(script, module, name, keyword):
    params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    assert keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values()), \
        f"{script} passes {keyword}= to {module}.{name}"
