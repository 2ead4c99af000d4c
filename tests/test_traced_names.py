"""Every layer and predicate the benchmark traces, named as module.function
in `perfbench/worker.py`, still resolves in the package, so a rename or move
cannot silently drop a layer from the traced runs."""
import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _traced_names():
    """LAYERS and PREDICATES, read from the worker's source without
    importing it."""
    names = []
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("LAYERS", "PREDICATES") for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


# engine.oracle is a span the benchmark builds around engine.simulate
NAMES = [name for name in _traced_names() if name != "engine.oracle"]


def test_the_worker_names_its_traced_layers_and_predicates():
    assert "offline.matching_to_bt" in NAMES and "geometry.orientation" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module("ncmatch." + module), function))
