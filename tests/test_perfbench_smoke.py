"""The benchmark's workloads and checker self-test, run once at test time.

``perfbench/workloads.py`` and ``perfbench/selftest.py`` are imported as
they are, read-only: the self-test runs, and one round of each workload
(seed 1, its files in a temporary directory) goes through the workload's
own ``check``.  So a change to the API the benchmark calls (for example
``Instance.points``, ``check_coupling(workers=1)`` or the ``Point``
fields) fails here, not only when the benchmark runs.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("selftest")


def test_the_checker_self_test_passes(perfbench):
    _workloads, selftest = perfbench
    assert selftest.main() == 0


@pytest.mark.parametrize("name", ["coupling", "convex-advice", "plane", "files"])
def test_one_round_of_each_workload_passes_its_check(perfbench, name, tmp_path):
    workloads, _selftest = perfbench
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.setup()
    for k in range(1, wl.round_size + 1):
        wl.check(k, wl.op(k))
