"""The benchmark's traced runs wrap layer entry points by name.

``perfbench/plans.py`` lists them as ``(owner, attribute, span, kind)``
and resolves each with ``getattr``; a renamed or deleted function would
otherwise surface only when a traced benchmark run crashes.  The plan
module is loaded from its path, unchanged.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PLANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "plans.py"


def _load_plans():
    spec = importlib.util.spec_from_file_location("perfbench_plans", PLANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PLANS = ("serve_plan", "daemon_plan", "refine_plan")


@pytest.mark.parametrize("plan", PLANS)
def test_every_planned_entry_point_resolves_and_is_callable(plan):
    entries = getattr(_load_plans(), plan)()
    assert entries
    for owner, attribute, span, kind in entries:
        target = getattr(owner, attribute, None)
        assert target is not None, f"{plan}: {owner!r} has no {attribute!r} ({span})"
        assert callable(target), f"{plan}: {owner!r}.{attribute} is not callable"
        assert kind in ("call", "iter"), f"{plan}: unknown wrap kind {kind!r}"
