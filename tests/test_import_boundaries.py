"""What importing the loop's core loads, checked in fresh interpreters.

The audit trail, the store, the refinement kernel and the daemon must not
pull in the SQL engine, the decision service or the process pool: each
is imported in a subprocess and ``sys.modules`` is inspected afterwards.
The lazy package root must still resolve every public name to the object
its home subpackage exports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module-name prefixes the loop's core must not load.
FORBIDDEN = (
    "repro.sqlmini",
    "repro.serve",
    "multiprocessing",
    "concurrent.futures.process",
)


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


@pytest.mark.parametrize(
    "module",
    ["repro.store.durable", "repro.refine_daemon", "repro.parallel.refine"],
)
def test_core_import_loads_no_sql_engine_service_or_pool(module):
    code = (
        "import json, sys\n"
        f"import {module}\n"
        f"print(json.dumps(sorted(name for name in sys.modules"
        f" if name.startswith({FORBIDDEN!r}))))\n"
    )
    assert json.loads(run_python(code)) == []


def test_package_root_resolves_every_public_name_to_its_home():
    code = (
        "import importlib, json, repro\n"
        "wrong = [name for name in repro.__all__ if name != '__version__'"
        " and getattr(repro, name) is not getattr("
        "importlib.import_module(repro._HOME_OF[name]), name)]\n"
        "missing = sorted(set(repro.__all__) - set(dir(repro)))\n"
        "print(json.dumps([wrong, missing, repro.__version__]))\n"
    )
    wrong, missing, version = json.loads(run_python(code))
    assert wrong == [] and missing == []
    assert version


def test_unknown_root_attribute_raises_attribute_error():
    import repro

    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
