"""networkx and scipy.stats stay out of a run's import graph until used.

Both are slow to import; a run that never ranks utilities or converts a
graph should not pay for them at start-up.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROGRAM = """
import sys
import repro.cli
from repro.run.session import Session
from repro.run.spec import MarketSpec, RunSpec, WorkloadSpec

LAZY = ("networkx", "scipy.stats")
assert not set(LAZY) & set(sys.modules), "import repro.cli"
for spec in (
    RunSpec(command="solve", market=MarketSpec(buyers=12, sellers=3, seed=1)),
    RunSpec(command="distributed", market=MarketSpec(buyers=8, sellers=2, seed=1)),
    RunSpec(
        command="dynamic",
        market=MarketSpec(buyers=8, sellers=2, seed=1, workload=WorkloadSpec(epochs=2)),
    ),
):
    Session(spec).run()
    assert not set(LAZY) & set(sys.modules), spec.command
"""


def test_networkx_is_not_imported_by_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
