"""The five end-to-end workloads and the sizes each runs at.

Stdlib only: the orchestrator imports this table without importing the
package under test.  ``kind`` selects the unit body in
:mod:`benchmarks.e2e.worker`:

* ``solve`` -- ``Session(RunSpec(command="solve", ...)).run()`` on a paper
  Section V-A market built from the spec;
* ``sparse`` -- a constant-density KD-tree market from
  ``sparse_simulation_market``, injected as ``Session(spec, market=...)``;
* ``distributed`` -- one ``Session`` run of ``command="distributed"``;
* ``dynamic`` -- one ``Session`` run of ``command="dynamic"``.

Unit ``k`` of a run with ``--seed S`` uses the ``k``-th market seed from
``10000 * S`` on whose channel ranges give the workload's nominal load
(see ``benchmarks.e2e.worker.market_seeds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = ["Workload", "WORKLOADS", "get"]


@dataclass(frozen=True)
class Workload:
    """One workload: a unit body, its market size and its run length.

    ``prefix`` is the number of leading units that every run executes
    whatever ``--seconds`` says; the traced pass replays exactly these
    units and ``welfare_mean`` averages over them.  ``unit_s`` is the wall
    time of one unit where the benchmark was introduced (a 2-core x86 VM);
    a run executes ``seconds / unit_s`` units, so it lasts about
    ``--seconds`` there and always measures the same markets for a seed.
    """

    name: str
    kind: str
    buyers: int
    channels: int
    prefix: int
    unit_s: float
    why: str
    epochs: int = 0
    arrival_rate: float = 0.0
    departure_prob: float = 0.0
    drift: float = 0.0

    def units(self, seconds: float) -> int:
        """Units in an untraced run of ``seconds`` (at least ``prefix``)."""
        return max(self.prefix, math.ceil(seconds / self.unit_s))

    def smoke(self) -> "Workload":
        """The same workload at test sizes (a run takes well under a second)."""
        return replace(self, **_SMOKE[self.name])

    def toy(self) -> "Workload":
        """The warm-up size: one such unit runs before a process is ready."""
        return replace(
            self,
            buyers=200 if self.kind == "sparse" else 20,
            channels=4,
            epochs=min(self.epochs, 2),
            arrival_rate=min(self.arrival_rate, 2.0),
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "dense-2k", "solve", 2000, 20, prefix=2, unit_s=5.0,
        why="paper V-A scale N=2000 M=20: the O(N^2) market build is ~75% of "
        "a unit and Stage II ~4%, so interference-build changes show here",
    ),
    Workload(
        "sparse-20k", "sparse", 20000, 20, prefix=2, unit_s=6.0,
        why="constant-density KD-tree markets N=20000: build is O(E) and Stage "
        "II costs about as much as the build, so Stage II changes show here",
    ),
    Workload(
        "sweep-400", "solve", 400, 8, prefix=30, unit_s=0.1,
        why="many ~0.1 s paper markets N=400 M=8 as in a Fig. 6/7 sweep: fixed "
        "per-run costs (spec, report, verdicts) and small-N constants show",
    ),
    Workload(
        "distributed-400", "distributed", 400, 8, prefix=4, unit_s=0.85,
        why="fault-free Section IV protocol N=400 M=8: the time-slotted "
        "simulator is ~99% of a unit and no other workload runs it",
    ),
    Workload(
        "dynamic-600", "dynamic", 600, 10, prefix=1, unit_s=5.0,
        epochs=10, arrival_rate=30.0, departure_prob=0.05, drift=0.05,
        why="evolving market, 600 buyers, 10 epochs, warm and cold re-matching:"
        " the map is rebuilt every epoch and Stage II runs as warm-start repair",
    ),
)

_SMOKE: Dict[str, Dict[str, object]] = {
    "dense-2k": {"buyers": 120, "channels": 6},
    "sparse-20k": {"buyers": 1500, "channels": 6},
    "sweep-400": {"buyers": 40, "channels": 4},
    "distributed-400": {"buyers": 30, "channels": 4},
    "dynamic-600": {"buyers": 40, "channels": 4, "epochs": 3, "arrival_rate": 3.0},
}


def get(name: str, smoke: bool = False) -> Workload:
    """Look a workload up by name (``KeyError`` names the known ones)."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload.smoke() if smoke else workload
    raise KeyError(
        f"unknown workload {name!r}; known: "
        + ", ".join(w.name for w in WORKLOADS)
    )
