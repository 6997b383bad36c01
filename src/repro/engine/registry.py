"""The solver registry: name -> :class:`~repro.engine.protocol.Solver`.

Entry-point-style registration with capability filtering.  The builtin
adapters (:mod:`repro.engine.adapters`) are loaded *lazily* on the first
lookup -- never at import time -- so ``repro.engine`` itself stays
importable from anywhere in the package (including :mod:`repro.core`,
which the adapters themselves import) without cycles.

Third-party backends register the same way the builtins do::

    from repro import engine

    class MySolver:
        name = "my_solver"
        capabilities = frozenset({engine.Capability.HEURISTIC})
        description = "..."
        def solve(self, market, *, recorder=None, config=None): ...

    engine.register_solver(MySolver())

and are immediately dispatchable from the sweep harness, the CLI and the
benchmark comparisons.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Mapping, Optional, Union

from repro.core.market import SpectrumMarket
from repro.engine.protocol import Capability, Solver
from repro.engine.report import SolveReport
from repro.errors import SolverError
from repro.obs.recorder import Recorder

__all__ = [
    "register_solver",
    "unregister_solver",
    "get_solver",
    "list_solvers",
    "solver_names",
    "solve",
]

_REGISTRY: Dict[str, Solver] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the builtin adapters exactly once, on first lookup."""
    global _builtins_loaded
    if not _builtins_loaded:
        # Flip the flag first: the adapters module calls register_solver
        # at import time, and a re-entrant lookup must not re-import it.
        _builtins_loaded = True
        importlib.import_module("repro.engine.adapters")


def register_solver(solver: Solver, replace: bool = False) -> Solver:
    """Add ``solver`` to the registry under ``solver.name``.

    Duplicate names raise :class:`~repro.errors.SolverError` unless
    ``replace=True`` (deliberate override, e.g. a tuned drop-in).
    Returns the solver so the call composes as a decorator-ish one-liner.
    """
    name = getattr(solver, "name", "")
    if not name or not isinstance(name, str):
        raise SolverError(f"solver {solver!r} has no usable string name")
    if not replace and name in _REGISTRY:
        raise SolverError(
            f"solver name {name!r} is already registered; pass replace=True "
            "to override it deliberately"
        )
    _REGISTRY[name] = solver
    return solver


def unregister_solver(name: str) -> None:
    """Remove ``name`` from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_solver(name: str) -> Solver:
    """Look up a solver by registry name.

    Unknown names raise :class:`~repro.errors.SolverError` listing what
    *is* available, so a CLI typo fails with an actionable message.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise SolverError(
            f"unknown solver {name!r}; available solvers: {available}"
        ) from None


def list_solvers(
    capability: Optional[Union[Capability, str]] = None,
) -> List[Solver]:
    """All registered solvers (sorted by name), optionally filtered.

    ``capability`` accepts a :class:`Capability` or its string value
    (``"exact"``, ``"heuristic"``, ``"bound_only"``, ``"decentralized"``).
    """
    _ensure_builtins()
    solvers = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if capability is None:
        return solvers
    wanted = Capability(capability)
    return [s for s in solvers if wanted in s.capabilities]


def solver_names(
    capability: Optional[Union[Capability, str]] = None,
) -> List[str]:
    """Registered names (sorted), optionally filtered by capability."""
    return [solver.name for solver in list_solvers(capability)]


def solve(
    name: str,
    market: SpectrumMarket,
    *,
    recorder: Optional[Recorder] = None,
    config: Optional[Mapping[str, object]] = None,
) -> SolveReport:
    """Convenience one-shot: ``get_solver(name).solve(market, ...)``."""
    return get_solver(name).solve(market, recorder=recorder, config=config)
