"""The engines do not import the layers that run them.

Each engine has one public entry point in its own module, and the
Session layer (``repro.run``), the durable runtime (``repro.runtime``)
and the CLI (``repro.cli``) call those entry points -- never the other
way round.  This test parses every module outside those three layers
and fails on any import of them, at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The layers on top: they may import everything below them.
UPPER_LAYERS = ("repro.run", "repro.runtime", "repro.cli")


def _is_upper(name: str) -> bool:
    return any(
        name == layer or name.startswith(layer + ".") for layer in UPPER_LAYERS
    )


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imported_names(source: str, package: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, dotted name)`` for every import in ``source``.

    ``package`` anchors relative imports.  ``from X import y`` yields both
    ``X`` and ``X.y`` (``y`` may be a submodule), and
    ``importlib.import_module("X")`` / ``__import__("X")`` yield ``X``.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.lineno, node.args[0].value


def test_engines_do_not_import_the_run_layers():
    sources = [
        path
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if not _is_upper(_module_name(path))
    ]
    assert len(sources) > 50, f"too few sources found under {PACKAGE_DIR}"
    offenders = {}
    for path in sources:
        package = _module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
        source = path.read_text(encoding="utf-8")
        for lineno, name in imported_names(source, package):
            if _is_upper(name):
                where = f"{path.relative_to(PACKAGE_DIR.parent)}:{lineno}"
                offenders.setdefault(where, name)
    assert not offenders, "imports of repro.run/runtime/cli:\n" + "\n".join(
        f"{where}: {name}" for where, name in sorted(offenders.items())
    )


def test_scanner_catches_every_import_form():
    imports = [
        "import repro.run.session",
        "from repro.run.session import Session",
        "from repro.runtime import resume_run",
        "from repro import cli",
        "from ..run import session",
        "from ..runtime import durable",
        "def f():\n    from repro.run.session import build_market",
        "importlib.import_module('repro.runtime.durable')",
    ]
    for source in imports:
        names = [name for _, name in imported_names(source, "repro.core")]
        assert any(_is_upper(name) for name in names), source
    # Neighbouring names and prose are not imports of the run layers.
    others = [
        "from repro.core.market import SpectrumMarket",
        "import repro.runtime_notes",
        "from . import run_helpers",
        '"""Called by :mod:`repro.run.session`."""',
    ]
    for source in others:
        names = [name for _, name in imported_names(source, "repro.core")]
        assert not any(_is_upper(name) for name in names), source
