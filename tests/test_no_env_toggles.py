"""The package reads no environment variables.

Behaviour is chosen by arguments, config keys and ``RunSpec`` fields,
so a run's spec records everything that shaped it and no toggle hides
in the environment.  Benchmark harness settings (``SPECTRUM_BENCH_*``
under ``benchmarks/``) live outside the package and are not scanned.
"""

from __future__ import annotations

import re
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``os.environ[...]``, ``os.environ.get``, ``from os import environ``,
#: ``os.getenv`` and ``os.environb`` all match.
ENV_READ = re.compile(r"\benvironb?\b|getenv")


def test_package_reads_no_environment_variables():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources, f"no sources found under {PACKAGE_DIR}"
    offenders = [
        f"{path.relative_to(PACKAGE_DIR.parent)}:{lineno}: {line.strip()}"
        for path in sources
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if ENV_READ.search(line)
    ]
    assert not offenders, "environment reads in the package:\n" + "\n".join(
        offenders
    )


def test_pattern_catches_every_read_form():
    reads = [
        'os.environ["SPECTRUM_X"]',
        'os.environ.get("SPECTRUM_X")',
        "from os import environ",
        'os.getenv("SPECTRUM_X")',
        "os.environb[b'SPECTRUM_X']",
    ]
    assert all(ENV_READ.search(line) for line in reads)
    # Prose about the environment is not a read.
    assert not ENV_READ.search("# the run environment is recorded")
