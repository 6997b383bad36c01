"""Check the e2e benchmark's deterministic values against a committed file.

``python -m benchmarks.e2e`` records, for every workload, values that
depend on no machine: the welfare mean, coalition digests, Nash verdicts
and the traced pass's layer counters (``market.edges``, ``stage1.rounds``,
Stage II rounds, distributed and dynamic counts).  At smoke size they are
committed in ``tests/data/e2e_smoke_deterministic.json``; a change that
moves any of them regenerates the file and says why.

    python -m benchmarks.e2e --smoke --seed 0 --out OUT
    python benchmarks/check_e2e_deterministic.py OUT           # compare
    python benchmarks/check_e2e_deterministic.py OUT --write   # regenerate

Exits 1 and lists every difference when the run and the file disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator

EXPECTED = Path(__file__).resolve().parents[1] / "tests" / "data" / "e2e_smoke_deterministic.json"


def collect(out: Path) -> Dict[str, dict]:
    """Each workload's ``deterministic`` section from an e2e ``--out`` dir."""
    return {
        path.parent.name: json.loads(path.read_text())["deterministic"]
        for path in sorted(out.glob("*/results.json"))
    }


def differences(expected: Dict[str, dict], actual: Dict[str, dict]) -> Iterator[str]:
    for workload in sorted(set(expected) | set(actual)):
        if workload not in actual:
            yield f"{workload}: missing from the run"
        elif workload not in expected:
            yield f"{workload}: not in the committed file"
        else:
            want, got = expected[workload], actual[workload]
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    yield f"{workload}.{key}: committed {want.get(key)!r}, got {got.get(key)!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the --out directory of an e2e run")
    parser.add_argument(
        "--write", action="store_true", help="regenerate the expected file from the run"
    )
    args = parser.parse_args(argv)
    actual = collect(args.out)
    if not actual:
        print(f"no results.json under {args.out}", file=sys.stderr)
        return 1
    if args.write:
        EXPECTED.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} workloads to {EXPECTED}")
        return 0
    problems = list(differences(json.loads(EXPECTED.read_text()), actual))
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(actual)} workloads match {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
