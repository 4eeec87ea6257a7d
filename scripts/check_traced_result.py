#!/usr/bin/env python3
"""Check the output of one traced benchmark run, read from standard input.

    python3 perfbench/run.py --workload desk_weighting --seed 1009 --seconds 0 --trace 1 \
        | python3 scripts/check_traced_result.py

Echoes the output, then exits 1 unless no line reports an ``absent:`` layer,
the last line is strict JSON (no NaN or infinity) with ``"correct": true``
and ``"failed": 0``, and its metric names are exactly the ``per_layer`` names
of ``BENCHMARK.json``. A wrapped function that was renamed, or never called,
drops its layer metrics from the result, and this check then names them.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the result line")


def problems(lines: list[str]) -> list[str]:
    found = [f"layer reported {line}" for line in lines if line.startswith("absent:")]
    if not lines:
        return found + ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=reject_constant)
    except ValueError as exc:
        return found + [f"last line is not a strict JSON result: {exc}"]
    if not isinstance(result, dict):
        return found + ["last line is not a JSON object"]
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append("result is not correct with 0 failed")
    expected = {metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]}
    got = set(result.get("metrics", {}))
    if got != expected:
        found.append(f"metrics missing: {sorted(expected - got)}, "
                     f"unexpected: {sorted(got - expected)}")
    return found


def main() -> int:
    text = sys.stdin.read()
    sys.stdout.write(text)
    found = problems(text.splitlines())
    for problem in found:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
