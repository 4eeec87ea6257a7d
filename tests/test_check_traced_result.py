import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("check_traced_result",
                                              ROOT / "scripts" / "check_traced_result.py")
check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check)

METRICS = [metric["name"]
           for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def result_line(**changes) -> str:
    result = {"workload": "desk_weighting", "correct": True, "failed": 0,
              "metrics": {name: 1.0 for name in METRICS}}
    result.update(changes)
    return json.dumps(result)


def test_a_complete_result_line_has_no_problems():
    assert check.problems(["traced pass 1", result_line()]) == []


@pytest.mark.parametrize("lines, expected", [
    (["absent: localization.nms_s (never called)", result_line()],
     "layer reported absent: localization.nms_s"),
    ([result_line(metrics={**{name: 1.0 for name in METRICS}, METRICS[0]: float("nan")})],
     "last line is not a strict JSON result: non-finite number NaN"),
    ([result_line(metrics={name: 1.0 for name in METRICS[1:]})],
     f"metrics missing: {[METRICS[0]]}, unexpected: []"),
    ([result_line(correct=False)], "result is not correct with 0 failed"),
    ([], "no output"),
], ids=["absent_layer", "nan", "missing_metric", "not_correct", "empty"])
def test_each_fault_is_named(lines, expected):
    found = check.problems(lines)
    assert len(found) == 1 and found[0].startswith(expected), found
