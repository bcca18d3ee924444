"""The result line carries exactly the metrics ``BENCHMARK.json`` names."""

import json
import os

import pytest

from hpbench import runner

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}


def test_untraced_result_line_matches_end_to_end(bench):
    lines = []
    result = runner.untraced("respond", 1, 0.2, lines.append)
    _check_metrics(result, bench["end_to_end"])
    assert result["metrics"]["setup_s"]["value"] > 0
    assert any("time_to_patch_ms.tail" in line for line in lines)


def test_traced_result_line_matches_per_layer(bench, tmp_path):
    lines = []
    result = runner.traced("respond", 1, 0.3, str(tmp_path), lines.append)
    _check_metrics(result, bench["per_layer"])
    assert result["metrics"]["shadow.replays"]["value"] == 30
    trace = json.loads((tmp_path / "trace-respond.json").read_text())
    assert trace["traceEvents"]
    assert any("host self share" in line for line in lines)
