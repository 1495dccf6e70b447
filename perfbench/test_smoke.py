"""Smoke test of the benchmark: a tiny size of every workload, both modes.

Run from the repository root with ``python -m pytest perfbench``.  Each
run must exit 0 and end with the result line, naming every metric of
``BENCHMARK.json`` for its mode with that metric's unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

#: Small enough for a few hundred milliseconds of serving per run.
TINY_SECONDS = "0.02"


def _run(workload, trace, cwd):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, tmp_path):
    done = _run(workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    if trace:
        assert list((tmp_path / ".perfbench").glob(f"trace-{workload}-*.layers.json"))


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-64b", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
