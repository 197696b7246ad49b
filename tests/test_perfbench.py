"""The benchmark's self-test and the in-process A/B tool run in the test
suite, so a change to the public API that they call fails here and not
only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest passed" in result.stdout.splitlines()


def test_the_ab_tool_times_one_tree_against_itself():
    result = subprocess.run(
        [sys.executable, "tools/abtest.py", ".", ".", "--workload", "fit_reduce", "--seed", "1",
         "--rounds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert (report["workload"], report["rounds"], report["items_per_round"]) == ("fit_reduce", 2, 8)
    assert (report["failed_checks"], report["outputs_equal"]) == (0, True)
    assert report["parent_us"] > 0.0 and report["change_us"] > 0.0
    assert report["change_faster_in"] in ("0/2", "1/2", "2/2")
