"""Smoke check of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload briefly, traced and untraced, and checks that every
metric named in BENCHMARK.json is printed with its unit, that the output
checks ran and passed, and that the benchmark refuses to run without the
package sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# wide_cohort runs by hand only (see README.md), but stays checked here
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["wide_cohort"]


def run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_printed_with_units_and_checks_run(workload, trace):
    lines, result = result_of(run(workload, trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(m["unit"])
                   for line in lines)
    checks = next(line for line in lines if line.startswith("checks: "))
    assert "activation_counts=PASS" in checks and "deterministic=PASS" in checks
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "shared_services":
        assert any(line.startswith("unified vs per_service: ") for line in lines)
    else:
        assert "fault_avoidance=PASS" in checks
        assert result["failed"] == 0
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[name] for name in SELF_TIME_METRICS)
        assert layers == pytest.approx(metrics["pipeline.cycle.ms"], rel=1e-6)


def test_same_seed_gives_same_digest():
    digests = set()
    for _ in range(2):
        lines, _ = result_of(run("shared_services", 0, seed=11))
        digests.add(next(line for line in lines if line.startswith("digest: ")))
    assert len(digests) == 1


def test_shared_services_reports_cache_key_mismatches():
    lines, result = result_of(run("shared_services", 0))
    differ = next(line for line in lines if line.startswith("unified vs per_service: "))
    assert int(re.search(r"(\d+) of", differ).group(1)) == result["failed"] > 0
    ratio = result["metrics"]["ok_activation_ratio"]["value"]
    assert ratio == (result["attempted"] - result["failed"]) / result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("fault_long", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
