"""Smoke tests of the benchmark: every workload at the tiny ``--smoke`` size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in expected} == set(result["metrics"])
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_detail_records_machine_facts():
    done = _run(ROOT, "--workload", WORKLOADS[0], "--seed", "7", "--seconds", "0", "--smoke")
    detail = json.loads(done.stdout.strip().splitlines()[-2])["detail"]
    assert detail["failed_ratio"] == 0
    machine = detail["machine"]
    for key in ("nproc", "blas", "blas_version", "blas_threads", "python", "numpy", "commit"):
        assert key in machine
    assert machine["nproc"] >= 1
    for name in ("wall_s", "setup_s"):
        assert detail["summary"][name]["n"] >= 1


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_checks_catch_a_wrong_weight_and_a_wrong_order(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from risknet.cli import main

    prepared = workloads.prepare("full-observed", workloads.SIZES["smoke"], 7, tmp_path)
    out = tmp_path / "out"
    (args,) = prepared.commands(out)
    assert main(args) == 0
    assert prepared.check(out) == []

    network = out / "networks" / "window_1.json"
    payload = json.loads(network.read_text(encoding="utf-8"))
    payload["edges"][0][2] *= 0.99
    network.write_text(json.dumps(payload), encoding="utf-8")
    ranking = out / "rankings" / "all-periods.csv"
    header, first, second, *rest = ranking.read_text(encoding="utf-8").splitlines(keepends=True)
    ranking.write_text("".join([header, second, first, *rest]), encoding="utf-8")

    problems = prepared.check(out)
    assert any(p.startswith("networks/window_1.json: a weight") for p in problems), problems
    assert any(p.startswith("all-periods.csv: rank 1") for p in problems), problems
