"""Smoke run of the benchmark harness: one short measured window per
workload, so a change that breaks the harness, its loss and gradient
reference checks, or the ops it times fails here rather than in a
benchmark run. Each run takes a few seconds."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")


@pytest.mark.parametrize("workload", ["parse-long-mf", "train-long-lbp", "train-short-full"])
def test_benchmark_workload_passes_its_reference_checks(tmp_path, workload):
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, WORKER, "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--mode", "measure", "--out", str(out)],
                   check=True, timeout=300)
    result = json.loads(out.read_text())
    assert result["reference"]["ok"], result["reference"]["mismatches"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
