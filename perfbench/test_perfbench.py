"""Tests of the benchmark itself: tiny-input smokes and the output check.

Run from the repository root:

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import CheckFailed, check_partition  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]


def test_benchmark_json_workloads_exist():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_emits_every_end_to_end_metric(workload):
    proc, result = _run("--workload", workload, "--seed", "3",
                        "--seconds", "0.1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_smoke_emits_every_per_layer_metric(workload):
    proc, result = _run("--workload", workload, "--seed", "3",
                        "--seconds", "0.1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    if WORKLOADS[workload].method == "ParMetis-like":
        # the control workload bypasses embed and geometric entirely
        assert metrics["embed.span_s"]["value"] == 0
        assert metrics["embed.bh_calls"]["value"] == 0
        assert metrics["geometric.span_s"]["value"] == 0
    else:
        assert metrics["embed.span_s"]["value"] > 0
    assert metrics["parallel.spmd_s"]["value"] > 0


# -- the independent output check ----------------------------------------

def _path_graph(n: int):
    """CSR arrays of the path 0-1-...-(n-1), both directions stored."""
    nbrs = [[v for v in (u - 1, u + 1) if 0 <= v < n] for u in range(n)]
    indptr = np.cumsum([0] + [len(x) for x in nbrs])
    indices = np.array([v for x in nbrs for v in x])
    return indptr, indices, np.ones(n)


def test_check_recomputes_cut_and_weights():
    indptr, indices, vwgt = _path_graph(6)
    checked = check_partition(indptr, indices, vwgt,
                              np.array([0, 0, 0, 1, 1, 1]), 2, 0.0)
    assert checked.cut == 1
    assert checked.part_weights.tolist() == [3.0, 3.0]
    checked = check_partition(indptr, indices, vwgt,
                              np.array([0, 1, 0, 1, 0, 1]), 2, 0.0)
    assert checked.cut == 5


@pytest.mark.parametrize("labels, k, bound", [
    ([0, 0, 0, 1, 1, 2], 2, None),     # label outside [0, k)
    ([0, 0, 0, 0, 0, -1], 2, None),    # negative label
    ([0, 0, 0, 0, 0, 0], 2, None),     # empty part
    ([0, 0, 0, 0, 1, 1], 2, 0.15),     # imbalance 1/3 > 0.15
    ([0, 0, 0, 1, 1], 2, None),        # wrong length
    ([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2, None),  # not integer labels
])
def test_check_rejects_corrupted_partitions(labels, k, bound):
    indptr, indices, vwgt = _path_graph(6)
    with pytest.raises(CheckFailed):
        check_partition(indptr, indices, vwgt, np.array(labels), k, bound)


def test_corrupted_partition_counts_as_failure(monkeypatch, capsys):
    """A returned partition with a label outside [0, k) is counted as a
    failed operation, and the command exits non-zero."""
    import repro.core.parallel
    import run

    original = repro.core.parallel.run_parallel

    def corrupting(*args, **kwargs):
        result = original(*args, **kwargs)
        side = np.array(result.bisection.side)
        side[0] = 2
        result.bisection = SimpleNamespace(side=side)
        return result

    monkeypatch.setattr(repro.core.parallel, "run_parallel", corrupting)
    code = run.main(["--workload", "delaunay-parmetis", "--seed", "1",
                     "--seconds", "0.1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    # every run_parallel call was corrupted; the sequential ones were not
    assert result["failed"] >= 2
    assert result["failed"] < result["attempted"]
