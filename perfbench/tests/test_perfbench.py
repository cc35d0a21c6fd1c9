"""Tests of the pipeline benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The smoke runs use ``--size smoke`` (tiny grids, ~1 s of passes) and write
only under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = os.path.join(ROOT, ".perfbench", "test-tmp")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    cmd = [sys.executable, script or os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def scratch():
    path = os.path.join(SCRATCH, "unit")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS["smoke"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + 2 * (1 + trace)
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if trace:
        run_dir = os.path.join(ROOT, ".perfbench", "runs", f"smoke-{workload}-trace1")
        with open(os.path.join(run_dir, "spans.jsonl")) as fh:
            recorded = [json.loads(line) for line in fh]
        assert {"name", "start", "end", "parent", "pass"} <= set(recorded[0])
        for pass_id in {s["pass"] for s in recorded}:
            assert spans.tiling_errors([s for s in recorded if s["pass"] == pass_id]) == []
        assert "tracing overhead" in proc.stdout
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_catalogue_matches_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS["full"])
    assert set(metrics.MOVES) == {m["name"] for m in spec["per_layer"]}
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_every_name_and_unit_is_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m["unit"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS["smoke"])
def test_oracle_rejects_a_perturbed_output(workload, scratch):
    wl = workloads.WORKLOADS["smoke"][workload]
    inputs = os.path.join(scratch, "inputs")
    os.makedirs(inputs)
    workloads.generate(wl, 5, inputs)
    run = workloads.runner(wl, inputs, scratch)
    run.run_pass(lambda name: nullcontext())
    voxels = oracle.sample_voxels(run.voxels, 5, 0)
    raw, got = run.sample(voxels)
    ref = oracle.rebuild(run.chain, raw)
    assert oracle.compare(got, ref, run.tolerance).ok
    bad = got.copy()
    bad[len(voxels) // 2, 7] += 1e-4
    assert not oracle.compare(bad, ref, run.tolerance).ok
    bad = got.copy()
    bad[0, 0] = np.nan
    assert not oracle.compare(bad, ref, run.tolerance).ok
    run.release()


def test_tiling_check_catches_escaping_and_overlapping_spans():
    good = [
        {"id": 0, "name": spans.ROOT, "parent": None, "pass": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "cli.lsc", "parent": 0, "pass": 1, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "lsc.lsc_forward", "parent": 1, "pass": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "cli.sh2signal", "parent": 0, "pass": 1, "start": 5.0, "end": 9.0},
    ]
    assert spans.tiling_errors(good) == []
    own = spans.self_times(good)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    escaping = [dict(s) for s in good]
    escaping[2]["end"] = 4.5
    assert spans.tiling_errors(escaping)
    overlapping = [dict(s) for s in good]
    overlapping[3]["start"] = 3.5
    assert spans.tiling_errors(overlapping)


def test_exits_nonzero_without_the_package_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    try:
        proc = _run("brain-nii", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
