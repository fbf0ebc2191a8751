"""Smoke self-test of the benchmark on toy6/gpt8 chains (seconds to run).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# disjoint calls inside one madpipe() run
LEAF_LAYERS = ("madpipe_dp.search", "madpipe_dp.contig", "ilp", "onef1b",
               "zero_bubble", "robust.certify")


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_same_seed_reproduces_period_geomean():
    first = _run("sweep-roomy", 1, seed=7)["metrics"]["period_geomean_s"]
    again = _run("sweep-roomy", 1, seed=7)["metrics"]["period_geomean_s"]
    assert first["value"] == again["value"] > 0


@pytest.mark.parametrize("cls", [workloads.PlanTight, workloads.SweepRoomy,
                                 workloads.ServeZipf])
def test_layer_busy_never_exceeds_wall(cls):
    wl = cls(5, smoke=True)
    wl.setup()
    with LayerTrace() as probe:
        pass  # entering and leaving restores every patched name
    trace = LayerTrace()
    out = wl.measure(0.5, trace)
    assert not trace._saved and not probe._saved
    leaves = sum(trace.busy[name] for name in LEAF_LAYERS)
    assert leaves <= out.wall_s
    if trace.calls["harness.madpipe"]:
        assert leaves <= trace.busy["harness.madpipe"] <= out.wall_s
    assert trace.busy["serve.decode"] <= out.wall_s


def test_check_rejects_a_reply_with_an_altered_period():
    wl = workloads.ServeZipf(2, smoke=True)
    wl.setup()
    out = wl.measure(0.5)
    victim = out.attempts[-1]
    victim.result.result.period *= 1.001
    wl.check([out])
    assert victim.error is not None
    assert sum(a.error is not None for a in out.attempts) == 1


def test_check_rejects_a_plan_with_an_altered_period():
    wl = workloads.PlanTight(2, smoke=True)
    wl.setup()
    out = wl.measure(0.1, passes=1)
    out.attempts[0].result.period *= 1.001
    wl.check([out])
    assert "not the pattern's" in out.attempts[0].error


def test_refuses_to_run_without_the_planner(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
