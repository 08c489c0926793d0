"""Tests of the benchmark harness (separate from the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

# A small slice of each workload that still reaches every traced layer:
# R(6,3,4) goes through ssc_from_bibd, whose input check imports certify at
# call time; R(4,2,10) and C(2,1,7) are orthoplex codes; R(6,6,4) raises.
SLICES = {
    "search": {"R(2,1,5)"},
    "sweep": {"R(6,3,4)", "C(2,2,5)", "R(3,1,5)", "C(2,1,7)", "R(4,2,10)", "R(6,6,4)"},
    "files": {"soc_real_hadamard(16,8)"},
}


@pytest.fixture(scope="module")
def sc():
    return wl.import_library()


def test_tracing_keeps_outputs_and_sees_every_span(sc, tmp_path):
    tr = Tracer()
    for name, keys in SLICES.items():
        workload = wl.WORKLOADS[name](sc, 3, tmp_path)
        plain = wl.measure(workload, 0, wl.Tally(), keys)
        with tr:
            traced = wl.measure(workload, 0, wl.Tally(), keys)
        assert traced.stamps == plain.stamps, name
        assert set(traced.stamps) == keys - {"R(6,6,4)"}
    for span in SPAN_NAMES:
        assert tr.calls[span] > 0 and tr.self_s[span] > 0, span
    callers = {parent for span, parent in tr.parents if span == "verify.certify"}
    # through atlas's and optimize's import-time bindings, simplex's
    # call-time import, and the package attribute
    assert {"atlas.best_exact", "optimize.optimize", "simplex.construct", None} <= callers
    # self times partition the top-level spans
    assert math.isclose(math.fsum(tr.self_s.values()), tr.top_s, rel_tol=1e-9)
    # leaving the tracer restores every binding
    for module in ("stiefelcodes", "stiefelcodes.atlas", "stiefelcodes.optimize", "stiefelcodes.verify"):
        assert not hasattr(sys.modules[module].certify, "__wrapped__")
    assert not hasattr(sc.StiefelCode.max_stiefel_error, "__wrapped__")


def _duplicate_point(sc, code):
    arr = code.array.copy()
    arr[1] = arr[0]
    return sc.StiefelCode(code.field, arr)


def _scale_point(sc, code):
    arr = code.array.copy()
    arr[0] *= 1.001
    return sc.StiefelCode(code.field, arr)


@pytest.mark.parametrize("corrupt", [_duplicate_point, _scale_point])
def test_corrupted_sweep_code_is_a_failure(sc, tmp_path, corrupt):
    workload = wl.Sweep(sc, 0, tmp_path)
    call = workload.call

    def corrupted(*args):
        code, report, prov = call(*args)
        return corrupt(sc, code), report, prov

    workload.call = corrupted
    tally = wl.Tally()
    wl.measure(workload, 0, tally, {"R(6,3,4)", "C(2,1,7)"})
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 2)


def test_corrupted_file_is_a_failure(sc, tmp_path):
    workload = wl.Files(sc, 0, tmp_path)
    call = workload.call

    def corrupted(*args):
        text, parsed, report = call(*args)
        return text, _scale_point(sc, parsed), report

    workload.call = corrupted
    tally = wl.Tally()
    wl.measure(workload, 0, tally, SLICES["files"])
    assert (tally.failed, tally.wrong) == (1, 1)


def test_raised_error_is_a_failure_and_not_skipped(sc, tmp_path):
    workload = wl.Sweep(sc, 0, tmp_path)

    def raising(*args):
        raise sc.errors.InvalidParameter("legal tuple refused")

    workload.call = raising
    tally = wl.Tally()
    measured = wl.measure(workload, 0, tally, {"R(2,1,3)"})
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert measured.ratios == {"R(2,1,3)": 0.0}


def test_repeat_that_differs_is_a_failure(sc, tmp_path):
    workload = wl.Sweep(sc, 0, tmp_path)
    call = workload.call
    runs = []

    def drifting(*args):
        code, report, prov = call(*args)
        runs.append(1)
        return code, report, prov + "x" * len(runs)

    workload.call = drifting
    tally = wl.Tally()
    wl.measure(workload, 3 * wl.Sweep.PASS_S, tally, {"R(2,1,3)"})
    assert (tally.attempted, tally.failed) == (3, 2)


def test_sweep_op_count_does_not_depend_on_speed(sc, tmp_path):
    workload = wl.Sweep(sc, 0, tmp_path)
    call = workload.call

    def slow(*args):
        time.sleep(0.01)
        return call(*args)

    keys = {"R(2,1,3)", "R(6,6,4)"}
    counts = []
    for fn in (call, slow):
        workload.call = fn
        tally = wl.Tally()
        wl.measure(workload, 2 * wl.Sweep.PASS_S, tally, keys)
        counts.append((tally.attempted, tally.failed))
    assert counts == [(4, 2), (4, 2)]


def test_every_pause_runs_once(sc, tmp_path):
    workload = wl.Sweep(sc, 0, tmp_path)
    paused = []
    # eight passes of one cheap tuple end long before any pause is due
    wl.measure(workload, 60.0, wl.Tally(), {"R(2,1,3)"}, pauses=[lambda: paused.append(1)] * 3)
    assert paused == [1, 1, 1]


def test_tail_needs_ten_samples_beyond():
    assert wl.tail(range(1, 101)) == ("p90", 90)
    assert wl.tail(range(1, 1001)) == ("p99", 990)
    assert wl.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_refuses_backend_overrides(monkeypatch, capsys):
    monkeypatch.setenv("STIEFEL_THREADS", "2")
    assert run.main(["--workload", "files", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "files", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_matches_benchmark_json(trace):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = declared["per_layer" if trace == "1" else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "files", "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
