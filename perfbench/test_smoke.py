"""Self-test of the benchmark at the smoke sizes (under a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced with all output checks and the
manifest replay; the printed metrics must be exactly those that
BENCHMARK.json declares. The remaining tests cover the failure paths:
a failed check, a manifest replay that writes nothing, halved shadow
estimates at the benchmark's own sizes, a tracer target that no longer
exists, and a directory without the program's sources.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 + 2 * trace  # + traced and memory ops
    assert "files rewritten byte-identical" in proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def _program():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    return run, run.import_program(), workloads


@pytest.fixture
def base():
    path = ROOT / ".perfbench" / "test-failure-paths"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _smoke_readout(workloads, base, tolerance):
    size = workloads.SIZES["smoke"]["readout_small"]
    reference = {"tolerance": {"readout_small": dict.fromkeys(
        workloads.ReadoutSmall.calls,
        dict.fromkeys(workloads.ERROR_FIGURES, tolerance))}}
    workload = workloads.ReadoutSmall(size, 5, base, reference)
    workload.make_inputs()
    return workload


def test_failed_check_is_reported(base):
    run, cli, workloads = _program()
    workload = _smoke_readout(workloads, base, 0.0)
    with run.HostReference() as reference:
        runner = run.Runner(cli, workload, base, reference)
        runner.run_op("first")
    assert runner.failed() == 1
    assert "worst element error" in runner.ops[0]["error"]


def test_replay_that_writes_nothing_fails(base):
    run, cli, workloads = _program()
    workload = _smoke_readout(workloads, base, math.inf)
    with run.HostReference() as reference:
        runner = run.Runner(cli, workload, base, reference)
        runner.run_op("first")
        runner.cli = types.SimpleNamespace(dispatch=lambda argv: 0)
        runner.replay_op()
    assert runner.failed() == 1
    assert "did not rewrite" in runner.ops[1]["error"]


def _scale_estimates(path, factor):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[2:4] = [repr(float(v) * factor) for v in row[2:4]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_halved_estimates_fail_the_scale_check(base):
    """At the benchmark's sizes and tolerances, a wrong normalization (every
    estimate halved) fails the fitted-scale check of every shadow call on
    its own, with the worst-element check switched off."""
    run, cli, workloads = _program()
    reference = workloads.load_reference()["full"]
    workload = workloads.ReadoutSmall(
        workloads.SIZES["full"]["readout_small"], 5, base, reference)
    workload.make_inputs()
    opdir = base / "op"
    opdir.mkdir()
    for _, argv, _ in workload.op_calls(0, opdir):
        assert cli.dispatch(argv) == 0
    workload.check(0, opdir, "")
    for label, tolerances in reference["tolerance"]["readout_small"].items():
        tolerances["worst"] = math.inf
        path = opdir / f"{label}.csv"
        original = path.read_bytes()
        _scale_estimates(path, 0.5)
        with pytest.raises(workloads.CheckFailed, match="fitted scale"):
            workload.check(0, opdir, "")
        path.write_bytes(original)


def test_missing_target_is_absent(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("fqlab.shadows", "no_such_helper"),
        ("fqlab.states", "FirstQuantizedState.no_such_method")))
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert set(trace.absent) == {"shadows.no_such_helper",
                                 "states.FirstQuantizedState.no_such_method"}


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
