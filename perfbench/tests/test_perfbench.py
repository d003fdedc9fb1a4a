"""Tests of the benchmark itself: runs, output checks and the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((BENCH / "meta.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def rl():
    return run.import_library()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"  {name} " in proc.stdout
    assert "fail_ratio" in proc.stdout and "(0 of" in proc.stdout
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "experiment", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_code_agrees_with_benchmark_json_and_meta():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    assert META["default_seed"] == workloads.DEFAULT_SEED
    for name, spec in META["workloads"].items():
        assert spec["tail_percentile"] == run.TAIL_PERCENTILE[name]


# -- each checker flags a corrupted output ---------------------------------


def test_experiment_check_flags_corruption(rl):
    wl = workloads.Experiment(rl, workloads.DEFAULT_SEED)
    op = wl.ops[0]
    good = wl.run(op)
    assert wl.check(op, good) is None

    rows, csv = good["avg"]
    wrong_omv = [dataclasses.replace(rows[0], omv=rows[0].max_regret + 0.1)] + rows[1:]
    assert "below omv" in wl.check(op, {"avg": (wrong_omv, csv)})
    out_of_bound = [dataclasses.replace(rows[1], within_bound=False)] + rows[1:]
    assert "exceeds its bound" in wl.check(op, {"avg": (out_of_bound, csv)})

    flipped = csv[:-2] + chr(ord(csv[-2]) ^ 1) + csv[-1]
    assert "differs from the first run" in wl.check(op, {"avg": (rows, flipped)})

    fresh = workloads.Experiment(rl, workloads.DEFAULT_SEED)
    assert "recorded digest" in fresh.check(op, {"avg": (rows, flipped)})


def test_large_check_flags_corruption(rl):
    wl = workloads.Large(rl, 3)
    op = wl.ops[0]
    inst, avg, mx, median_regret, phantom_regret = out = wl.run(op)
    assert wl.check(op, out) is None
    moved = dataclasses.replace(avg, p_opt=2.0)
    assert "outside [L_k+1" in wl.check(op, (inst, moved, mx, median_regret, phantom_regret))
    shifted = dataclasses.replace(mx, p_opt=mx.p_opt + 1e-6)
    assert "(L1+R1+Ln+Rn)/4" in wl.check(op, (inst, avg, shifted, median_regret, phantom_regret))
    far = dataclasses.replace(median_regret, value=avg.omv + op[1])
    assert "avg gap" in wl.check(op, (inst, avg, mx, far, phantom_regret))


def test_audit_check_flags_corruption(rl):
    wl = workloads.Audit(rl, 3)
    clean = wl.ops[0]
    attack = next(op for op in wl.ops if op[0] == "attack")
    report = wl.run(clean)
    assert wl.check(clean, report) is None
    flipped = dataclasses.replace(report, violated=True, gain=0.01)
    assert "clean audit" in wl.check(clean, flipped)
    found = wl.run(attack)
    assert wl.check(attack, found) is None
    missed = dataclasses.replace(found, violated=False, gain=0.0)
    assert "not reported as violated" in wl.check(attack, missed)


def test_oracle_check_flags_corruption(rl):
    wl = workloads.Oracle(rl, 3)
    small = next(op for op in wl.ops if op[0].n == 3)
    wide = wl.ops[-1]
    assert workloads.oracle_vectors(wide[0], workloads.ORACLE_STEP) > rl.ORACLE_CAP

    out = wl.run(small)
    assert wl.check(small, out) is None
    (brute, _, swept), mx = out
    off = [brute[0] + 0.05] + brute[1:]
    assert "brute force" in wl.check(small, [(off, None, swept), mx])
    assert "refused" in wl.check(small, [(None, rl.OracleScaleError("cap"), swept), mx])
    bad_sweep = dataclasses.replace(swept, omv=swept.omv + 0.01)
    assert "grid search" in wl.check(small, [(brute, None, bad_sweep), mx])

    out = wl.run(wide)
    assert all(isinstance(refused, rl.OracleScaleError) for _, refused, _ in out)
    assert wl.check(wide, out) is None
    assert "not refused" in wl.check(wide, [([0.0] * 5, None, out[0][2]), out[1]])


# -- the tracer ------------------------------------------------------------


def traced_pass(rl, workload):
    tracer, _ = run.new_tracer()
    tracer.install()
    try:
        assert rl.cli.solve_minimax_avgcost is not tracer.originals[
            run.TRACED.index("optimal.solve_minimax_avgcost")]
        phase = run.measure(workload, run.SpeedProbe(), passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, phase


def test_self_times_are_nonnegative_and_within_wall_time(rl):
    wl = workloads.Audit(rl, 5)
    wl.ops = wl.ops[:6]
    tracer, phase = traced_pass(rl, wl)
    assert not phase.failures
    self_ns = tracer.self_ns()
    assert len(self_ns) > 0 and (self_ns >= 0).all()
    assert self_ns.sum() / 1e9 <= phase.op_seconds
    calls = tracer.per_function()
    assert calls["dominance.check_minimax_dominance"][0] == 6
    assert calls["regret.agent_max_regret"][0] > calls["dominance.check_minimax_dominance"][0]


def test_tracer_wraps_every_binding_and_restores_them(rl):
    original = rl.optimal.sorted_endpoints
    wl = workloads.Experiment(rl, 5)
    tracer, phase = traced_pass(rl, wl)
    assert not phase.failures
    assert rl.optimal.sorted_endpoints is original
    assert rl.regret.sorted_endpoints is original and rl.sorted_endpoints is original
    calls = tracer.per_function()
    # Library-internal calls are seen, not only the benchmark's own.
    assert calls["optimal.breakpoint_state"][0] == 8
    assert calls["core.sorted_endpoints"][0] > 8
    values = tracer.arrays()["value"]
    assert (values[tracer.arrays()["func"] == run.TRACED.index("optimal.breakpoint_state")] >= 1).all()
