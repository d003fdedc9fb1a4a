"""Benchmark for robustloc: four seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 25 --trace 0

One caller in one process and one thread sends each op only after the
previous one has completed (a closed loop).  A run repeats whole passes over
the workload's fixed, seed-determined op list until ``--seconds`` of op time
have been measured, so every run of a seed does the same mix of work.
Every output is checked outside the timed region.  Times are reported at a
fixed reference speed of the host (see speed.py); their wall-clock readings
are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for half of ``--seconds``, then one pass with every traced
library function wrapped (see spans.py), and prints the per-layer metrics of
that pass; the spans are written to ``.perfbench_out/`` in the checkout.
The last line of standard output is one JSON object with the result.
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS pools from starting extra workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from speed import SpeedProbe
from workloads import DEFAULT_SEED, WORKLOADS, oracle_vectors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "robustloc"
OUT_DIR = ROOT / ".perfbench_out"

RUN_SECONDS = 25.0
SETUP_REPEATS = 7
# Stop starting passes once this much wall time has gone, whatever
# --seconds says, so a badly slowed program still ends within 180 s.
HARD_STOP_S = 120.0

# Nearest-rank tail percentile per workload.  Each leaves at least ten ops
# beyond it at the default run length of 25 s on a 2-core machine.  On
# experiment and audit the highest such percentiles (p98, p99) hold only
# one-off stalls and moved 12-24 % between runs of the same code, so p95 is
# used there (see meta.json).
TAIL_PERCENTILE = {"experiment": 95, "large": 80, "audit": 95, "oracle": 95}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

TRACED = (
    "core.validate_instance",
    "core.sorted_endpoints",
    "core.build_grid",
    "cli.random_instance",
    "cli.run_experiment",
    "cli.rows_to_csv",
    "optimal.solve_minimax_avgcost",
    "optimal.solve_minimax_maxcost",
    "optimal.breakpoint_state",
    "optimal.grid_search_minimax",
    "mechanisms.run_mechanism",
    "mechanisms.select_representative",
    "regret.avgcost_max_regret",
    "regret.maxcost_max_regret",
    "regret.agent_max_regret",
    "regret.brute_force_max_regret_batch",
    "dominance.check_minimax_dominance",
)

COUNTER_UNITS = {
    "optimal.breakpoints": "count",
    "regret.oracle_vectors": "count",
    "dominance.deviations": "count",
    "dominance.distinct_outcomes": "count",
    "dominance.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class LibraryMissing(RuntimeError):
    """The checkout holds no robustloc source to benchmark."""


def import_library():
    """Import robustloc afresh from the checkout's ``src/``."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no {PACKAGE} source at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    rl = importlib.import_module(PACKAGE)
    if Path(rl.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"{PACKAGE} imported from {rl.__file__}, not {init}")
    return rl


def set_up(name: str, seed: int, probe: SpeedProbe):
    """Import the library and build the workload, several times.

    Returns the last workload and the median set-up time, scaled to the
    reference speed, with the unscaled median.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        rl = import_library()
        workload = WORKLOADS[name](rl, seed)
        spans.append((t0, time.perf_counter()))
    probe.sample()
    return (
        workload,
        statistics.median(probe.scale(t0, t1) for t0, t1 in spans),
        statistics.median(t1 - t0 for t0, t1 in spans),
    )


class Phase:
    """Latencies and failures of the ops of one measured phase.

    ``latencies`` are wall seconds; ``scaled`` the same latencies at the
    reference speed (see speed.py), from which the metrics are computed.
    """

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.scaled: list[float] = []
        self.failures: list[str] = []
        self.passes = 0

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def op_seconds(self) -> float:
        return math.fsum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / math.fsum(self.scaled)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.latencies) / self.op_seconds


def measure(workload, probe: SpeedProbe, seconds: float | None = None,
            passes: int | None = None, tracer: Tracer | None = None) -> Phase:
    """Run whole passes until ``seconds`` of wall op time, or exactly ``passes``."""
    phase = Phase()
    wall0 = time.perf_counter()
    while (phase.op_seconds < seconds) if passes is None else (phase.passes < passes):
        for op in workload.ops:
            probe.refresh()
            if tracer is not None:
                tracer.op = len(phase.spans)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
                error = None
            except Exception as exc:  # any raise is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            phase.spans.append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    error = workload.check(op, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                phase.failures.append(error)
            probe.refresh()
        phase.passes += 1
        if time.perf_counter() - wall0 > HARD_STOP_S:
            break
    probe.sample()
    phase.scaled = [probe.scale(t0, t1) for t0, t1 in phase.spans]
    return phase


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100 * n))
    return sorted_values[rank - 1], n - rank


def end_to_end(name: str, phase: Phase, setup: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics, and for each time its wall-clock reading."""
    lat = sorted(phase.scaled)
    wall = sorted(phase.latencies)
    pct = TAIL_PERCENTILE[name]
    tail, beyond = nearest_rank(lat, pct)
    values = {
        "setup_s": setup[0],
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"wall {setup[1]:.6g} s",
        "ops_per_s": f"wall {phase.wall_ops_per_s:.6g} 1/s",
        "op_p50_ms": f"wall {statistics.median(wall) * 1e3:.6g} ms",
        "op_tail_ms": f"wall {nearest_rank(wall, pct)[0] * 1e3:.6g} ms; "
                      f"p{pct} of {len(lat)} ops, {beyond} beyond",
    }
    return values, notes


def per_layer(tracer: Tracer, brute_calls: list, untraced: Phase, traced: Phase) -> dict:
    """Per-layer metrics of the traced pass; counters come from the spans
    and the recorded arguments and return values, after the pass."""
    values = {}
    for name, (calls, self_s) in tracer.per_function().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    a = tracer.arrays()
    func, parent, value = a["func"], a["parent"], a["value"]
    index = {name: i for i, name in enumerate(tracer.names)}
    parent_func = np.where(parent >= 0, func[np.maximum(parent, 0)], -1)
    audit = index["dominance.check_minimax_dominance"]
    in_audit = parent_func == audit
    regret_calls = int(np.sum(in_audit & (func == index["regret.agent_max_regret"])))
    deviations = regret_calls - int(np.sum(func == audit))
    reps = in_audit & (func == index["mechanisms.select_representative"])
    distinct = np.unique(np.stack([parent[reps].astype(float), value[reps]]), axis=1)
    breakpoints = value[func == index["optimal.breakpoint_state"]]
    values["optimal.breakpoints"] = int(np.nansum(breakpoints))
    values["regret.oracle_vectors"] = sum(
        oracle_vectors(b["instance"], b["step"])
        for b in (
            tracer.bound_arguments("regret.brute_force_max_regret_batch", *call)
            for call in brute_calls
        )
    )
    values["dominance.deviations"] = deviations
    values["dominance.distinct_outcomes"] = distinct.shape[1]
    values["dominance.useful_ratio"] = distinct.shape[1] / deviations if deviations else 0.0
    values["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    return values


def per_layer_units() -> dict:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


def new_tracer() -> tuple[Tracer, list]:
    """A tracer over TRACED, and the list its hook fills with the arguments
    of every brute-force call that returned."""
    brute_calls: list = []
    tracer = Tracer(
        PACKAGE,
        TRACED,
        hooks={
            "optimal.breakpoint_state": lambda a, k, r: len(r.H),
            "mechanisms.select_representative": lambda a, k, r: r,
            "regret.brute_force_max_regret_batch":
                lambda a, k, r: brute_calls.append((a, k)),
        },
    )
    return tracer, brute_calls


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probe = SpeedProbe()
    workload, *setup = set_up(name, seed, probe)
    print(
        f"perfbench {name} seed={seed} trace={int(trace)} python={platform.python_version()} "
        f"numpy={np.__version__} nproc={os.cpu_count()}; times at reference speed (speed.py)"
    )
    if not trace:
        phase = measure(workload, probe, seconds=seconds)
        values, notes = end_to_end(name, phase, setup)
        units = END_TO_END_UNITS
        phases = [phase]
    else:
        untraced = measure(workload, probe, seconds=seconds / 2)
        tracer, brute_calls = new_tracer()
        tracer.install()
        try:
            traced = measure(workload, probe, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(tracer, brute_calls, untraced, traced)
        units = per_layer_units()
        phases = [untraced, traced]
        notes = {}
        self_total = float(np.sum(tracer.self_ns())) / 1e9
        tracer.write(
            OUT_DIR / f"spans-{name}.npz",
            seed=seed,
            traced_op_seconds=traced.op_seconds,
            self_seconds=self_total,
        )
    attempted = sum(len(p.spans) for p in phases)
    failures = [f for p in phases for f in p.failures]
    op_s = sum(p.op_seconds for p in phases)
    print(f"  {attempted} ops in {sum(p.passes for p in phases)} passes, {op_s:.2f} s of op time")
    for metric, unit in units.items():
        extra = f" ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:42s} {values[metric]:.6g} {unit}{extra}")
    print(f"  {'fail_ratio':42s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed)")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
