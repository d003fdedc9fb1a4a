"""The benchmark's four workloads: inputs, one op, and its output check.

A workload is built from the library module and a seed; building it is
the set-up the benchmark times.  ``ops`` is the fixed, seed-determined op
list of one pass.  ``run(op)`` performs one op through the package's
public functions, resolved at call time, so the traced run sees every
call.  ``check(op, output)`` returns ``None`` for a correct output or a
one-line description of what is wrong; it runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

B = 1.0
DEFAULT_SEED = 190509230
TOL = 1e-9

# experiment: the main user path, a seeded batch emitted as CSV.
EXPERIMENT_N = (3, 9, 51, 501)
EXPERIMENT_DELTAS = (0.1, 0.3)
# sha256 of each config's CSV at DEFAULT_SEED, recorded when the benchmark
# was defined; experiment CSVs must stay byte-identical.
EXPERIMENT_DIGESTS = {
    "avg": "c212f8686840801cb27223085668731f1fb640b97b9da7660d72c0dedde58b52",
    "max": "3373006be41e3de3c0d2aa1b3aef1280c5f3aa3f8c60ee37eb2661da32870aef",
}

# large: per-element cost on one big profile.
LARGE_N = 20_000
LARGE_DELTAS = (0.05, 0.3)
LARGE_OPS = 4

# audit: the criterion-6 mix, plus fine-grid attacks that must be caught.
AUDIT_N = (1, 3, 5, 7)
AUDIT_DELTAS = (0.1, 0.2, 0.3)
AUDIT_INSTANCES = 12
AUDIT_ATTACK_EVERY = 32
AUDIT_ATTACK_N = (3, 5, 7)

# oracle: brute-force and grid-search cross-checks over the criterion-1 mix.
# Brute-force cost grows with the product of the agents' lattice sizes, so a
# few instances dominate; seed-drawn instances moved a pass's total work by
# 35-60 % (quartile spread over 20 seeds), far beyond any usable bound.  The
# instances therefore come from one fixed pool seed; the run seed draws the
# evaluation points and one instance that must be refused.
ORACLE_N = (1, 3, 5)
ORACLE_DELTAS = (0.05, 0.1, 0.3)
ORACLE_POOL_SEED = 20250809
ORACLE_POOL = 72
ORACLE_POINTS = 5
ORACLE_STEP = 0.01
ORACLE_GRID_STEP = 1e-3
ORACLE_REFUSAL_N = 5
ORACLE_REFUSAL_DELTA = 0.3


def lattice_points(a: float, b: float, step: float) -> int:
    """Points of [a, b] at pitch ``step``, both endpoints included.

    Computed by the benchmark from the widths, mirroring the oracle's own
    discretization, so the expected refusal and the ``regret.oracle_vectors``
    counter need no library call.
    """
    if b <= a:
        return 1
    m = math.floor((b - a) / step + 1e-9)
    return m + 1 + (1 if b - (a + step * m) > step * 1e-9 else 0)


def oracle_vectors(instance, step: float) -> int:
    return math.prod(lattice_points(iv.a, iv.b, step) for iv in instance.agents)


def _csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Experiment:
    """One op runs the avg config, then the max config, through
    ``run_experiment`` + ``rows_to_csv``: one trial, 16 rows each."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        self.seed = seed
        cells = dict(
            trials=1, n_values=EXPERIMENT_N, B=B, delta_values=EXPERIMENT_DELTAS
        )
        self.configs = {
            "avg": rl.ExperimentConfig(
                seed=seed,
                objective=rl.Objective.AVG_COST,
                mechanisms=(
                    {"kind": "equispaced-median"},
                    {"kind": "constant", "location": B / 2},
                ),
                **cells,
            ),
            "max": rl.ExperimentConfig(
                seed=seed + 1,
                objective=rl.Objective.MAX_COST,
                mechanisms=(
                    {"kind": "equispaced-phantom-half"},
                    {"kind": "constant", "location": B / 2},
                ),
                **cells,
            ),
        }
        self.ops = [tuple(self.configs)]
        self.first_csv: dict[str, str] = {}

    def run(self, op):
        rl = self.rl
        out = {}
        for key in op:
            rows = rl.run_experiment(self.configs[key])
            out[key] = (rows, rl.rows_to_csv(rows))
        return out

    def check(self, op, out):
        for key, (rows, csv) in out.items():
            expected_rows = len(EXPERIMENT_N) * len(EXPERIMENT_DELTAS) * 2
            if len(rows) != expected_rows:
                return f"{key}: {len(rows)} rows, expected {expected_rows}"
            for r in rows:
                if not r.within_bound:
                    return f"{key}: row n={r.n} delta={r.delta} {r.mechanism} exceeds its bound"
                if not r.max_regret >= r.omv - 1e-12:
                    return f"{key}: row n={r.n} delta={r.delta} max_regret below omv"
            first = self.first_csv.setdefault(key, csv)
            if csv != first:
                return f"{key}: CSV differs from the first run of the same config"
            if self.seed == DEFAULT_SEED and _csv_digest(csv) != EXPERIMENT_DIGESTS[key]:
                return f"{key}: CSV sha256 differs from the recorded digest"
        return None


class Large:
    """One op solves one n = 20 000 profile end to end."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        seeds = np.random.default_rng(seed).integers(0, 2**32, size=LARGE_OPS)
        self.ops = [
            (int(s), LARGE_DELTAS[i % len(LARGE_DELTAS)]) for i, s in enumerate(seeds)
        ]
        kinds = rl.MechanismKind
        self.specs = {
            d: (
                rl.MechanismSpec(kinds.EQUISPACED_MEDIAN, B=B, delta=d),
                rl.MechanismSpec(kinds.EQUISPACED_PHANTOM_HALF, B=B, delta=d),
            )
            for d in LARGE_DELTAS
        }

    def run(self, op):
        rl = self.rl
        instance_seed, delta = op
        inst = rl.random_instance(LARGE_N, B, delta, instance_seed)
        avg = rl.solve_minimax_avgcost(inst)
        mx = rl.solve_minimax_maxcost(inst)
        median_spec, phantom_spec = self.specs[delta]
        median = rl.run_mechanism(median_spec, inst)
        phantom = rl.run_mechanism(phantom_spec, inst)
        median_regret = rl.avgcost_max_regret(inst, median.p)
        phantom_regret = rl.maxcost_max_regret(inst, phantom.p)
        return inst, avg, mx, median_regret, phantom_regret

    def check(self, op, out):
        _, delta = op
        inst, avg, mx, median_regret, phantom_regret = out
        if inst.n != LARGE_N:
            return f"instance has {inst.n} agents, expected {LARGE_N}"
        L = sorted(iv.a for iv in inst.agents)
        R = sorted(iv.b for iv in inst.agents)
        k = LARGE_N // 2
        gap = median_regret.value - avg.omv
        if not -TOL <= gap <= 0.75 * delta + TOL:
            return f"avg gap {gap} outside [0, 3*delta/4]"
        gap = phantom_regret.value - mx.omv
        if not -TOL <= gap <= B / 4 + 3 * delta / 8 + TOL:
            return f"max gap {gap} outside [0, B/4 + 3*delta/8]"
        if not L[k] - 1e-12 <= avg.p_opt <= R[k] + 1e-12:
            return f"avg p_opt {avg.p_opt} outside [L_k+1, R_k+1]"
        if abs(mx.p_opt - (L[0] + R[0] + L[-1] + R[-1]) / 4) > 1e-12:
            return f"max p_opt {mx.p_opt} differs from (L1+R1+Ln+Rn)/4"
        if abs(mx.omv - (R[0] + R[-1] - L[0] - L[-1]) / 4) > 1e-12:
            return f"max omv {mx.omv} differs from (R1+Rn-L1-Ln)/4"
        return None


class Audit:
    """One op is one ``check_minimax_dominance`` call on one agent."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        gen = np.random.Generator(np.random.PCG64(seed))
        combos = list(itertools.product(AUDIT_N, AUDIT_DELTAS))
        kinds = (
            rl.MechanismKind.EQUISPACED_MEDIAN,
            rl.MechanismKind.EQUISPACED_PHANTOM_HALF,
        )
        clean = []
        for i in range(AUDIT_INSTANCES):
            n, delta = combos[i % len(combos)]
            inst = rl.random_instance(n, B, delta, gen)
            grid = rl.DeviationGrid(endpoint_pitch=delta / 20)
            for kind in kinds:
                spec = rl.MechanismSpec(kind, B=B, delta=delta)
                clean += [("clean", spec, inst, agent, grid) for agent in range(n)]
        attack_rng = np.random.default_rng([seed, 1])
        self.ops = []
        for i, op in enumerate(clean, start=1):
            self.ops.append(op)
            if i % AUDIT_ATTACK_EVERY == 0:
                delta = AUDIT_DELTAS[(i // AUDIT_ATTACK_EVERY - 1) % len(AUDIT_DELTAS)]
                n = int(attack_rng.choice(AUDIT_ATTACK_N))
                spacing = delta / 4
                script = rl.gen_fine_grid_attack(B=B, delta=delta, spacing=spacing, n=n)
                target = rl.GridAttackTarget(B=B, delta=delta, spacing=spacing)
                grid = rl.DeviationGrid(endpoint_pitch=delta / 20)
                self.ops.append(
                    ("attack", target, script.instances[0],
                     script.params["wide_agent"], grid)
                )

    def run(self, op):
        _, target, inst, agent, grid = op
        return self.rl.check_minimax_dominance(target, inst, agent, grid=grid)

    def check(self, op, report):
        kind, _, inst, agent, _ = op
        if report.agent != agent:
            return f"report names agent {report.agent}, audited {agent}"
        if kind == "clean":
            if report.violated or report.gain > TOL:
                return f"clean audit (n={inst.n}, delta={inst.delta}) reports gain {report.gain}"
        elif not (report.violated and report.gain > TOL):
            return f"fine-grid attack (delta={inst.delta}) not reported as violated"
        return None


class Oracle:
    """One op cross-checks one instance under the avg, then the max
    objective: ``brute_force_max_regret_batch`` at 5 points plus
    ``grid_search_minimax``, each time."""

    def __init__(self, rl, seed: int):
        self.rl = rl
        pool_gen = np.random.Generator(np.random.PCG64(ORACLE_POOL_SEED))
        combos = list(itertools.product(ORACLE_N, ORACLE_DELTAS))
        instances = [
            rl.random_instance(n, B, delta, pool_gen)
            for n, delta in (combos[i % len(combos)] for i in range(ORACLE_POOL))
        ]
        rng = np.random.default_rng(seed)
        # Every agent as wide as allowed: the lattice far exceeds the cap.
        d = ORACLE_REFUSAL_DELTA
        lefts = rng.uniform(0.0, B - d, size=ORACLE_REFUSAL_N)
        instances.append(
            rl.validate_instance([(a, a + d) for a in lefts], B=B, delta=d)
        )
        self.objectives = (rl.Objective.AVG_COST, rl.Objective.MAX_COST)
        self.ops = [
            (inst, [float(p) for p in rng.uniform(0.0, B, size=ORACLE_POINTS)])
            for inst in instances
        ]

    def run(self, op):
        inst, ps = op
        return [self._cross_check(inst, objective, ps) for objective in self.objectives]

    def _cross_check(self, inst, objective, ps):
        rl = self.rl
        try:
            brute = rl.brute_force_max_regret_batch(inst, ps, objective, step=ORACLE_STEP)
            refused = None
        except rl.OracleScaleError as exc:
            brute, refused = None, exc
        swept = rl.grid_search_minimax(inst, objective, step=ORACLE_GRID_STEP)
        return brute, refused, swept

    def check(self, op, out):
        inst, ps = op
        for objective, result in zip(self.objectives, out):
            error = self._check_one(inst, objective, ps, result)
            if error is not None:
                return f"{objective.value}: {error}"
        return None

    def _check_one(self, inst, objective, ps, result):
        rl = self.rl
        brute, refused, swept = result
        avg = objective is rl.Objective.AVG_COST
        vectors = oracle_vectors(inst, ORACLE_STEP)
        if vectors > rl.ORACLE_CAP:
            if refused is None:
                return f"lattice of {vectors} vectors exceeds the cap but was not refused"
        elif refused is not None:
            return f"lattice of {vectors} vectors refused: {refused}"
        else:
            closed = rl.avgcost_max_regret if avg else rl.maxcost_max_regret
            for p, value in zip(ps, brute):
                diff = abs(closed(inst, p).value - value)
                if diff > 0.02:
                    return f"|closed form - brute force| = {diff} at p={p}"
        solve = rl.solve_minimax_avgcost if avg else rl.solve_minimax_maxcost
        diff = abs(solve(inst).omv - swept.omv)
        if diff > ORACLE_GRID_STEP:
            return f"|solver - grid search| = {diff} exceeds the step"
        return None


WORKLOADS = {
    "experiment": Experiment,
    "large": Large,
    "audit": Audit,
    "oracle": Oracle,
}
