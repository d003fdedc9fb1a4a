"""Command-line front end: instance I/O, seeded generation, experiments.

Instances travel as flat JSON objects ``{"B": ..., "delta": ...,
"agents": [{"a": ..., "b": ...}, ...]}``.  Experiments compare mechanism
outputs against the matching minimax optimum over seeded random instances
and emit CSV rows in a fixed deterministic order; randomness comes from
numpy's PCG64 so identical seeds reproduce byte-identical output anywhere.

Exit codes: 0 success, 2 validation or usage error, 3 audit found a
violation (``audit --strict``), 4 oracle scale exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Instance, InvalidInstanceError, _check_domain, validate_instance
from .dominance import (
    DeviationGrid,
    _audit,
    _endpoint_regret,
    gen_fine_grid_attack,
    gen_finite_range_attack,
    gen_onto_attack,
    gen_vwd_chain,
)
from .mechanisms import (
    MechanismError,
    MechanismKind,
    MechanismSpec,
    run_mechanism,
)
from .optimal import grid_search_minimax, solve_minimax_avgcost, solve_minimax_maxcost
from .regret import (
    Objective,
    OracleScaleError,
    _check_report_count,
    avgcost_max_regret,
    brute_force_max_regret,
    maxcost_max_regret,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "load_instance",
    "main",
    "random_instance",
    "rows_to_csv",
    "run_experiment",
    "theoretical_bound",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3
EXIT_ORACLE_SCALE = 4

_BOUND_TOL = 1e-9

# The keys a mechanism descriptor may hold; any other key is refused rather
# than ignored, so a typo cannot go unnoticed.
_DESCRIPTOR_KEYS = frozenset(("kind", "location"))


def _number(value, name: str, kinds: tuple = (int, float)):
    """``value`` if it is a JSON number of one of ``kinds``; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        what = "an integer" if kinds == (int,) else "a number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def _read_json(path: str | Path):
    """Parse a JSON file; nesting too deep for the parser is refused as
    ``InvalidInstanceError`` rather than left to end in a traceback."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidInstanceError(f"{path}: JSON nested too deeply") from None


def load_instance(path: str | Path) -> Instance:
    """Read and validate an instance JSON file; bools and strings are rejected."""
    data = _read_json(path)
    try:
        raw = [(_number(e["a"], f"agent {i}: a"), _number(e["b"], f"agent {i}: b"))
               for i, e in enumerate(data["agents"])]
        B, delta = _number(data["B"], "B"), _number(data["delta"], "delta")
        return validate_instance(raw, B=B, delta=delta)
    except (KeyError, TypeError, OverflowError) as exc:
        raise InvalidInstanceError(f"malformed instance file {path}: {exc}") from exc


def instance_to_json(instance: Instance) -> dict:
    return {
        "B": instance.B,
        "delta": instance.delta,
        "agents": [
            {"a": a, "b": b}
            for a, b in zip(instance.lefts.tolist(), instance.rights.tolist())
        ],
    }


def random_instance(n: int, B: float, delta: float, rng_state) -> Instance:
    """Draw an instance: width uniform in [0, delta], left end uniform in
    [0, B - width].  ``rng_state`` is a numpy Generator or an integer seed
    for PCG64 (documented so seeds reproduce across implementations).
    ``n``, ``B`` and ``delta`` are checked before anything is drawn; more
    than ``ORACLE_CAP`` agents raise :class:`OracleScaleError`.

    The draw is one vector: agent i takes the uniforms ``u[2i]`` (width)
    and ``u[2i + 1]`` (left end) of ``u = rng.random(2n)``, or ``u[i]``
    (left end) of ``rng.random(n)`` at ``delta = 0``.  That is the order in
    which drawing agent by agent with ``rng.uniform`` consumes the stream,
    so the endpoints, and the state a shared Generator is left in, are the
    same bit for bit."""
    if n < 1:
        raise InvalidInstanceError(f"need at least one agent, got n={n}")
    _check_report_count(n, lambda: n, f"an instance of {n} agents")
    _check_domain(B, delta)
    rng = (
        rng_state
        if isinstance(rng_state, np.random.Generator)
        else np.random.Generator(np.random.PCG64(rng_state))
    )
    if delta > 0:
        u = rng.random(2 * n)
        w = delta * u[0::2]
        a = (B - w) * u[1::2]
    else:
        w = 0.0
        a = B * rng.random(n)
    return validate_instance(np.column_stack((a, a + w)), B=B, delta=delta)


@dataclass(frozen=True)
class ExperimentConfig:
    """A seeded sweep over (trial, n, delta, mechanism) combinations."""

    seed: int
    trials: int
    n_values: tuple[int, ...]
    B: float
    delta_values: tuple[float, ...]
    objective: Objective
    mechanisms: tuple[dict, ...]
    oracle_step: float | None = None

    def __post_init__(self):
        for name in ("n_values", "delta_values", "mechanisms"):
            if not getattr(self, name):
                raise InvalidInstanceError(f"{name} must not be empty")
        if self.trials < 1:
            raise InvalidInstanceError(f"trials must be >= 1, got {self.trials}")
        if self.oracle_step is not None and not 0 < self.oracle_step < math.inf:
            raise InvalidInstanceError(
                f"oracle_step must be positive and finite, got {self.oracle_step}"
            )
        for n in self.n_values:
            if n < 1:
                raise InvalidInstanceError(f"every n must be >= 1, got {n}")
            _check_report_count(n, lambda: n, f"an instance of {n} agents")
        # Building every spec checks B, the deltas and the descriptors.
        # Random reports at delta > 0 are intervals, so a kind that accepts
        # only exact reports runs at delta 0 only.
        for descriptor in self.mechanisms:
            for delta in self.delta_values:
                spec = _mechanism_spec(descriptor, self.B, delta)
                if spec.exact_only and delta > 0:
                    raise MechanismError(
                        f"{spec.kind.value} runs at delta 0 only, got delta={delta}"
                    )

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        if isinstance(data, dict) and not known.issuperset(data):
            raise InvalidInstanceError(
                f"malformed experiment config: unknown keys {sorted(set(data) - known)}"
            )
        try:
            return cls(
                seed=_number(data["seed"], "seed", (int,)),
                trials=_number(data["trials"], "trials", (int,)),
                n_values=tuple(_number(v, "n", (int,)) for v in data["n_values"]),
                B=float(_number(data["B"], "B")),
                delta_values=tuple(
                    float(_number(v, "delta")) for v in data["delta_values"]
                ),
                objective=Objective(data["objective"]),
                mechanisms=tuple(data["mechanisms"]),
                oracle_step=(
                    float(_number(data["oracle_step"], "oracle_step"))
                    if data.get("oracle_step") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInstanceError(f"malformed experiment config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentRow:
    trial: int
    n: int
    delta: float
    mechanism: str
    p: float
    max_regret: float
    omv: float
    gap: float
    bound: float | None
    within_bound: bool
    oracle_omv: float | None = None


def theoretical_bound(spec: MechanismSpec, objective: Objective) -> float | None:
    """Additive guarantee for the mechanism under the objective, if proven.

    A constant at c has regret at most |c - median| (average cost) or
    |c - midrange| (max cost) against any realization, and both reach
    ``max(c, B - c)`` when every agent sits at 0 or every agent at B.
    """
    kind, B, delta = spec.kind, spec.B, spec.delta
    if kind is MechanismKind.CONSTANT:
        return max(spec.location, B - spec.location)
    if objective is Objective.AVG_COST:
        if kind is MechanismKind.EQUISPACED_MEDIAN:
            return 3.0 * delta / 4.0
        if kind is MechanismKind.EXACT_MEDIAN:
            return 0.0
    else:
        if kind is MechanismKind.EQUISPACED_PHANTOM_HALF:
            # Guarantee stated only for delta <= 2B/3.
            return B / 4.0 + 3.0 * delta / 8.0 if delta <= 2.0 * B / 3.0 else None
        if kind is MechanismKind.EXACT_PHANTOM_HALF:
            return B / 4.0
    return None


def _mechanism_spec(
    descriptor: dict, B: float, delta: float, spacing: float | None = None
) -> MechanismSpec:
    """The spec a config descriptor or the CLI flags ask for.  Only the JSON
    shape is checked here; ``MechanismSpec`` checks the options."""
    if not (isinstance(descriptor, dict) and "kind" in descriptor
            and _DESCRIPTOR_KEYS.issuperset(descriptor)):
        raise InvalidInstanceError(
            "mechanism descriptor must be an object with a kind and at most "
            f"a location, got {descriptor!r}"
        )
    kind = MechanismKind(descriptor["kind"])
    location = descriptor.get("location")
    if kind is MechanismKind.CONSTANT and location is None:
        location = B / 2.0
    return MechanismSpec(
        kind=kind, B=B, delta=delta, location=location, spacing=spacing
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Evaluate every configured mechanism against the minimax optimum.

    Rows come out in (trial, n, delta, mechanism) order.  Each row draws
    its instance from a generator seeded by (seed, trial, n-index,
    delta-index), so trials could run in parallel without changing output.
    """
    rows = []
    solve = (
        solve_minimax_avgcost
        if config.objective is Objective.AVG_COST
        else solve_minimax_maxcost
    )
    evaluate = (
        avgcost_max_regret
        if config.objective is Objective.AVG_COST
        else maxcost_max_regret
    )
    for trial in range(config.trials):
        for ni, n in enumerate(config.n_values):
            for di, delta in enumerate(config.delta_values):
                seq = np.random.SeedSequence([config.seed, trial, ni, di])
                rng = np.random.Generator(np.random.PCG64(seq))
                instance = random_instance(n, config.B, delta, rng)
                solved = solve(instance)
                oracle_omv = None
                if config.oracle_step is not None:
                    oracle_omv = grid_search_minimax(
                        instance, config.objective, config.oracle_step
                    ).omv
                for descriptor in config.mechanisms:
                    spec = _mechanism_spec(descriptor, config.B, delta)
                    outcome = run_mechanism(spec, instance)
                    max_regret = evaluate(instance, outcome.p).value
                    gap = max_regret - solved.omv
                    bound = theoretical_bound(spec, config.objective)
                    within = bound is None or gap <= bound + _BOUND_TOL
                    rows.append(
                        ExperimentRow(
                            trial=trial,
                            n=n,
                            delta=delta,
                            mechanism=spec.name,
                            p=outcome.p,
                            max_regret=max_regret,
                            omv=solved.omv,
                            gap=gap,
                            bound=bound,
                            within_bound=within,
                            oracle_omv=oracle_omv,
                        )
                    )
    return rows


def _fmt(x: float | None) -> str:
    # 12 significant digits, '.' separator, locale-free.
    return "" if x is None else f"{x:.12g}"


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    """The rows as CSV, with an ``oracle_omv`` column when any row has one."""
    with_oracle = any(r.oracle_omv is not None for r in rows)
    header = "trial,n,delta,mechanism,p,max_regret,omv,gap,bound,within_bound"
    if with_oracle:
        header += ",oracle_omv"
    lines = [header]
    for r in rows:
        cells = [
            str(r.trial),
            str(r.n),
            _fmt(r.delta),
            r.mechanism,
            _fmt(r.p),
            _fmt(r.max_regret),
            _fmt(r.omv),
            _fmt(r.gap),
            _fmt(r.bound),
            "true" if r.within_bound else "false",
        ]
        if with_oracle:
            cells.append(_fmt(r.oracle_omv))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(data, out: str | None) -> None:
    # NaN and infinities are not JSON: they raise ValueError, exit 2.
    text = json.dumps(data, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    objective = Objective(args.objective)
    solved = (
        solve_minimax_avgcost(instance)
        if objective is Objective.AVG_COST
        else solve_minimax_maxcost(instance)
    )
    result = {
        "objective": objective.value,
        "p_opt": solved.p_opt,
        "omv": solved.omv,
        "obj1": solved.certificate.obj1,
        "obj2": solved.certificate.obj2,
    }
    if args.oracle_step is not None:
        oracle = grid_search_minimax(instance, objective, args.oracle_step)
        result["oracle_p"] = oracle.p_opt
        result["oracle_omv"] = oracle.omv
        result["oracle_agreement"] = abs(oracle.omv - solved.omv)
    if args.brute_step is not None:
        result["brute_force_max_regret_at_p_opt"] = brute_force_max_regret(
            instance, solved.p_opt, objective, args.brute_step
        )
    _emit(result, args.out)
    return EXIT_OK


def _make_target(args, instance: Instance) -> MechanismSpec:
    return _mechanism_spec(
        {"kind": args.kind, "location": args.location},
        instance.B,
        instance.delta,
        spacing=args.spacing,
    )


def _cmd_mechanism(args) -> int:
    instance = load_instance(args.instance)
    target = _make_target(args, instance)
    outcome = run_mechanism(target, instance)
    _emit(
        {
            "mechanism": target.name,
            "p": outcome.p,
            "representatives": list(outcome.representatives),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_audit(args) -> int:
    instance = load_instance(args.instance)
    target = _make_target(args, instance)
    grid = DeviationGrid(endpoint_pitch=args.pitch) if args.pitch is not None else None
    agents = [args.agent] if args.agent is not None else range(instance.n)
    reports = []
    any_violation = False
    for rep in _audit(target, instance, agents, grid, target.exact_only,
                      _endpoint_regret, args.tolerance):
        any_violation = any_violation or rep.violated
        entry = asdict(rep)
        dev = rep.best_deviation
        entry["best_deviation"] = [dev.a, dev.b] if dev is not None else None
        reports.append(entry)
    _emit({"mechanism": target.name, "reports": reports}, args.out)
    if any_violation and args.strict:
        return EXIT_VIOLATION
    return EXIT_OK


# The options each attack family needs; argparse leaves them optional.
_ATTACK_OPTIONS = {
    "vwd-chain": ("eps", "eps1"),
    "finite-range": ("g", "gamma"),
    "onto": ("yj", "ell", "r", "eps"),
    "fine-grid": ("spacing",),
}


def _cmd_attack(args) -> int:
    missing = [f"--{name}" for name in _ATTACK_OPTIONS[args.family]
               if getattr(args, name) is None]
    if missing:
        raise InvalidInstanceError(
            f"{args.family} attack needs {', '.join(missing)}"
        )
    if args.family == "vwd-chain":
        script = gen_vwd_chain(args.B, args.delta, args.eps, args.eps1, n=args.n)
    elif args.family == "finite-range":
        g = tuple(float(v) for v in args.g.split(","))
        script = gen_finite_range_attack(
            g, args.gamma, args.n, args.case, args.B, args.delta
        )
    elif args.family == "onto":
        script = gen_onto_attack(
            args.yj, args.ell, args.r, args.eps, args.n, args.B, args.delta
        )
    else:
        script = gen_fine_grid_attack(args.B, args.delta, args.spacing, n=args.n)
    _emit(
        {
            "name": script.name,
            "expected_property": script.expected_property,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in script.params.items()},
            "instances": [instance_to_json(inst) for inst in script.instances],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(_read_json(args.config))
    rows = run_experiment(config)
    csv_text = rows_to_csv(rows)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    return EXIT_OK


def _cmd_gen(args) -> int:
    instance = random_instance(args.n, args.B, args.delta, args.seed)
    _emit(instance_to_json(instance), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustloc",
        description="Minimax-regret facility location for interval reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the minimax-optimal location")
    p.add_argument("--objective", choices=["avg", "max"], required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--oracle-step", type=float, dest="oracle_step")
    p.add_argument("--brute-step", type=float, dest="brute_step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--kind", choices=[k.value for k in MechanismKind],
                        required=True)
    target.add_argument("--instance", required=True)
    target.add_argument("--location", type=float,
                        help="output of --kind constant (default B/2)")
    target.add_argument("--spacing", type=float,
                        help="grid spacing for --kind equispaced-median "
                             "(default delta/2; an attack target below it)")
    target.add_argument("--out")

    p = sub.add_parser("mechanism", parents=[target],
                       help="run a mechanism on an instance")
    p.set_defaults(func=_cmd_mechanism)

    p = sub.add_parser("audit", parents=[target],
                       help="deviation search for minimax dominance")
    p.add_argument("--pitch", type=float)
    p.add_argument("--agent", type=int)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="a gain above tolerance + 8 ulp(B) is a violation")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a violation is found")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("attack", help="emit an adversarial instance family")
    p.add_argument("--family", required=True, choices=list(_ATTACK_OPTIONS))
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--eps", type=float)
    p.add_argument("--eps1", type=float)
    p.add_argument("--g", help="four comma-separated grid points")
    p.add_argument("--gamma", type=float)
    p.add_argument("--case", choices=["one", "two"], default="one")
    p.add_argument("--yj", type=float)
    p.add_argument("--ell", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--spacing", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("experiment", help="run a seeded experiment batch")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_SCALE
    except (InvalidInstanceError, MechanismError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
