"""Property test of the command-line boundary.

Every subcommand is driven through ``cli.main`` with hostile numbers (0,
negatives, NaN, +-inf, 1e300) in its options, instance files and experiment
configs.  Each example must end in a documented exit code (0, 2, 3 or 4)
and raise nothing.  Sizes stay bounded: at most seven agents, and every
step option is either at least delta/100 or a bad value.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustloc.cli import (
    EXIT_OK,
    EXIT_ORACLE_SCALE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    main,
)

DOCUMENTED = {EXIT_OK, EXIT_VALIDATION, EXIT_VIOLATION, EXIT_ORACLE_SCALE}
HOSTILE = [0.0, -0.0, -1.0, -1e300, 1e300, 1e-300, math.nan, math.inf, -math.inf]
KINDS = [
    "constant", "exact-median", "exact-phantom-half",
    "equispaced-median", "equispaced-phantom-half",
]

hostile = st.sampled_from(HOSTILE)
numbers = st.one_of(hostile, st.floats(-2.0, 2.0))
# Widths and domains of instances that usually validate; a tiny positive
# delta would make the audit scan (B/delta)^2 deviations.
domains = st.sampled_from([1.0, 2.5, 0.3])
width_fractions = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 1.0])


def mostly(good, bad=numbers):
    """Draw from ``good`` about four times in five, else from ``bad``."""
    return st.sampled_from((good,) * 4 + (bad,)).flatmap(lambda s: s)


def arg(name, value):
    """``--name=value``, so a negative value is not read as an option."""
    return f"--{name}={value!r}"


def steps(delta):
    """A step that is at least delta/100, or a bad one."""
    return mostly(st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0]).map(lambda f: f * delta))


@st.composite
def instances(draw):
    """An instance dict: mostly valid, sometimes with one hostile field."""
    B = draw(domains)
    delta = B * draw(width_fractions)
    agents = []
    for _ in range(draw(st.integers(1, 7))):
        w = draw(st.floats(0.0, 1.0)) * delta
        a = draw(st.floats(0.0, 1.0)) * (B - w)
        agents.append({"a": a, "b": min(a + w, B)})
    data = {"B": B, "delta": delta, "agents": agents}
    spoil = draw(mostly(st.just("none"), st.sampled_from(["B", "delta", "a", "b", "empty"])))
    if spoil in ("B", "delta"):
        data[spoil] = draw(numbers)
    elif spoil in ("a", "b"):
        data["agents"][draw(st.integers(0, len(agents) - 1))][spoil] = draw(numbers)
    elif spoil == "empty":
        data["agents"] = []
    return data


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@st.composite
def mechanism_options(draw, B, delta):
    kind = draw(st.sampled_from(KINDS))
    options = ["--kind", kind]
    if draw(st.booleans()):
        options.append(arg("location", draw(mostly(st.floats(0.0, 1.0).map(lambda f: f * B)))))
    # --spacing is legal with the equispaced median only.
    if draw(mostly(st.just(kind == "equispaced-median"), st.booleans())):
        fraction = st.sampled_from([0.25, 0.34, 0.5])
        options.append(arg("spacing", draw(mostly(fraction.map(lambda f: f * delta)))))
    return options


@st.composite
def gen_argv(draw, tmp_path):
    B = draw(mostly(domains))
    return [
        "gen", "--n", str(draw(mostly(st.integers(1, 7), st.integers(-1, 0)))),
        arg("B", B), arg("delta", draw(mostly(width_fractions.map(lambda f: f * B)))),
        "--seed", str(draw(mostly(st.integers(0, 2**40), st.integers(-2, -1)))),
        "--out", str(tmp_path / "gen.json"),
    ]


@st.composite
def instance_argv(draw, tmp_path):
    data = draw(instances())
    path = write_json(tmp_path / "instance.json", data)
    B, delta = data["B"], data["delta"]
    command = draw(st.sampled_from(["solve", "mechanism", "audit"]))
    argv = [command, "--instance", path, "--out", str(tmp_path / "out.json")]
    if command == "solve":
        argv += ["--objective", draw(st.sampled_from(["avg", "max"]))]
        for option in ("oracle-step", "brute-step"):
            if draw(st.booleans()):
                argv.append(arg(option, draw(steps(delta))))
        return argv
    argv += draw(mechanism_options(B, delta))
    if command == "audit":
        if draw(st.booleans()):
            argv.append(arg("pitch", draw(steps(delta))))
        if draw(st.booleans()):
            argv += ["--agent", str(draw(st.integers(-1, 8)))]
        if draw(st.booleans()):
            argv.append(arg("tolerance", draw(mostly(st.sampled_from([0.0, 1e-9, 0.1])))))
        if draw(st.booleans()):
            argv.append("--strict")
    return argv


# Parameters each attack family accepts, spoiled one at a time below.
ATTACKS = {
    "vwd-chain": {"B": 1.0, "delta": 0.2, "eps": 0.05, "eps1": 0.01, "n": 3},
    "finite-range": {"B": 1.0, "delta": 0.2, "gamma": 0.02, "n": 5},
    "onto": {"B": 1.0, "delta": 0.1, "yj": 0.2, "ell": 0.3, "r": 0.38,
             "eps": 0.02, "n": 4},
    "fine-grid": {"B": 1.0, "delta": 0.2, "spacing": 0.05, "n": 3},
}


@st.composite
def attack_argv(draw):
    family = draw(st.sampled_from(sorted(ATTACKS)))
    params = dict(ATTACKS[family])
    spoiled = draw(st.sampled_from(sorted(params)))
    if spoiled == "n":
        params["n"] = draw(st.integers(-1, 7))
    else:
        params[spoiled] = draw(mostly(numbers, st.just(params[spoiled])))
    argv = ["attack", "--family", family, "--n", str(params.pop("n"))]
    argv += [arg(name, value) for name, value in params.items()]
    if family == "finite-range":
        g = [0.0, 0.1, 0.2, 0.3]
        g[draw(st.integers(0, 3))] = draw(mostly(st.sampled_from(g), numbers))
        argv += [f"--g={','.join(map(repr, g))}", "--case",
                 draw(st.sampled_from(["one", "two"]))]
    return argv


@st.composite
def experiment_argv(draw, tmp_path):
    B = draw(mostly(domains))
    config = {
        "seed": draw(mostly(st.integers(0, 2**40), st.integers(-2, -1))),
        "trials": draw(mostly(st.integers(1, 2), st.just(0))),
        "n_values": draw(st.lists(
            mostly(st.integers(1, 7), st.integers(-1, 0)), min_size=1, max_size=2
        )),
        "B": B,
        "delta_values": draw(st.lists(
            mostly(width_fractions.map(lambda f: f * B)), min_size=1, max_size=2,
        )),
        "objective": draw(mostly(st.sampled_from(["avg", "max"]), st.just("median"))),
        "mechanisms": draw(st.lists(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(KINDS)},
                optional={"location": mostly(st.floats(0.0, 1.0).map(lambda f: f * B))},
            ),
            min_size=1, max_size=2,
        )),
    }
    if draw(st.booleans()):
        config["oracle_step"] = draw(mostly(st.sampled_from([0.01, 0.1]).map(lambda f: f * B)))
    path = write_json(tmp_path / "config.json", config)
    return ["experiment", "--config", path, "--out", str(tmp_path / "out.csv")]


def run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in DOCUMENTED, (argv, code, err)
    assert "Traceback" not in err


# Derandomized, so every run of the suite draws the same examples.
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(data=st.data())
def test_gen_exits_with_a_documented_code(data, tmp_path, capsys):
    run(data.draw(gen_argv(tmp_path)), capsys)


@FUZZ
@given(data=st.data())
def test_instance_commands_exit_with_a_documented_code(data, tmp_path, capsys):
    run(data.draw(instance_argv(tmp_path)), capsys)


@settings(FUZZ, max_examples=200)
@given(argv=attack_argv())
def test_attack_exits_with_a_documented_code(argv, capsys):
    run(argv, capsys)


@FUZZ
@given(data=st.data())
def test_experiment_exits_with_a_documented_code(data, tmp_path, capsys):
    run(data.draw(experiment_argv(tmp_path)), capsys)
