import json
import math

import numpy as np
import pytest

import robustloc.regret as regret_module
from robustloc import InvalidInstanceError, random_instance, validate_instance
from robustloc.cli import (
    EXIT_OK,
    EXIT_ORACLE_SCALE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    ExperimentConfig,
    load_instance,
    main,
    rows_to_csv,
    run_experiment,
)


def write_instance(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    return write_instance(
        tmp_path / "inst.json",
        {
            "B": 1.0,
            "delta": 0.2,
            "agents": [
                {"a": 0.12, "b": 0.28},
                {"a": 0.33, "b": 0.47},
                {"a": 0.81, "b": 0.99},
            ],
        },
    )


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        path = write_instance(
            tmp_path / "one.json",
            {"B": 1.0, "delta": 0.2, "agents": [{"a": 0.12, "b": 0.28}]},
        )
        inst = load_instance(path)
        assert inst.n == 1 and inst.agents[0].a == 0.12

    def test_reversed_interval_names_agent(self, tmp_path):
        path = write_instance(
            tmp_path / "bad.json",
            {"B": 1.0, "delta": 0.2, "agents": [{"a": 0.5, "b": 0.4}]},
        )
        with pytest.raises(Exception, match="agent 0"):
            load_instance(path)

    def test_empty_agents(self, tmp_path):
        path = write_instance(
            tmp_path / "empty.json", {"B": 1.0, "delta": 0.2, "agents": []}
        )
        with pytest.raises(Exception, match="empty"):
            load_instance(path)

    def test_malformed_file(self, tmp_path):
        path = write_instance(tmp_path / "malformed.json", {"B": 1.0})
        with pytest.raises(Exception, match="malformed"):
            load_instance(path)


class TestRandomInstance:
    def test_deterministic_given_seed(self):
        a = random_instance(3, 1.0, 0.2, 7)
        b = random_instance(3, 1.0, 0.2, 7)
        assert a == b

    def test_delta_zero_degenerate(self):
        inst = random_instance(1, 1.0, 0.0, 123)
        assert inst.agents[0].is_exact

    def test_output_validates(self, rng):
        for _ in range(50):
            inst = random_instance(4, 1.0, 0.3, rng)
            rebuilt = validate_instance(
                [(iv.a, iv.b) for iv in inst.agents], 1.0, 0.3
            )
            assert rebuilt == inst

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("n,seeds", [(1, 100), (5, 100), (50, 100), (20_000, 3)])
    def test_matches_agent_by_agent_draw(self, n, seeds, delta):
        # The n = 20 000 reference loop takes about 0.1 s a draw, so it
        # runs on 3 seeds; the smaller sizes on 100.
        for seed in range(seeds):
            rng = np.random.Generator(np.random.PCG64(seed))
            want = reference_draw(n, 1.0, delta, rng)
            got = random_instance(n, 1.0, delta, seed)
            assert tuple(zip(got.lefts, got.rights)) == want

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3])
    def test_shared_generator_left_in_the_same_state(self, delta):
        for seed in range(20):
            ours = np.random.Generator(np.random.PCG64(seed))
            ref = np.random.Generator(np.random.PCG64(seed))
            for n in (7, 50):
                got = random_instance(n, 2.5, 2.5 * delta, ours)
                assert tuple(zip(got.lefts, got.rights)) == reference_draw(
                    n, 2.5, 2.5 * delta, ref
                )
            assert ours.random() == ref.random()


def reference_draw(n, B, delta, rng):
    """Agent by agent: width uniform in [0, delta], left end uniform in
    [0, B - width], one ``rng.uniform`` call each."""
    raw = []
    for _ in range(n):
        w = rng.uniform(0.0, delta) if delta > 0 else 0.0
        a = rng.uniform(0.0, B - w)
        raw.append((a, min(a + w, B)))
    return tuple(raw)


class TestRunExperiment:
    def config(self, **overrides):
        data = {
            "seed": 11,
            "trials": 2,
            "n_values": (3, 5),
            "B": 1.0,
            "delta_values": (0.1, 0.2),
            "objective": "avg",
            "mechanisms": (
                {"kind": "equispaced-median"},
                {"kind": "constant", "location": 0.5},
            ),
        }
        data.update(overrides)
        return ExperimentConfig(
            seed=data["seed"],
            trials=data["trials"],
            n_values=tuple(data["n_values"]),
            B=data["B"],
            delta_values=tuple(data["delta_values"]),
            objective=__import__("robustloc").Objective(data["objective"]),
            mechanisms=tuple(data["mechanisms"]),
            oracle_step=data.get("oracle_step"),
        )

    def test_rows_in_deterministic_order(self):
        rows = run_experiment(self.config())
        coords = [(r.trial, r.n, r.delta, r.mechanism) for r in rows]
        assert coords == sorted(coords, key=lambda c: (c[0], c[1], c[2]))
        assert len(rows) == 2 * 2 * 2 * 2

    def test_max_regret_dominates_omv(self):
        for row in run_experiment(self.config()):
            assert row.max_regret >= row.omv - 1e-12

    def test_bounds_hold_for_canonical_pairs(self):
        rows = run_experiment(self.config(trials=5))
        for row in rows:
            assert row.within_bound
        mc_rows = run_experiment(
            self.config(
                trials=5,
                objective="max",
                delta_values=(0.2, 0.5),
                mechanisms=({"kind": "equispaced-phantom-half"},),
            )
        )
        for row in mc_rows:
            assert row.within_bound
            assert row.bound == pytest.approx(0.25 + 3 * row.delta / 8)

    def test_no_proven_bound_outside_hypothesis(self):
        from robustloc.cli import theoretical_bound
        from robustloc import MechanismKind, Objective

        assert theoretical_bound(
            MechanismKind.EQUISPACED_PHANTOM_HALF, Objective.MAX_COST, 1.0, 0.8
        ) is None
        assert theoretical_bound(
            MechanismKind.EQUISPACED_MEDIAN, Objective.MAX_COST, 1.0, 0.2
        ) is None

    def test_trials_zero_rejected(self):
        with pytest.raises(Exception):
            self.config(trials=0)

    @pytest.mark.parametrize("n_values", [(0,), (3, -1)])
    def test_n_below_one_rejected_before_any_trial(self, n_values):
        with pytest.raises(InvalidInstanceError, match="every n must be >= 1"):
            self.config(n_values=n_values)

    def test_csv_determinism(self):
        a = rows_to_csv(run_experiment(self.config()))
        b = rows_to_csv(run_experiment(self.config()))
        assert a == b
        assert a.splitlines()[0] == (
            "trial,n,delta,mechanism,p,max_regret,omv,gap,bound,within_bound"
        )

    def test_oracle_column_when_requested(self):
        rows = run_experiment(self.config(oracle_step=0.01, trials=1))
        text = rows_to_csv(rows, with_oracle=True)
        assert text.splitlines()[0].endswith(",oracle_omv")
        assert all(r.oracle_omv is not None for r in rows)


class TestCommandLine:
    def test_gen_solve_mechanism_audit(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--n", "3", "--B", "1", "--delta", "0.2",
                     "--seed", "5", "--out", str(out)]) == EXIT_OK
        assert main(["solve", "--objective", "avg", "--instance", str(out),
                     "--oracle-step", "0.01"]) == EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        assert abs(solved["omv"] - solved["oracle_omv"]) <= 0.01
        assert main(["mechanism", "--kind", "equispaced-median",
                     "--instance", str(out)]) == EXIT_OK
        mech = json.loads(capsys.readouterr().out)
        assert 0 <= mech["p"] <= 1
        assert main(["audit", "--kind", "equispaced-median", "--instance",
                     str(out), "--pitch", "0.01", "--strict"]) == EXIT_OK

    def test_solve_maxcost(self, instance_file, capsys):
        assert main(["solve", "--objective", "max",
                     "--instance", instance_file]) == EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        assert solved["p_opt"] == pytest.approx((0.12 + 0.28 + 0.81 + 0.99) / 4)

    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_instance(
            tmp_path / "bad.json",
            {"B": 1.0, "delta": 0.2, "agents": [{"a": 0.5, "b": 0.4}]},
        )
        assert main(["solve", "--objective", "avg",
                     "--instance", str(path)]) == EXIT_VALIDATION
        assert "agent 0" in capsys.readouterr().err

    def test_audit_strict_violation_exit_code(self, tmp_path, capsys):
        assert main(["attack", "--family", "fine-grid", "--delta", "0.2",
                     "--spacing", "0.05", "--n", "3",
                     "--out", str(tmp_path / "attack.json")]) == EXIT_OK
        script = json.loads((tmp_path / "attack.json").read_text())
        inst_path = write_instance(tmp_path / "atk.json", script["instances"][0])
        code = main(["audit", "--kind", "equispaced-median", "--instance",
                     inst_path, "--spacing", "0.05", "--pitch", "0.01",
                     "--strict"])
        assert code == EXIT_VIOLATION

    def test_spacing_keeps_equispaced_median_output(self, instance_file, capsys):
        assert main(["mechanism", "--kind", "equispaced-median", "--instance",
                     instance_file, "--spacing", "0.05"]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{\n  "mechanism": "grid-median(spacing=0.05)",\n  "p": 0.4,\n'
            '  "representatives": [\n    0.2,\n    0.4,\n    0.9\n  ]\n}\n'
        )

    @pytest.mark.parametrize("kind", [
        ["--kind", "exact-median"],
        ["--kind", "constant", "--location", "0.3"],
    ])
    @pytest.mark.parametrize("command", ["mechanism", "audit"])
    def test_spacing_requires_equispaced_median(
        self, command, kind, instance_file, capsys
    ):
        code = main([command, *kind, "--instance", instance_file,
                     "--spacing", "0.05"])
        assert code == EXIT_VALIDATION
        assert "spacing applies only to equispaced-median" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        "--pitch", "--oracle-step", "--brute-step", "oracle_step",
    ])
    def test_zero_steps_rejected(self, option, instance_file, tmp_path, capsys):
        if option == "oracle_step":
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({
                "seed": 3, "trials": 1, "n_values": [3], "B": 1.0,
                "delta_values": [0.2], "objective": "avg",
                "mechanisms": [{"kind": "equispaced-median"}],
                "oracle_step": 0,
            }), encoding="utf-8")
            argv = ["experiment", "--config", str(cfg),
                    "--out", str(tmp_path / "out.csv")]
        elif option == "--pitch":
            argv = ["audit", "--kind", "equispaced-median",
                    "--instance", instance_file, "--pitch", "0"]
        else:
            argv = ["solve", "--objective", "avg",
                    "--instance", instance_file, option, "0"]
        assert main(argv) == EXIT_VALIDATION
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["audit", "--kind", "equispaced-median", "--pitch"],
        ["solve", "--objective", "avg", "--oracle-step"],
        ["solve", "--objective", "max", "--brute-step"],
    ])
    def test_non_finite_steps_rejected(self, argv, value, instance_file, capsys):
        assert main([*argv, value, "--instance", instance_file]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "must be positive and finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["audit", "--kind", "equispaced-median", "--pitch", "0.01"],
        ["solve", "--objective", "avg", "--oracle-step", "0.01"],
        ["solve", "--objective", "avg", "--brute-step", "0.01"],
    ])
    def test_oversized_step_lattice_exit_code(
        self, argv, instance_file, monkeypatch, capsys
    ):
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 50)
        assert main([*argv, "--instance", instance_file]) == EXIT_ORACLE_SCALE
        assert "oracle scale exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"B": math.inf},
        {"B": math.nan},
        {"oracle_step": math.inf},
        {"mechanisms": ["equispaced-median"]},
        {"mechanisms": [{"kind": "constant", "location": "x"}]},
        {"mechanisms": [{"location": 0.5}]},
        {"n_values": [math.inf]},
        {"delta_values": [math.nan]},
        {"seed": 1.9, "trials": 1.5, "n_values": [3.7], "B": "1",
         "delta_values": ["0.2"]},
        {"seed": 1.9},
        {"seed": True},
        {"seed": "3"},
        {"trials": 1.5},
        {"trials": True},
        {"n_values": [3.7]},
        {"n_values": [3.0]},
        {"n_values": [True]},
        {"n_values": ["3"]},
        {"n_values": [0]},
        {"n_values": [3, -1]},
        {"B": "1"},
        {"B": True},
        {"delta_values": ["0.2"]},
        {"delta_values": [False]},
        {"oracle_step": "0.01"},
        {"oracle_step": True},
        {"mechanisms": [{"kind": "constant", "location": True}]},
    ], ids=["B-inf", "B-nan", "oracle-step-inf", "bare-string-mechanism",
            "string-location", "no-kind", "n-inf", "delta-nan",
            "all-truncated-or-parsed", "float-seed", "bool-seed", "string-seed",
            "float-trials", "bool-trials", "float-n", "integral-float-n",
            "bool-n", "string-n", "zero-n", "negative-n", "string-B", "bool-B",
            "string-delta", "bool-delta", "string-oracle-step",
            "bool-oracle-step", "bool-location"])
    def test_bad_experiment_config_rejected(self, override, tmp_path, capsys):
        data = {
            "seed": 3, "trials": 1, "n_values": [3], "B": 1.0,
            "delta_values": [0.2], "objective": "avg",
            "mechanisms": [{"kind": "equispaced-median"}],
        }
        data.update(override)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        code = main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command,data", [
        (["solve", "--objective", "avg"],
         {"B": 1.0, "delta": 0.2, "agents": [{"a": float("nan"), "b": 0.3}]}),
        (["solve", "--objective", "avg"],
         {"B": 1.0, "delta": 0.2, "agents": [{"a": 0.1, "b": float("nan")}]}),
        (["mechanism", "--kind", "equispaced-median"],
         {"B": float("inf"), "delta": 0.2, "agents": [{"a": 0.1, "b": 0.2}]}),
        # delta / 2 underflows to a zero grid spacing.
        (["mechanism", "--kind", "equispaced-median"],
         {"B": 1.0, "delta": 5e-324, "agents": [{"a": 0.5, "b": 0.5}]}),
        (["audit", "--kind", "equispaced-median"],
         {"B": 1.0, "delta": 5e-324, "agents": [{"a": 0.5, "b": 0.5}]}),
        # JSON booleans are not numbers, and an integer beyond float range
        # is not converted.
        (["solve", "--objective", "avg"],
         {"B": True, "delta": 0.2, "agents": [{"a": 0.1, "b": 0.2}]}),
        (["mechanism", "--kind", "equispaced-median"],
         {"B": 1.0, "delta": True, "agents": [{"a": 0.1, "b": 0.2}]}),
        (["audit", "--kind", "equispaced-median"],
         {"B": 1.0, "delta": False, "agents": [{"a": 0.1, "b": 0.1}]}),
        (["mechanism", "--kind", "equispaced-median"],
         {"B": 10**400, "delta": 0.2, "agents": [{"a": 0.1, "b": 0.2}]}),
    ])
    def test_non_finite_instance_rejected(self, command, data, tmp_path, capsys):
        path = write_instance(tmp_path / "nonfinite.json", data)
        assert main([*command, "--instance", path]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "11", "--B", "1", "--delta", "0.2", "--seed", "1"],
        ["attack", "--family", "finite-range", "--delta", "0.2", "--n", "4",
         "--g=0.0,0.1,0.2,0.3", "--gamma", "0.02"],
        ["attack", "--family", "onto", "--delta", "0.1", "--n", "3",
         "--yj", "0.2", "--ell", "0.3", "--r", "0.38", "--eps", "0.02"],
        ["attack", "--family", "fine-grid", "--delta", "0.2", "--n", "11",
         "--spacing", "0.05"],
    ], ids=["gen", "finite-range", "onto", "fine-grid"])
    def test_report_count_beyond_cap_exit_code(self, argv, monkeypatch, capsys):
        # Counted from n before anything is built: 11 agents, a ladder of
        # 4 * (4 // 2 + 2) = 16 reports, an onto trap of 4 * 3 = 12.
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 10)
        assert main(argv) == EXIT_ORACLE_SCALE
        captured = capsys.readouterr()
        assert "more than 10 reports" in captured.err and not captured.out

    def test_experiment_n_beyond_cap_exit_code(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(regret_module, "ORACLE_CAP", 10)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 1, "trials": 1, "n_values": [3, 11], "B": 1.0,
            "delta_values": [0.5], "objective": "avg",
            "mechanisms": [{"kind": "equispaced-median"}],
        }), encoding="utf-8")
        code = main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_ORACLE_SCALE
        assert "an instance of 11 agents" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_oracle_scale_exit_code(self, tmp_path, capsys):
        path = write_instance(
            tmp_path / "big.json",
            {
                "B": 1.0,
                "delta": 0.5,
                "agents": [{"a": 0.0, "b": 0.5}] * 5,
            },
        )
        code = main(["solve", "--objective", "avg", "--instance", str(path),
                     "--brute-step", "0.0001"])
        assert code == EXIT_ORACLE_SCALE

    def test_attack_families(self, tmp_path, capsys):
        assert main(["attack", "--family", "vwd-chain", "--delta", "0.2",
                     "--eps", "0.05", "--eps1", "0.01"]) == EXIT_OK
        chain = json.loads(capsys.readouterr().out)
        assert chain["name"] == "VwdChain"
        assert main(["attack", "--family", "finite-range", "--delta", "0.2",
                     "--g", "0.0,0.1,0.2,0.3", "--gamma", "0.002",
                     "--n", "5"]) == EXIT_OK
        ladder = json.loads(capsys.readouterr().out)
        assert ladder["name"] == "FiniteRangeAttack"
        assert main(["attack", "--family", "onto", "--delta", "0.1",
                     "--yj", "0.2", "--ell", "0.3", "--r", "0.38",
                     "--eps", "0.02", "--n", "4"]) == EXIT_OK
        onto = json.loads(capsys.readouterr().out)
        assert len(onto["instances"]) == 4

    def test_experiment_end_to_end(self, tmp_path):
        config = {
            "seed": 3,
            "trials": 2,
            "n_values": [3],
            "B": 1.0,
            "delta_values": [0.2],
            "objective": "avg",
            "mechanisms": [{"kind": "equispaced-median"}],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("bounds", [
        ["--B", "inf", "--delta", "0.2"],
        ["--B", "nan", "--delta", "0.2"],
        ["--B", "1", "--delta", "inf"],
        ["--B", "1", "--delta", "nan"],
    ], ids=["B-inf", "B-nan", "delta-inf", "delta-nan"])
    def test_gen_rejects_non_finite_domain(self, bounds, capsys):
        assert main(["gen", "--n", "3", *bounds, "--seed", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_audit_rejects_bad_tolerance(self, tolerance, instance_file, capsys):
        code = main(["audit", "--kind", "equispaced-median", "--instance",
                     instance_file, "--tolerance", tolerance, "--strict"])
        assert code == EXIT_VALIDATION
        assert "tolerance must be non-negative and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("family,given,missing", [
        ("vwd-chain", [], "--eps, --eps1"),
        ("fine-grid", [], "--spacing"),
        ("onto", [], "--yj, --ell, --r, --eps"),
        ("finite-range", ["--g", "0.0,0.1,0.2,0.3"], "--gamma"),
    ], ids=["vwd-chain", "fine-grid", "onto", "finite-range"])
    def test_attack_names_missing_options(self, family, given, missing, capsys):
        code = main(["attack", "--family", family, "--delta", "0.2", *given])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{family} attack needs {missing}" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,code", [
        (["--family", "fine-grid", "--B", "inf", "--spacing", "0.05"],
         EXIT_VALIDATION),
        (["--family", "vwd-chain", "--B", "inf", "--eps", "0.05",
          "--eps1", "0.01"], EXIT_VALIDATION),
        (["--family", "onto", "--B", "nan", "--yj", "0.2", "--ell", "0.3",
          "--r", "0.38", "--eps", "0.02", "--n", "4"], EXIT_VALIDATION),
        (["--family", "vwd-chain", "--B", "1e12", "--eps", "0.05",
          "--eps1", "0.01"], EXIT_ORACLE_SCALE),
    ], ids=["fine-grid-B-inf", "vwd-chain-B-inf", "onto-B-nan",
            "vwd-chain-too-long"])
    def test_attack_rejects_bad_domain(self, argv, code, capsys):
        assert main(["attack", "--delta", "0.2", *argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out

    def test_audit_of_exact_profile_on_identity_grid(self, tmp_path, capsys):
        # 0.15 sits next to the pitch multiple 3 * 0.05 = 0.15000000000000002;
        # the two must not form a (non-exact) deviation on the identity grid.
        path = write_instance(
            tmp_path / "exact.json",
            {"B": 1.0, "delta": 0.0,
             "agents": [{"a": 0.15, "b": 0.15}, {"a": 0.7, "b": 0.7}]},
        )
        code = main(["audit", "--kind", "equispaced-median", "--instance", path,
                     "--strict"])
        assert code == EXIT_OK
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert all(r["best_deviation"][0] == r["best_deviation"][1] for r in reports)

    def test_identity_grid_rejects_sub_slack_interval(self, tmp_path, capsys):
        path = write_instance(
            tmp_path / "almost.json",
            {"B": 1.0, "delta": 0.0,
             "agents": [{"a": 0.3, "b": 0.3000000000001}, {"a": 0.7, "b": 0.7}]},
        )
        code = main(["mechanism", "--kind", "equispaced-median", "--instance", path])
        assert code == EXIT_VALIDATION
        assert "accepts only exact reports" in capsys.readouterr().err

    def test_oversized_mechanism_grid_exit_code(self, tmp_path, capsys):
        path = write_instance(
            tmp_path / "narrow.json",
            {"B": 1.0, "delta": 1e-300, "agents": [{"a": 0.5, "b": 0.5}]},
        )
        code = main(["mechanism", "--kind", "equispaced-median", "--instance", path])
        assert code == EXIT_ORACLE_SCALE
        assert "oracle scale exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("agents,message", [
        ([{"a": 0.1, "b": 0.2}, {"a": None, "b": 0.3}], "malformed instance file"),
        ([{"a": 0.1, "b": 0.2}, {"a": "0.2", "b": "0.3"}], "malformed instance file"),
        ([{"a": 0.1, "b": 0.2}, [0.2, 0.3, 0.4]], "malformed instance file"),
        ([{"a": math.inf, "b": math.inf}], "agent 0: right endpoint inf above B=1.0"),
        ([{"a": -1e308, "b": 1e308}], "agent 0: left endpoint -1e+308 below 0"),
        ([{"a": 0.1, "b": 0.2}, {"a": 0.5, "b": 0.4}, {"a": math.nan, "b": 0.1}],
         "agent 1: left endpoint 0.5 exceeds right endpoint 0.4"),
        ([{"a": False, "b": 0.1}], "agent 0: a must be a number, got False"),
        ([{"a": 0.1, "b": 0.2}, {"a": 0.0, "b": True}],
         "agent 1: b must be a number, got True"),
    ], ids=["none", "strings", "three-element", "inf-inf", "overflowing-width",
            "first-bad-agent", "bool-a", "bool-b"])
    def test_bad_entries_print_one_error_line(self, agents, message, tmp_path, capsys):
        path = write_instance(
            tmp_path / "bad.json", {"B": 1.0, "delta": 0.2, "agents": agents}
        )
        assert main(["mechanism", "--kind", "equispaced-median",
                     "--instance", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert not captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]

    def test_oversized_deviation_scan_exit_code(self, tmp_path, capsys):
        # Pitch 1e-6 gives about 1e6 candidate endpoints, each with about
        # 1e5 partners within delta = 0.1: refused from the count, before
        # the scan.
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "3", "--B", "1", "--delta", "0.1",
                     "--seed", "3", "--out", path]) == EXIT_OK
        code = main(["audit", "--kind", "equispaced-median", "--instance", path,
                     "--pitch", "1e-6", "--agent", "1"])
        assert code == EXIT_ORACLE_SCALE
        captured = capsys.readouterr()
        assert "a deviation scan over" in captured.err and not captured.out
