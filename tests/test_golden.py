"""Byte-level pins of experiment CSVs and of solve, mechanism, audit and
attack JSON.

Criterion 10 only checks that two runs agree; these digests pin the bytes
themselves.  The CSV and solve digests were recorded before the sorted
endpoint view became a per-instance cache; the mechanism and audit digests
(stdout plus exit code) before the equispaced kinds stopped building an
identity grid at delta = 0; the attack digests (stdout plus exit code)
before ``agent_max_regret`` came to take the two endpoint outcomes.  A
digest that stops matching means an output changed: find out why, never
re-pin it to make the test pass.
"""

import hashlib

import pytest

from robustloc import Objective
from robustloc.cli import EXIT_OK, ExperimentConfig, main, rows_to_csv, run_experiment


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


AVG_CONFIG = ExperimentConfig(  # criterion 10, average cost
    seed=123456789,
    trials=5,
    n_values=(1, 3, 5),
    B=1.0,
    delta_values=(0.1, 0.3),
    objective=Objective.AVG_COST,
    mechanisms=(
        {"kind": "equispaced-median"},
        {"kind": "constant", "location": 0.5},
    ),
    oracle_step=None,
)
MAX_CONFIG = ExperimentConfig(  # criterion 10, maximum cost
    seed=987,
    trials=3,
    n_values=(2, 4),
    B=1.0,
    delta_values=(0.2,),
    objective=Objective.MAX_COST,
    mechanisms=({"kind": "equispaced-phantom-half"},),
    oracle_step=None,
)
ORACLE_CONFIG = ExperimentConfig(
    seed=123456789,
    trials=2,
    n_values=(1, 3, 5),
    B=1.0,
    delta_values=(0.1, 0.3),
    objective=Objective.AVG_COST,
    mechanisms=({"kind": "equispaced-median"},),
    oracle_step=0.01,
)


@pytest.mark.parametrize("config,digest", [
    (AVG_CONFIG, "bcca41d79627d09fd8e077af1d0347fd5184840053885503b2b3e010b3a51f0f"),
    (MAX_CONFIG, "ffd7896d1f944068ae582e2aefaf45a4712f266ea60c2accb8042c8d14137887"),
    (ORACLE_CONFIG, "1f7baf667c5fab4882eb40648d97418a30c006543cbaedcf0b3c36dbd9abf124"),
], ids=["avg", "max", "oracle-step"])
def test_experiment_csv_bytes(config, digest):
    csv = rows_to_csv(run_experiment(config))
    assert sha256(csv) == digest


@pytest.mark.parametrize("objective,digest", [
    ("avg", "0bd093bc8ecaf86034a494c66fd83777ee7fd0275a474137e00334693a4023ec"),
    ("max", "2c34c1206a403bfe9e5605302f52b369bfdae88ed95963922849c4ddf1b3eb0d"),
])
def test_solve_json_bytes(objective, digest, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--n", "3", "--B", "1", "--delta", "0.2", "--seed", "7",
                 "--out", inst]) == EXIT_OK
    assert main(["solve", "--objective", objective, "--instance", inst,
                 "--oracle-step", "1e-3", "--brute-step", "0.01"]) == EXIT_OK
    assert sha256(capsys.readouterr().out) == digest


KINDS = [
    "constant", "exact-median", "exact-phantom-half",
    "equispaced-median", "equispaced-phantom-half",
]
# (command, kind, delta) -> digest of the exit code and stdout; the
# exact kinds refuse the delta = 0.2 instance (exit 2, empty stdout).
COMMAND_DIGESTS = {
    ("mechanism", "constant", "0"):  # exit 0
        "cb03e0efab80ee3975ec83223ce1cf1e787991e8db63ea4ef8d143e5107fc546",
    ("mechanism", "constant", "0.2"):  # exit 0
        "cb03e0efab80ee3975ec83223ce1cf1e787991e8db63ea4ef8d143e5107fc546",
    ("mechanism", "exact-median", "0"):  # exit 0
        "3faa6e1185df235cb80ea59cf651c2ee436df2676acf5c442c307029ad3f0375",
    ("mechanism", "exact-median", "0.2"):  # exit 2
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("mechanism", "exact-phantom-half", "0"):  # exit 0
        "f2629787d5567c0891e8a4ec854e4fc6c4792429ea55ee569dbe0e2d086b2327",
    ("mechanism", "exact-phantom-half", "0.2"):  # exit 2
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("mechanism", "equispaced-median", "0"):  # exit 0
        "aebc08b158d50a54275ddbd2a9b2f3aeb0468db12c4b520fccd416c03c401f72",
    ("mechanism", "equispaced-median", "0.2"):  # exit 0
        "d4fcb7f5edb7a2ff4c7043e9acf31a5e10927a6d2d94277d4d00fe8ba0a00879",
    ("mechanism", "equispaced-phantom-half", "0"):  # exit 0
        "3eecf7236b71db82bc611667d087ba3615d34eaf8a263ba09afea99ed17dbb22",
    ("mechanism", "equispaced-phantom-half", "0.2"):  # exit 0
        "364c04449eb2ac99612eef5ba57063985e95e6d500aefc430d9f49a77b3e5a25",
    ("audit", "constant", "0"):  # exit 0
        "ce6587b1dc4e163352e660afd0dd570b83475657546866be636b6ff6589cc40a",
    ("audit", "constant", "0.2"):  # exit 0
        "ce6587b1dc4e163352e660afd0dd570b83475657546866be636b6ff6589cc40a",
    ("audit", "exact-median", "0"):  # exit 0
        "6d00aafe0d19b44eb2b957d812e6153a548dcff8a9899a5835bb2b892bd3c9e3",
    ("audit", "exact-median", "0.2"):  # exit 2
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("audit", "exact-phantom-half", "0"):  # exit 0
        "a3636ff34495c157f5aec43127c91ed8c96e22cde8287eb7383683a3a3ca206c",
    ("audit", "exact-phantom-half", "0.2"):  # exit 2
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("audit", "equispaced-median", "0"):  # exit 0
        "10d6b2e30f486e62fb6a5246dbf270b1cd809e309b49794f40846c392a13d5a0",
    ("audit", "equispaced-median", "0.2"):  # exit 0
        "2e272b73124322926a5d6e2bdfa8909d1071d6240b15cee2adf6256110cb7b3d",
    ("audit", "equispaced-phantom-half", "0"):  # exit 0
        "fe77dabe9d1b83506e39448a67a1ec401799732491902115b2b9a9cb8a5b29cf",
    ("audit", "equispaced-phantom-half", "0.2"):  # exit 0
        "3bd4160336aa3fda5125a4910aebdfebb751d32d0a46840fe6960c2f7451904a",
}


@pytest.mark.parametrize("delta", ["0", "0.2"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("command", ["mechanism", "audit"])
def test_mechanism_and_audit_json_bytes(command, kind, delta, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--n", "5", "--B", "1", "--delta", delta, "--seed", "3",
                 "--out", inst]) == EXIT_OK
    code = main([command, "--kind", kind, "--instance", inst])
    digest = sha256(f"{code}\n{capsys.readouterr().out}")
    assert digest == COMMAND_DIGESTS[command, kind, delta]


# The README's four attack examples -> digest of the exit code (0) and stdout.
ATTACK_DIGESTS = {
    ("vwd-chain", "--delta", "0.2", "--eps", "0.05", "--eps1", "0.01"):
        "02e1fa34a506ceeab024f1c6b192a3a31caccfc1364c062eab8e9cd65c764a2f",
    ("finite-range", "--delta", "0.2", "--g", "0.3,0.4,0.5,0.6",
     "--gamma", "0.002", "--n", "21", "--case", "one"):
        "f1f579c0282d45a76b8fba35c3ab7fe3ca9c108c1c81992568835feae62b48bf",
    ("onto", "--delta", "0.1", "--yj", "0.2", "--ell", "0.3", "--r", "0.38",
     "--eps", "0.02", "--n", "4"):
        "0ea600bf2b39cd98786c9b2741bbd01c1556859ba770422d5f6874b697449a66",
    ("fine-grid", "--delta", "0.2", "--spacing", "0.05", "--n", "3"):
        "1d0e1704203e6e4e9e74ef0f3913a5fb549bd30f6779990fb5a4a54ca7a119be",
}


@pytest.mark.parametrize("argv", list(ATTACK_DIGESTS), ids=lambda argv: argv[0])
def test_attack_json_bytes(argv, capsys):
    code = main(["attack", "--family", *argv])
    digest = sha256(f"{code}\n{capsys.readouterr().out}")
    assert digest == ATTACK_DIGESTS[argv]
