"""Byte-level pins of experiment CSVs and solve JSON.

Criterion 10 only checks that two runs agree; these digests pin the bytes
themselves.  They were recorded before the sorted endpoint view became a
per-instance cache.  A digest that stops matching means an output changed:
find out why, never re-pin it to make the test pass.
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
    csv = rows_to_csv(
        run_experiment(config), with_oracle=config.oracle_step is not None
    )
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
