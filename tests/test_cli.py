"""End-to-end CLI tests through main(argv)."""

import json

import pytest

from stepgate import GateConfig, SimReport, StepTrace, load_builtin, run_stepwise
from stepgate.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_select_table(capsys):
    code, out, err = run_cli(capsys, "select", "prostate")
    assert code == 0 and err == ""
    assert "selected: lcavol, lweight, svi" in out
    assert "termination: gate_failed" in out
    assert out.splitlines()[0].split() == ["step", "covariate", "k0", "statistic", "p-value", "included"]


def test_rank_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "rank", "prostate", "--format", "json")
    assert code == 0
    trace = StepTrace.from_dict(json.loads(out))
    ds, _ = load_builtin("prostate")
    assert trace == run_stepwise(ds, GateConfig(exhaustive=True))


def test_rank_m_sigma_column_and_override(capsys):
    code, out, _ = run_cli(capsys, "rank", "prostate", "--method", "m",
                           "--sigma", "1.0", "--format", "json")
    assert code == 0
    trace = StepTrace.from_dict(json.loads(out))
    assert trace.evaluations[0].sigma == 1.0
    code, out, _ = run_cli(capsys, "rank", "prostate", "--method", "m", "--max-steps", "1")
    assert code == 0
    assert "sigma" in out.splitlines()[0]


def test_perturb_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "perturb", "prostate", "--perturb", "1=10")
    assert code == 0
    assert "=== original ===" in out
    assert "=== perturbed: y(1) = 10 ===" in out
    assert "order diff" in out

    code, out, _ = run_cli(capsys, "perturb", "prostate", "--perturb", "1=10",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["perturbation"] == {"index": 1, "value": 10.0}
    before = StepTrace.from_dict(payload["original"])
    after = StepTrace.from_dict(payload["perturbed"])
    order_a = [e.chosen_covariate for e in before.evaluations]
    order_b = [e.chosen_covariate for e in after.evaluations]
    reported = {d["position"] for d in payload["order_diff"]}
    actual = {i + 1 for i, (a, b) in enumerate(zip(order_a, order_b)) if a != b}
    assert reported == actual
    assert actual  # y(1)=10 must reshuffle the prostate ranking


def test_custom_csv_dataset(tmp_path, capsys):
    import numpy as np

    from stepgate import Dataset, write_csv

    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(50)
    x2 = rng.standard_normal(50)
    ds = Dataset("custom", 3.0 * x1 + rng.standard_normal(50), {"x1": x1, "x2": x2})
    csv_path = tmp_path / "custom.csv"
    write_csv(ds, str(csv_path))
    (tmp_path / "custom.manifest.json").write_text(json.dumps({
        "name": "custom",
        "response_column": "y",
        "covariate_columns": ["x1", "x2"],
    }))
    code, out, _ = run_cli(capsys, "select", str(csv_path))
    assert code == 0
    assert "selected: x1" in out


def test_simulate_null_table_and_json(capsys):
    args = ("simulate", "--experiment", "null", "--n", "25", "--k", "3",
            "--reps", "20", "--seed", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "inclusion_rate:" in out and "ks_distance_chisq:" in out
    code, out2, _ = run_cli(capsys, *args)
    assert out2 == out  # seeded: byte-identical reruns

    code, out, _ = run_cli(capsys, *args, "--format", "json")
    payload = json.loads(out)
    assert payload["experiment"] == "null"
    report = SimReport.from_dict(payload["report"])
    assert report.replication_count == 20


def test_simulate_noise(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--experiment", "noise",
                           "--n", "30", "--reps", "15", "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["replication_count"] == 15


@pytest.mark.parametrize("argv", [
    ("simulate", "--experiment", "null", "--n", "25", "--reps", "5"),  # missing --k
    ("simulate", "--experiment", "noise", "--n", "25", "--reps", "5", "--k", "2"),
    ("simulate", "--experiment", "noise", "--n", "25", "--reps", "5", "--method", "m"),
    ("select", "no_such_file.csv"),
    ("select", "prostate", "--manifest", "whatever.json"),
    ("perturb", "prostate", "--perturb", "first=10"),
    ("simulate", "--experiment", "null", "--n", "0", "--k", "2", "--reps", "5"),
    (),
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_computational_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "select", "prostate", "--alpha", "1.5")
    assert code == 1
    assert "error [InvalidInputError]" in err
