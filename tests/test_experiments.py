import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ddrloc.cli import main
from ddrloc.experiments import (FIG2_CUSTOMERS, FIG2_FACILITIES,
                                ExperimentConfig, fixture_figure2,
                                generate_instance, run)
from ddrloc.instance import load_problem, validate


def test_generate_instance_parameter_ranges():
    cfg = ExperimentConfig(n_facilities=8, n_customers=12, seed=4)
    inst, model = generate_instance(cfg)
    assert np.all((inst.open_cost >= 5000) & (inst.open_cost <= 10000))
    assert np.all((inst.capacity >= 10) & (inst.capacity <= 20))
    assert np.all((model.bar_mu >= 20) & (model.bar_mu <= 40))
    np.testing.assert_allclose(model.bar_sigma, model.bar_mu)   # cv^2 = 1
    assert np.all((inst.facility_coords >= 0) & (inst.facility_coords <= 100))
    assert model.support[0] == 1.0 and model.support[-1] == 100.0
    assert model.support_size == 100
    assert np.all(inst.penalty == 225.0) and np.all(inst.revenue == 150.0)
    assert validate(inst, model) == []
    # dependency rows normalized to one half
    assert model.lambda_mu.sum(axis=1) == pytest.approx(0.5, abs=1e-12)


def test_generate_instance_cv2_and_kappa():
    cfg = ExperimentConfig(n_facilities=4, n_customers=5, cv2=0.1, kappa=0.2)
    inst, model = generate_instance(cfg)
    np.testing.assert_allclose(model.bar_sigma ** 2, 0.1 * model.bar_mu ** 2)
    np.testing.assert_allclose(model.eps_mu, 0.2 * model.bar_mu)
    assert np.all(model.eps_sigma_lo == 0.8) and np.all(model.eps_sigma_hi == 1.2)


def test_generate_instance_deterministic():
    cfg = ExperimentConfig(n_facilities=5, n_customers=7, seed=123)
    a_inst, a_model = generate_instance(cfg)
    b_inst, b_model = generate_instance(cfg)
    np.testing.assert_array_equal(a_inst.cost, b_inst.cost)
    np.testing.assert_array_equal(a_model.bar_mu, b_model.bar_mu)


def test_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        ExperimentConfig(n_facilities=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(lambda_recipe="nope").validate()
    with pytest.raises(ValueError, match="multiple"):
        ExperimentConfig(dist="perturbed", n_test=45).validate()
    ExperimentConfig(dist="perturbed", n_test=40).validate()
    cfg = ExperimentConfig(n_facilities=3, rho=2, lambda_recipe="rho-means")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.digest() == ExperimentConfig.from_dict(cfg.to_dict()).digest()


def test_fixture_figure2_layout():
    inst = fixture_figure2()
    assert inst.n_facilities == 10 and inst.n_customers == 20
    assert tuple(inst.facility_coords[0]) == (54.0, 27.0)
    assert tuple(inst.customer_coords[1]) == (81.0, 33.0)
    # Euclidean cost facility 1 -> customer 2
    assert inst.cost[0, 1] == pytest.approx(math.hypot(27, 6), abs=1e-9)
    assert FIG2_FACILITIES[0] == (54, 27) and FIG2_CUSTOMERS[0] == (43, 94)


def _tiny_config(tmp_path, seed=3):
    return ExperimentConfig(n_facilities=4, n_customers=6, support_size=10,
                            seed=seed, sp_scenarios=(5, 10), n_test=50,
                            out=str(tmp_path))


def test_run_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = _tiny_config(tmp_path / "a")
    run_dir = run(cfg)
    names = sorted(os.listdir(run_dir))
    assert names == ["compare.csv", "compare.txt", "manifest.json",
                     "plans", "problem.json"]
    manifest = json.loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert manifest["config_hash"] == cfg.digest()
    assert manifest["config"] == cfg.to_dict()
    plan = json.loads(open(os.path.join(run_dir, "plans", "DDDR.json")).read())
    assert plan["open_facilities"] == sorted(plan["open_facilities"])
    # byte identical rerun
    other = run(_tiny_config(tmp_path / "b"))
    a = open(os.path.join(run_dir, "compare.csv"), "rb").read()
    b = open(os.path.join(other, "compare.csv"), "rb").read()
    assert a == b


def test_cli_gen_solve_evaluate_export(tmp_path, capsys):
    prob = str(tmp_path / "p.json")
    assert main(["gen", "--size", "3,5", "--seed", "2",
                 "--support", "1,100,8", "--out", prob]) == 0
    inst, model = load_problem(prob)
    assert inst.n_facilities == 3 and model.support_size == 8

    plan = str(tmp_path / "plan.json")
    assert main(["solve", "--problem", prob, "--method", "dddr",
                 "--out", plan]) == 0
    doc = json.loads(open(plan).read())
    assert doc["method"] == "dddr" and "objective" in doc

    assert main(["evaluate", "--problem", prob, "--plan", plan,
                 "--dist", "normal", "--n", "40",
                 "--out", str(tmp_path / "eval.csv")]) == 0
    lines = open(tmp_path / "eval.csv").read().strip().split("\n")
    assert lines[0] == "statistic,value"

    lp = str(tmp_path / "m.lp")
    assert main(["export-lp", "--problem", prob, "--out", lp]) == 0
    assert open(lp).read().startswith("\\ Problem:")

    assert main(["fixture", "--out", str(tmp_path / "fix.json")]) == 0
    fix = json.loads(open(tmp_path / "fix.json").read())
    assert len(fix["facilities"]) == 10 and len(fix["customers"]) == 20
    capsys.readouterr()


def _evaluate_setup(tmp_path):
    prob = str(tmp_path / "p.json")
    assert main(["gen", "--size", "3,5", "--seed", "2", "--support", "1,100,8",
                 "--kappa", "0.2", "--out", prob]) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"open_facilities": [1, 3]}))
    return prob, str(plan)


def test_cli_evaluate_perturbed_honours_n(tmp_path, capsys):
    prob, plan = _evaluate_setup(tmp_path)
    assert main(["evaluate", "--problem", prob, "--plan", plan,
                 "--dist", "perturbed", "--n", "40"]) == 0
    assert "scenarios: 40 (perturbed)" in capsys.readouterr().out


def test_cli_evaluate_csv_matches_pinned_file(tmp_path, capsys):
    # 1000 perturbed scenarios (10 blocks of 100) and the twelve statistics
    # in table order, byte for byte
    prob, plan = _evaluate_setup(tmp_path)
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--problem", prob, "--plan", plan,
                 "--dist", "perturbed", "--seed", "4", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "evaluate_perturbed.csv"
    assert out.read_bytes() == golden.read_bytes()
    capsys.readouterr()


def test_cli_compare(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "average objective" in out and "artifacts in" in out


def test_cli_solve_sp_and_dr(tmp_path, capsys):
    prob = str(tmp_path / "p.json")
    main(["gen", "--size", "3,4", "--seed", "5", "--support", "1,100,8",
          "--out", prob])
    assert main(["solve", "--problem", prob, "--method", "sp",
                 "--scenarios", "10"]) == 0
    assert main(["solve", "--problem", prob, "--method", "dr",
                 "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "sp: objective" in out and "dr: objective" in out
