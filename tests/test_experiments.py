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
    for dist, n_test in (("normal", 0), ("gamma", -1), ("perturbed", 0),
                         ("perturbed", -10)):
        with pytest.raises(ValueError, match=f"got n_test={n_test}"):
            ExperimentConfig(dist=dist, n_test=n_test).validate()
    ExperimentConfig(n_test=1).validate()
    with pytest.raises(ValueError, match="SP sample size"):
        ExperimentConfig(sp_scenarios=(20, 0)).validate()
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        ExperimentConfig(budget=-1).validate()
    ExperimentConfig(budget=0, sp_scenarios=(1,)).validate()
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


def test_cli_gen_defaults_are_the_config_defaults():
    from ddrloc.cli import _config_from_gen_args, build_parser
    args = build_parser().parse_args(["gen", "--size", "3,4", "--out", "p.json"])
    assert _config_from_gen_args(args) == ExperimentConfig(n_facilities=3, n_customers=4)


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
    assert sorted(doc) == ["method", "objective", "open_facilities"]
    assert doc["method"] == "dddr"

    assert main(["evaluate", "--problem", prob, "--plan", plan,
                 "--dist", "normal", "--n", "40",
                 "--out", str(tmp_path / "eval.csv")]) == 0
    lines = open(tmp_path / "eval.csv").read().strip().split("\n")
    assert lines[0] == "statistic,value"

    # export-lp writes the paper's robust MILP, cuts included
    from ddrloc.milp import build_dddr, export_lp_text
    lp = tmp_path / "m.lp"
    assert main(["export-lp", "--problem", prob, "--out", str(lp), "--budget", "2"]) == 0
    assert lp.read_text() == export_lp_text(build_dddr(inst, model, budget=2))
    assert lp.read_text().startswith("\\ Problem:") and " cut_ray1_" in lp.read_text()

    assert main(["fixture", "--out", str(tmp_path / "fix.json")]) == 0
    fix = json.loads(open(tmp_path / "fix.json").read())
    assert len(fix["facilities"]) == 10 and len(fix["customers"]) == 20
    capsys.readouterr()


def test_fixture_output_bytes_pinned(tmp_path, capsys):
    # tests/data/fixture_figure2.json holds the site layout `ddrloc fixture`
    # wrote before its lists moved to instance.sites_to_dict.
    golden = (Path(__file__).parent / "data" / "fixture_figure2.json").read_bytes()
    out = tmp_path / "fix.json"
    assert main(["fixture", "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    capsys.readouterr()
    assert main(["fixture"]) == 0
    assert capsys.readouterr().out.encode() == golden


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


def test_cli_gen_and_evaluate_report_bad_inputs(tmp_path, capsys):
    prob = str(tmp_path / "bad.json")
    for args, message in (
            (["--kappa", "2"], "kappa must lie in [0, 1]"),
            (["--size", "0,4"], "need at least one facility and one customer"),
            (["--lambda-row-sum", "1.0"], "target_row_sum must lie in (0, 1)"),
            (["--lambda-recipe", "rho-means", "--rho", "9"], "rho must be between 1 and 3"),
            (["--support", "1,20"], "support must be 'min,max,K', got '1,20'")):
        assert main(["gen", "--size", "3,5", *args, "--out", prob]) == 1
        assert capsys.readouterr().err.startswith(f"gen failed: {message}")
    assert not os.path.exists(prob)
    prob, plan = _evaluate_setup(tmp_path)
    capsys.readouterr()
    for args, message in (
            (["--dist", "perturbed", "--n", "15"], "n=15 is not a multiple of 10"),
            (["--n", "0"], "need at least one scenario, got n=0")):
        out = str(tmp_path / "eval.csv")
        assert main(["evaluate", "--problem", prob, "--plan", plan, *args,
                     "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evaluate failed: ") and message in err
        assert not os.path.exists(out)


def test_cli_evaluate_reports_bad_plan_files(tmp_path, capsys):
    # a plan naming facilities the problem lacks, or naming none, is refused
    # rather than scored as some other plan
    prob, plan = _evaluate_setup(tmp_path)
    capsys.readouterr()
    for doc, message in (
            ({"open_facilities": [99, 1]}, "opens facilities the problem lacks: [99]"),
            ({"open_facilities": ["1", True, 3.0]},
             "opens facilities the problem lacks: ['1', True, 3.0]"),
            ({}, "has no open_facilities list"),
            ({"open_facilities": 1}, "has no open_facilities list"),
            ([1, 3], "has no open_facilities list")):
        Path(plan).write_text(json.dumps(doc))
        assert main(["evaluate", "--problem", prob, "--plan", plan]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"evaluate failed: plan file {plan} ") and message in err
        assert err.count("\n") == 1


def test_cli_reports_unreadable_files(tmp_path, capsys):
    prob, plan = _evaluate_setup(tmp_path)
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    for argv in (["solve", "--problem", missing, "--method", "dddr"],
                 ["evaluate", "--problem", prob, "--plan", missing],
                 ["compare", "--config", missing]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]} failed: ") and "No such file" in err
        assert err.count("\n") == 1


def test_cli_compare(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "average objective" in out and "artifacts in" in out


def test_cli_compare_reports_bad_configs(tmp_path, capsys):
    cfg = _tiny_config(tmp_path / "runs").to_dict()
    cfg_path = tmp_path / "config.json"
    wrong = "config values of the wrong type"
    for extra, message in (
            ({"solver": "auto"}, "unknown config keys: solver"),
            ({"export_lp": False}, "unknown config keys: export_lp"),
            ({"bogus": 1}, "unknown config keys: bogus"),
            ({"sp_scenarios": 5, "n_facilities": "4"},
             f"{wrong}: n_facilities, sp_scenarios"),
            ({"lambda_recipe": 1, "budget": 1.5}, f"{wrong}: budget, lambda_recipe"),
            ({"n_facilities": True, "kappa": False}, f"{wrong}: kappa, n_facilities"),
            ({"sp_scenarios": [5, "10"]},
             "every SP sample size must be an integer of at least 1"),
            ({"sp_scenarios": [5, True]},
             "every SP sample size must be an integer of at least 1"),
            ({"kappa": 2.0}, "kappa must lie in [0, 1]"),
            # baseline means of 20 to 40 on the support 1..10: the robust
            # solve finds no plan with a distribution
            ({"n_facilities": 3, "n_customers": 4, "support_max": 10},
             "no plan has a nonempty ambiguity set")):
        cfg_path.write_text(json.dumps({**cfg, **extra}))
        assert main(["compare", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"compare failed: {message}\n"
    # a document that is not an object is refused before any override
    for doc, args in (([1, 2], []), (5, []), ([1, 2], ["--seed", "3"])):
        cfg_path.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(cfg_path), *args]) == 1
        assert capsys.readouterr().err == (f"compare failed: config file {cfg_path} "
                                           "is not a JSON object\n")
    # a config that fails validation, generation or the solve leaves no run
    # directory behind
    assert not (tmp_path / "runs").exists()


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
    # bad inputs are reported, not raised, and export-lp writes no file
    assert main(["solve", "--problem", prob, "--method", "sp",
                 "--scenarios", "0"]) == 1
    assert main(["solve", "--problem", prob, "--method", "dddr",
                 "--budget", "-1"]) == 1
    lp = tmp_path / "m.lp"
    assert main(["export-lp", "--problem", prob, "--out", str(lp), "--budget", "-1"]) == 1
    assert not lp.exists()
    err = capsys.readouterr().err
    assert err.count("solve failed:") == 2 and "at least 1" in err
    assert err.count("solve failed: budget must be nonnegative, got -1") == 1
    assert "export failed: budget must be nonnegative, got -1" in err


def test_cli_solve_reports_malformed_problem_files(tmp_path, capsys):
    prob = tmp_path / "p.json"
    assert main(["gen", "--size", "3,4", "--support", "1,100,8", "--out", str(prob)]) == 0
    good = json.loads(prob.read_text())

    def edited(edit):
        doc = json.loads(prob.read_text())
        edit(doc)
        return doc

    capsys.readouterr()
    for doc, message in (
            ({}, "problem lacks the key 'facilities'"),
            ({**good, "demand": {}}, "problem lacks the key 'bar_mu'"),
            ([], "problem is not a JSON object"),
            ({**good, "facilities": 5}, "problem has a value of the wrong type: "),
            (edited(lambda d: d["demand"]["support"].update(step=0)),
             "support step must be positive, got 0"),
            (edited(lambda d: d["demand"]["support"].update(step=7)),
             "support step 7 does not divide min 1.0 to max 100.0 into equal parts"),
            (edited(lambda d: d["demand"].update(lambda_sigma=[[1.0, 0.5, 0.5]] * 4)),
             "invalid problem data: customer 1: variance dependency row sums to 2, "),
            (edited(lambda d: d["customers"][2].update(p=0.5)),
             "invalid problem data: pair (1, 3): penalty not strictly greater"),
            (edited(lambda d: d["demand"].update(lambda_sigma=[[0.1] * 4] * 4)),
             "invalid problem data: demand model: lambda_sigma has shape (4, 4), not (4, 3)"),
            (edited(lambda d: d["demand"].update(lambda_mu=[0.1] * 12)),
             "invalid problem data: demand model: lambda_mu has shape (12,), not (4, 3)"),
            (edited(lambda d: d["demand"].update(eps_mu=[0.0] * 5)),
             "invalid problem data: demand model: eps_mu has shape (5,), not (4,)"),
            (edited(lambda d: d["demand"].update(bar_sigma=[1.0] * 3)),
             "invalid problem data: demand model: bar_sigma has shape (3,), not (4,)")):
        prob.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(prob), "--method", "dddr"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"solve failed: {message}") and err.count("\n") == 1


def test_cli_solve_reports_every_set_empty(tmp_path, capsys):
    # baseline means of 20 to 40 on the support 1..10: no plan has a distribution
    prob = str(tmp_path / "p.json")
    assert main(["gen", "--size", "3,4", "--seed", "3", "--support", "1,10,5",
                 "--out", prob]) == 0
    assert main(["solve", "--problem", prob, "--method", "dddr"]) == 1
    assert capsys.readouterr().err == ("solve failed: no plan has a nonempty "
                                       "ambiguity set\n")
