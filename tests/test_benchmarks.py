import numpy as np
import pytest

from conftest import random_problem, toy_instance, toy_model
from ddrloc.benchmarks import (ComparisonConfig, PERCENTILE_LEVELS,
                               ScenarioSet, compare_methods, evaluate_plan,
                               gen_gamma, gen_normal, gen_perturbed,
                               gen_scenarios, order_statistic, train_sp)
from ddrloc.instance import apply_robustness_level, means_vector
from ddrloc.milp import build_sp_saa
from ddrloc.solvers import branch_and_bound, simplex_solve
from ddrloc.transport import second_stage_costs


def test_scenario_set_invariants():
    with pytest.raises(ValueError):
        ScenarioSet(np.ones((0, 2)), np.ones(0), 0, "normal")
    with pytest.raises(ValueError):
        ScenarioSet(np.ones((2, 2)), np.array([0.7, 0.7]), 0, "normal")
    with pytest.raises(ValueError):
        ScenarioSet(-np.ones((2, 2)), np.array([0.5, 0.5]), 0, "normal")


def test_gen_normal_degenerate_and_clamped():
    inst, model = random_problem(1, 3, 4)
    y = np.array([1, 0, 0])
    frozen = model.replace(bar_sigma=np.zeros(4),
                           lambda_sigma=np.zeros_like(model.lambda_sigma))
    scen = gen_normal(frozen, y, n=5, seed=0)
    np.testing.assert_allclose(scen.demands,
                               np.tile(means_vector(frozen, y), (5, 1)))
    wild = model.replace(bar_mu=np.full(4, 1.0), bar_sigma=np.full(4, 100.0),
                         lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    scen = gen_normal(wild, y, n=200, seed=0)
    assert np.all(scen.demands >= 0)
    assert np.any(scen.demands == 0)       # negative raw draws were clamped


def test_gen_normal_moments_clt():
    # low coefficient of variation so the clamp at zero never bites
    inst, model = random_problem(2, 3, 4, cv2=0.01)
    y = np.array([1, 1, 0])
    scen = gen_normal(model, y, n=100_000, seed=7)
    mu = means_vector(model, y)
    from ddrloc.instance import variances_vector
    sigma = np.sqrt(variances_vector(model, y))
    se = sigma / np.sqrt(scen.n_scenarios)
    assert np.all(np.abs(scen.demands.mean(axis=0) - mu) < 3.5 * se)


def test_gen_gamma_parameters_and_moments():
    inst, _ = random_problem(3, 1, 1)
    model = toy_model(inst, bar_mu=[30.0], bar_sigma=[30.0])
    # theta = 900/30 = 30, shape = 1: exponential with mean 30
    scen = gen_gamma(model, [0], n=100_000, seed=1)
    assert scen.demands.mean() == pytest.approx(30.0, rel=0.02)
    assert scen.demands.var() == pytest.approx(900.0, rel=0.05)
    model2 = toy_model(inst, bar_mu=[9.0], bar_sigma=[3.0])   # mu == sigma^2
    scen2 = gen_gamma(model2, [0], n=50_000, seed=2)
    assert scen2.demands.mean() == pytest.approx(9.0, rel=0.03)


def test_gen_perturbed_defaults_and_reduction():
    inst, model = random_problem(4, 3, 4)
    y = np.array([0, 1, 1])
    robust = apply_robustness_level(model, 0.3)
    scen = gen_perturbed(robust, y, seed=9)
    assert scen.n_scenarios == 1000        # 10 reps of 100
    base = apply_robustness_level(model, 0.0)
    assert np.array_equal(gen_perturbed(base, y, seed=9).demands,
                          gen_normal(base, y, n=1000, seed=9).demands)


def test_gen_perturbed_honours_n():
    inst, model = random_problem(4, 3, 4)
    y = np.array([0, 1, 1])
    robust = apply_robustness_level(model, 0.3)
    assert gen_perturbed(robust, y, n=40, seed=9).n_scenarios == 40
    scen = gen_scenarios(robust, y, "perturbed", 40, 9)
    assert scen.n_scenarios == 40 and scen.generator == "perturbed"
    with pytest.raises(ValueError, match="multiple"):
        gen_perturbed(robust, y, n=45, seed=9)


def test_generators_reproducible():
    inst, model = random_problem(5, 3, 4)
    y = np.array([1, 0, 1])
    for gen in (gen_normal, gen_gamma):
        a, b = gen(model, y, n=50, seed=3), gen(model, y, n=50, seed=3)
        np.testing.assert_array_equal(a.demands, b.demands)
        assert not np.array_equal(a.demands, gen(model, y, n=50, seed=4).demands)


def test_order_statistic_convention():
    vals = np.arange(1.0, 101.0)           # 1..100
    assert order_statistic(vals, 95) == 96.0   # 5th largest
    assert order_statistic(vals, 50) == 51.0
    assert order_statistic(np.array([7.0]), 95) == 7.0


def test_evaluate_plan_trivial_cases():
    inst, model = random_problem(6, 3, 4)
    y = np.array([1, 1, 0])
    zeros = ScenarioSet(np.zeros((4, 4)), np.full(4, 0.25), 0, "manual")
    rep = evaluate_plan(inst, y, zeros)
    assert rep.mean_objective == pytest.approx(float(inst.open_cost @ y))
    assert rep.mean_unmet == 0.0
    one = ScenarioSet(np.full((1, 4), 30.0), np.ones(1), 0, "manual")
    rep1 = evaluate_plan(inst, y, one)
    assert rep1.std_objective == 0.0
    assert all(v == rep1.mean_objective
               for v in rep1.objective_percentiles.values())


def test_evaluate_plan_statistics_structure():
    inst, model = random_problem(7, 3, 4)
    y = np.array([1, 0, 1])
    scen = gen_normal(model, y, n=300, seed=11)
    rep = evaluate_plan(inst, y, scen)
    assert rep.objectives.min() <= rep.mean_objective <= rep.objectives.max()
    # worst-tail convention: percentile values decrease with the level
    ps = [rep.objective_percentiles[q] for q in PERCENTILE_LEVELS]
    assert ps == sorted(ps, reverse=True)
    # permutation invariance
    perm = np.random.default_rng(0).permutation(300)
    shuffled = ScenarioSet(scen.demands[perm], scen.probabilities, 0, "manual")
    rep2 = evaluate_plan(inst, y, shuffled)
    assert rep2.mean_objective == pytest.approx(rep.mean_objective)
    assert rep2.objective_percentiles == rep.objective_percentiles


def test_evaluate_matches_restricted_scenario_lp():
    inst, model = random_problem(8, 3, 4)
    y = np.array([0, 1, 1])
    scen = gen_normal(model, y, n=6, seed=13)
    rep = evaluate_plan(inst, y, scen)
    m = build_sp_saa(inst, scen)
    over = {nm: (float(v), float(v)) for nm, v in zip(m.meta["y_vars"], y)}
    sol = simplex_solve(m.with_bounds(over, relax_binaries=True))
    assert sol.objective == pytest.approx(rep.mean_objective, rel=1e-9)


def test_train_sp_enumeration_matches_milp():
    inst, model = random_problem(9, 3, 4, support_size=6)
    y_enum = train_sp(inst, model, 15, seed=5)
    rng = np.random.default_rng(5)
    draws = np.maximum(rng.normal(model.bar_mu, model.bar_sigma, (15, 4)), 0.0)
    m = build_sp_saa(inst, draws)
    sol = branch_and_bound(m)
    obj_enum = float(inst.open_cost @ y_enum
                     + second_stage_costs(inst, y_enum, draws).mean())
    assert obj_enum == pytest.approx(sol.objective, rel=1e-9)


def test_compare_methods_output_shape():
    inst, model = random_problem(10, 4, 6, support_size=8)
    result = compare_methods(inst, model, ComparisonConfig(
        sp_sizes=(5, 10), n_test=100, seed=2))
    assert result.methods == ("SP(5)", "SP(10)", "DR", "DDDR")
    csv = result.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "method,statistic,value"
    assert len(lines) == 1 + 4 * 12        # 12 statistics per method
    txt = result.to_text()
    assert "average objective" in txt and "DDDR" in txt


def test_compare_methods_dr_equals_dddr_without_dependence():
    inst, model = random_problem(15, 3, 4, support_size=8)
    flat = model.replace(lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    result = compare_methods(inst, flat, ComparisonConfig(
        sp_sizes=(5,), n_test=50, seed=1))
    assert result.plans["DR"] == result.plans["DDDR"]
