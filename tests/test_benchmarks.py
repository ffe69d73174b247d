import math

import numpy as np
import pytest

from conftest import all_plans, random_problem, relaxation, toy_instance, toy_model
from ddrloc.benchmarks import (PERCENTILE_LEVELS, ScenarioSet,
                               compare_methods, evaluate_plan, gen_gamma,
                               gen_normal, gen_perturbed, gen_scenarios,
                               order_statistic, sp_objective, sp_sample,
                               train_sp)
from ddrloc.experiments import ExperimentConfig, generate_instance
from ddrloc.instance import apply_robustness_level, plan_moments
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
    # and the generators refuse an empty or negative request before drawing
    _, model = random_problem(1, 3, 4)
    for gen in (gen_normal, gen_gamma, gen_perturbed):
        for n in (0, -10):
            with pytest.raises(ValueError, match="need at least one scenario"):
                gen(model, np.ones(3), n=n)


def test_gen_normal_degenerate_and_clamped():
    inst, model = random_problem(1, 3, 4)
    y = np.array([1, 0, 0])
    frozen = model.replace(bar_sigma=np.zeros(4),
                           lambda_sigma=np.zeros_like(model.lambda_sigma))
    scen = gen_normal(frozen, y, n=5, seed=0)
    np.testing.assert_allclose(scen.demands,
                               np.tile(plan_moments(frozen, y)[0], (5, 1)))
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
    mu, var = (m[0] for m in plan_moments(model, y))
    sigma = np.sqrt(var)
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
    sol = simplex_solve(relaxation(m, over))
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


def test_train_sp_scenario_milp_route_finds_the_best_plan():
    # Beyond 14 facilities train_sp solves the scenario MILP; its plan must
    # reach the lowest sp_objective among the plans under the budget.
    inst, model = random_problem(5, 15, 6)
    draws = sp_sample(model, 20, seed=7)
    for budget in (None, 2, 1):
        y = train_sp(inst, model, 20, seed=7, budget=budget)
        assert budget is None or y.sum() <= budget
        best = sp_objective(inst, all_plans(inst.n_facilities, budget), draws).min()
        assert sp_objective(inst, y, draws) == pytest.approx(best, rel=1e-9)


def _sp_reference(inst, draws, budget=None):
    """train_sp's ranking, one sp_objective call per plan."""
    best_y, best = None, math.inf
    for y in all_plans(inst.n_facilities, budget):
        obj = sp_objective(inst, y, draws)
        if obj < best - 1e-12:
            best_y, best = y, obj
    return best_y


def test_sp_objective_plan_matrix_matches_one_plan_calls(monkeypatch):
    inst, model = random_problem(21, 5, 6)
    draws = sp_sample(model, 12, seed=3)
    for budget in (None, 2):
        ys = all_plans(inst.n_facilities, budget)
        one = np.array([sp_objective(inst, y, draws) for y in ys])
        assert sp_objective(inst, ys, draws).tobytes() == one.tobytes()
        # Three plans a chunk, so plans straddle chunk boundaries; every plan
        # under the budget is ranked once, in enumeration order.
        ranked = []

        def objective(inst, ys, draws):
            ranked.extend(map(tuple, ys))
            return sp_objective(inst, ys, draws)

        with monkeypatch.context() as m:
            m.setattr("ddrloc.benchmarks.SP_CHUNK_ELEMENTS",
                      3 * len(draws) * (inst.n_facilities + 1))
            m.setattr("ddrloc.benchmarks.sp_objective", objective)
            y = train_sp(inst, model, 12, seed=3, budget=budget)
        assert np.array_equal(ranked, ys)
        assert y.tolist() == _sp_reference(inst, draws, budget).tolist()


def test_train_sp_rejects_empty_sample():
    inst, model = random_problem(12, 3, 4, support_size=7)
    with pytest.raises(ValueError, match="at least 1"):
        train_sp(inst, model, 0, seed=0)


def test_train_sp_tie_rule(monkeypatch):
    # Facilities 1 and 2 are identical and either one alone is optimal: the
    # tie goes to the first tied plan in enumeration order, (0, 1, 0).
    cost = [[10.0, 20.0, 30.0, 15.0], [10.0, 20.0, 30.0, 15.0], [5.0, 5.0, 5.0, 5.0]]
    inst = toy_instance(cost=cost, capacity=[1000.0] * 3, penalty=[225.0] * 4,
                        revenue=[150.0] * 4, open_cost=[100.0, 100.0, 1e6])
    model = toy_model(inst, [30.0] * 4, [30.0] * 4)
    draws = sp_sample(model, 25, seed=4)
    assert (sp_objective(inst, np.array([0, 1, 0]), draws)
            == sp_objective(inst, np.array([1, 0, 0]), draws))
    for budget in (None, 1):
        assert train_sp(inst, model, 25, seed=4, budget=budget).tolist() == [0, 1, 0]
    # A later plan must beat the best so far by more than 1e-12, also when it
    # sits in a later chunk (three plans a chunk here).
    objectives = {(0, 0, 0): 1.0, (0, 0, 1): 1.0 - 5e-13, (0, 1, 0): 0.5,
                  (0, 1, 1): 0.5 - 5e-13, (1, 0, 0): 0.5 - 3e-12,
                  (1, 0, 1): 0.5 - 3.5e-12, (1, 1, 0): 0.75, (1, 1, 1): 0.5 - 3e-12}
    monkeypatch.setattr("ddrloc.benchmarks.sp_objective",
                        lambda inst, ys, draws: np.array([objectives[tuple(y)] for y in ys]))
    monkeypatch.setattr("ddrloc.benchmarks.SP_CHUNK_ELEMENTS", 3 * 25 * 4)
    assert train_sp(inst, model, 25, seed=4).tolist() == [1, 0, 0]


@pytest.mark.parametrize("seed, plans", [(0, {20: [0, 1, 3, 8, 9], 100: [0, 1, 3, 8, 9]}),
                                         (3, {20: [0, 1, 5, 9], 100: [1, 3, 5, 9]})])
def test_train_sp_pinned_on_criterion_7_configs(seed, plans):
    # Criterion 7's SP(20) and SP(100) at I=10: the batched ranking picks the
    # plan of one sp_objective call per plan, and the open facilities of that
    # plan are pinned.
    inst, model = generate_instance(ExperimentConfig(
        n_facilities=10, n_customers=20, support_size=20, seed=seed,
        penalty=225.0, lambda_row_sum=0.99))
    for n_scen, offset in ((20, 1000), (100, 2000)):
        y = train_sp(inst, model, n_scen, seed=seed + offset)
        want = _sp_reference(inst, sp_sample(model, n_scen, seed + offset))
        assert y.tolist() == want.tolist()
        assert np.flatnonzero(y).tolist() == plans[n_scen]


def test_compare_methods_output_shape():
    inst, model = random_problem(10, 4, 6, support_size=8)
    result = compare_methods(inst, model, ExperimentConfig(
        sp_scenarios=(5, 10), n_test=100, seed=2))
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
    result = compare_methods(inst, flat, ExperimentConfig(
        sp_scenarios=(5,), n_test=50, seed=1))
    assert result.plans["DR"] == result.plans["DDDR"]
