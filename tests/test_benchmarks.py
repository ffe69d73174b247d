import math

import numpy as np
import pytest

from conftest import all_plans, random_problem, relaxation, toy_instance, toy_model
from ddrloc.benchmarks import (PERCENTILE_LEVELS, compare_methods,
                               evaluate_plan, gen_scenarios, order_statistic,
                               sp_objective, train_sp)
from ddrloc.experiments import ExperimentConfig, generate_instance
from ddrloc.instance import apply_robustness_level, plan_moments
from ddrloc.milp import build_sp_saa
from ddrloc.solvers import branch_and_bound, simplex_solve
from ddrloc.transport import second_stage_costs


def test_evaluate_plan_rejects_malformed_demands():
    inst, model = random_problem(1, 3, 4)
    y = np.ones(3)
    for bad in (np.ones((0, 4)), np.ones(4), np.ones((2, 4, 1)),
                np.ones((2, 5)), np.ones((2, 3))):
        with pytest.raises(ValueError, match=r"demands must be an \(n >= 1, 4\) matrix"):
            evaluate_plan(inst, y, bad)
    with pytest.raises(ValueError, match="demands must be nonnegative"):
        evaluate_plan(inst, y, -np.ones((2, 4)))
    # and the sampler refuses an empty or negative request before drawing
    for dist in ("normal", "gamma", "perturbed"):
        for n in (0, -10):
            with pytest.raises(ValueError, match="need at least one scenario"):
                gen_scenarios(model, np.ones(3), dist, n, 0)


def test_gen_scenarios_rejects_unknown_dist():
    _, model = random_problem(1, 3, 4)
    for dist in ("uniform", "Normal", ""):
        with pytest.raises(ValueError, match=f"unknown scenario distribution {dist!r}"):
            gen_scenarios(model, np.ones(3), dist, 10, 0)


def test_gen_normal_degenerate_and_clamped():
    inst, model = random_problem(1, 3, 4)
    y = np.array([1, 0, 0])
    frozen = model.replace(bar_sigma=np.zeros(4),
                           lambda_sigma=np.zeros_like(model.lambda_sigma))
    demands = gen_scenarios(frozen, y, "normal", 5, 0)
    np.testing.assert_allclose(demands, np.tile(plan_moments(frozen, y)[0], (5, 1)))
    wild = model.replace(bar_mu=np.full(4, 1.0), bar_sigma=np.full(4, 100.0),
                         lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    demands = gen_scenarios(wild, y, "normal", 200, 0)
    assert np.all(demands >= 0)
    assert np.any(demands == 0)            # negative raw draws were clamped


def test_gen_normal_moments_clt():
    # low coefficient of variation so the clamp at zero never bites
    inst, model = random_problem(2, 3, 4, cv2=0.01)
    y = np.array([1, 1, 0])
    demands = gen_scenarios(model, y, "normal", 100_000, 7)
    mu, var = (m[0] for m in plan_moments(model, y))
    sigma = np.sqrt(var)
    se = sigma / np.sqrt(len(demands))
    assert np.all(np.abs(demands.mean(axis=0) - mu) < 3.5 * se)


def test_sp_draws_are_clamped_normal_at_baseline_moments(monkeypatch):
    # train_sp trains on the sampler's "normal" draws at the empty plan: the
    # bits of clamped Normal draws at the baseline moments.
    for seed, cv2, recipe, kappa in ((0, 1.0, "distance", 0.0),
                                     (3, 0.37, "rho-means", 0.1),
                                     (8, 2.0, "distance", 0.2)):
        inst, model = generate_instance(ExperimentConfig(
            n_facilities=4, n_customers=6, support_size=10, seed=seed, cv2=cv2,
            lambda_recipe=recipe, rho=2, kappa=kappa))
        rng = np.random.default_rng(seed + 5)
        want = np.maximum(rng.normal(model.bar_mu, model.bar_sigma, (17, 6)), 0.0)
        got = gen_scenarios(model, np.zeros(4), "normal", 17, seed + 5)
        assert got.tobytes() == want.tobytes()
        seen = []
        with monkeypatch.context() as m:
            m.setattr("ddrloc.benchmarks.sp_objective",
                      lambda inst, ys, draws: seen.append(draws) or np.zeros(len(ys)))
            train_sp(inst, model, 17, seed=seed + 5)
        assert seen and all(d.tobytes() == want.tobytes() for d in seen)


def test_gen_gamma_parameters_and_moments():
    inst, _ = random_problem(3, 1, 1)
    model = toy_model(inst, bar_mu=[30.0], bar_sigma=[30.0])
    # theta = 900/30 = 30, shape = 1: exponential with mean 30
    demands = gen_scenarios(model, [0], "gamma", 100_000, 1)
    assert demands.mean() == pytest.approx(30.0, rel=0.02)
    assert demands.var() == pytest.approx(900.0, rel=0.05)
    model2 = toy_model(inst, bar_mu=[9.0], bar_sigma=[3.0])   # mu == sigma^2
    demands2 = gen_scenarios(model2, [0], "gamma", 50_000, 2)
    assert demands2.mean() == pytest.approx(9.0, rel=0.03)


def test_gen_perturbed_reduction():
    inst, model = random_problem(4, 3, 4)
    y = np.array([0, 1, 1])
    robust = apply_robustness_level(model, 0.3)
    demands = gen_scenarios(robust, y, "perturbed", 1000, 9)
    assert demands.shape == (1000, 4)      # 10 reps of 100
    assert not np.array_equal(demands, gen_scenarios(robust, y, "normal", 1000, 9))
    base = apply_robustness_level(model, 0.0)
    assert np.array_equal(gen_scenarios(base, y, "perturbed", 1000, 9),
                          gen_scenarios(base, y, "normal", 1000, 9))


def test_gen_perturbed_honours_n():
    inst, model = random_problem(4, 3, 4)
    y = np.array([0, 1, 1])
    robust = apply_robustness_level(model, 0.3)
    assert gen_scenarios(robust, y, "perturbed", 40, 9).shape == (40, 4)
    with pytest.raises(ValueError, match="multiple"):
        gen_scenarios(robust, y, "perturbed", 45, 9)


def test_generators_reproducible():
    inst, model = random_problem(5, 3, 4)
    y = np.array([1, 0, 1])
    for dist in ("normal", "gamma"):
        a, b = gen_scenarios(model, y, dist, 50, 3), gen_scenarios(model, y, dist, 50, 3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gen_scenarios(model, y, dist, 50, 4))


def test_order_statistic_convention():
    vals = np.arange(1.0, 101.0)           # 1..100
    assert order_statistic(vals, 95) == 96.0   # 5th largest
    assert order_statistic(vals, 50) == 51.0
    assert order_statistic(np.array([7.0]), 95) == 7.0


def test_evaluate_plan_trivial_cases():
    inst, model = random_problem(6, 3, 4)
    y = np.array([1, 1, 0])
    rep = evaluate_plan(inst, y, np.zeros((4, 4)))
    assert rep.mean_objective == pytest.approx(float(inst.open_cost @ y))
    assert rep.mean_unmet == 0.0
    rep1 = evaluate_plan(inst, y, np.full((1, 4), 30.0))
    assert rep1.std_objective == 0.0
    assert all(v == rep1.mean_objective
               for v in rep1.objective_percentiles.values())


def test_evaluate_plan_statistics_structure():
    inst, model = random_problem(7, 3, 4)
    y = np.array([1, 0, 1])
    demands = gen_scenarios(model, y, "normal", 300, 11)
    rep = evaluate_plan(inst, y, demands)
    assert rep.objectives.min() <= rep.mean_objective <= rep.objectives.max()
    # worst-tail convention: percentile values decrease with the level
    ps = [rep.objective_percentiles[q] for q in PERCENTILE_LEVELS]
    assert ps == sorted(ps, reverse=True)
    # permutation invariance
    perm = np.random.default_rng(0).permutation(300)
    rep2 = evaluate_plan(inst, y, demands[perm])
    assert rep2.mean_objective == pytest.approx(rep.mean_objective)
    assert rep2.objective_percentiles == rep.objective_percentiles


def test_evaluate_matches_restricted_scenario_lp():
    inst, model = random_problem(8, 3, 4)
    y = np.array([0, 1, 1])
    demands = gen_scenarios(model, y, "normal", 6, 13)
    rep = evaluate_plan(inst, y, demands)
    m = build_sp_saa(inst, demands)
    over = {nm: (float(v), float(v)) for nm, v in zip(m.meta["y_vars"], y)}
    sol = simplex_solve(relaxation(m, over))
    assert sol.objective == pytest.approx(rep.mean_objective, rel=1e-9)


def test_train_sp_enumeration_matches_milp():
    inst, model = random_problem(9, 3, 4, support_size=6)
    y_enum, _ = train_sp(inst, model, 15, seed=5)
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
    draws = _sp_draws(inst, model, 20, 7)
    for budget in (None, 2, 1):
        y, obj = train_sp(inst, model, 20, seed=7, budget=budget)
        assert budget is None or y.sum() <= budget
        assert obj == sp_objective(inst, y, draws)
        best = sp_objective(inst, all_plans(inst.n_facilities, budget), draws).min()
        assert obj == pytest.approx(best, rel=1e-9)


def _sp_draws(inst, model, n_scen, seed):
    """train_sp's training sample."""
    return gen_scenarios(model, np.zeros(inst.n_facilities), "normal", n_scen, seed)


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
    draws = _sp_draws(inst, model, 12, 3)
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
            y, obj = train_sp(inst, model, 12, seed=3, budget=budget)
        assert np.array_equal(ranked, ys)
        assert y.tolist() == _sp_reference(inst, draws, budget).tolist()
        # the best row of a chunk has the bits of its plan alone
        assert obj == sp_objective(inst, y, draws)


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
    draws = _sp_draws(inst, model, 25, 4)
    assert (sp_objective(inst, np.array([0, 1, 0]), draws)
            == sp_objective(inst, np.array([1, 0, 0]), draws))
    for budget in (None, 1):
        y, obj = train_sp(inst, model, 25, seed=4, budget=budget)
        assert y.tolist() == [0, 1, 0]
        assert obj == sp_objective(inst, y, draws)
    # A later plan must beat the best so far by more than 1e-12, also when it
    # sits in a later chunk (three plans a chunk here).
    objectives = {(0, 0, 0): 1.0, (0, 0, 1): 1.0 - 5e-13, (0, 1, 0): 0.5,
                  (0, 1, 1): 0.5 - 5e-13, (1, 0, 0): 0.5 - 3e-12,
                  (1, 0, 1): 0.5 - 3.5e-12, (1, 1, 0): 0.75, (1, 1, 1): 0.5 - 3e-12}
    monkeypatch.setattr("ddrloc.benchmarks.sp_objective",
                        lambda inst, ys, draws: np.array([objectives[tuple(y)] for y in ys]))
    monkeypatch.setattr("ddrloc.benchmarks.SP_CHUNK_ELEMENTS", 3 * 25 * 4)
    y, obj = train_sp(inst, model, 25, seed=4)
    assert y.tolist() == [1, 0, 0] and obj == 0.5 - 3e-12


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
        y, _ = train_sp(inst, model, n_scen, seed=seed + offset)
        want = _sp_reference(inst, _sp_draws(inst, model, n_scen, seed + offset))
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
