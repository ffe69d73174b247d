import math

import numpy as np
import pytest

from conftest import (all_plans, parse_lp_text, random_problem, relaxation, toy_instance,
                      toy_model, uniform_bounds, without_cuts)
import ddrloc.solvers
import ddrloc.worstcase
from ddrloc.milp import (LinearExpr, MilpModel, build_dddr, derive_dual_bounds,
                         export_lp_text)
from ddrloc.solvers import (branch_and_bound, enumerate_oracle, exact_solve,
                            simplex_solve)
from ddrloc.transport import _intercepts, _pieces
from ddrloc.worstcase import AmbiguityInfeasibleError, worst_case_values


def _simplex_max_lp(coeffs):
    m = MilpModel("pick")
    pis = [m.add_variable(f"pi_{k}") for k in range(len(coeffs))]
    m.add_constraint("mass", {p: 1.0 for p in pis}, "=", 1.0)
    m.set_objective(LinearExpr({p: -c for p, c in zip(pis, coeffs)}))
    return m.seal()


def test_max_over_probability_simplex_picks_best_coefficient():
    m = _simplex_max_lp([3.0, 7.0, 5.0])
    sol = simplex_solve(m)
    assert sol.status == "optimal"
    assert -sol.objective == pytest.approx(7.0)
    assert sol.x[m.var_index("pi_1")] == pytest.approx(1.0)


def test_infeasible_and_unbounded_statuses():
    m = MilpModel("bad")
    x = m.add_variable("x", lower=0.0, upper=1.0)
    m.add_constraint("force", {x: 1.0}, ">=", 2.0)
    m.set_objective(LinearExpr({x: 1.0}))
    assert simplex_solve(m.seal()).status == "infeasible"

    m2 = MilpModel("free_fall")
    x2 = m2.add_variable("x")
    m2.set_objective(LinearExpr({x2: -1.0}))
    assert simplex_solve(m2.seal()).status == "unbounded"


def _transport_lp(inst, y, d):
    m = MilpModel("t")
    n_i, n_j = inst.n_facilities, inst.n_customers
    obj = LinearExpr()
    order = []
    for j in range(n_j):
        s = m.add_variable(f"s_{j}")
        obj.add(s, inst.penalty[j])
        bal = {s: 1.0}
        for i in range(n_i):
            x = m.add_variable(f"x_{i}_{j}")
            obj.add(x, inst.cost[i, j])
            bal[x] = 1.0
            m.add_constraint(f"cap_{i}_{j}", {x: 1.0}, "<=",
                             inst.capacity[i] * y[i])
            order.append(("cap", i, j))
        m.add_constraint(f"bal_{j}", bal, "=", d[j])
        order.append(("bal", None, j))
    m.set_objective(obj)
    return m.seal(), order


def test_transport_duals_expose_marginal_source():
    rng = np.random.default_rng(42)
    for trial in range(20):
        inst, _ = random_problem(trial, 3, 2)
        y = rng.integers(0, 2, size=3)
        d = rng.uniform(5, 80, size=2)
        m, order = _transport_lp(inst, y, d)
        sol = simplex_solve(m)
        rhs = np.array([inst.capacity[i] * y[i] if t == "cap" else d[j]
                        for t, i, j in order])
        assert sol.duals @ rhs == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
        duals = {key: v for key, v in zip(order, sol.duals)}
        cand, gaps = _pieces(inst)
        for j in range(2):
            # the marginal source is the largest piece at the demand
            c_star = cand[j, np.argmax(cand[j] * d[j] + _intercepts(inst, gaps[j], y))]
            beta = duals[("bal", None, j)]
            assert beta == pytest.approx(c_star, abs=1e-7)
            for i in range(3):
                if y[i]:
                    assert duals[("cap", i, j)] == pytest.approx(
                        min(0.0, inst.cost[i, j] - c_star), abs=1e-7)


def test_simplex_solve_repeats_bit_for_bit():
    inst, model = random_problem(14, 3, 4, support_size=6)
    m = build_dddr(inst, model, bounds=uniform_bounds(4, 100.0))
    relaxed = relaxation(m, {})
    a = simplex_solve(relaxed)
    b = simplex_solve(relaxed)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_relaxed_dddr_at_derived_bounds_is_truly_optimal():
    # Phase 1 of a dense tableau simplex pivots on elements near 1e-9 here and
    # can end "optimal" (2599.618) at a point 11.08 off row dual_3_2_0.
    inst, model = random_problem(14, 3, 4, support_size=6)
    m = relaxation(build_dddr(inst, model, bounds=derive_dual_bounds(inst, model)), {})
    sol = simplex_solve(m)
    assert sol.status == "optimal"
    x = sol.x
    for con in m.constraints:
        lhs = sum(a * x[m.var_index(v)] for v, a in con.coeffs.items())
        gap = {"<=": lhs - con.rhs, ">=": con.rhs - lhs, "=": abs(lhs - con.rhs)}[con.sense]
        assert gap <= 1e-6, con.name
    for v, xv in zip(m.variables, x):
        assert v.lower - 1e-6 <= xv <= v.upper + 1e-6, v.name
    assert sol.objective == pytest.approx(-653.9079762520068, rel=1e-9)


def test_bnb_on_fully_fixed_model_equals_simplex():
    with pytest.raises(ValueError, match="'y'"):
        MilpModel("bad").add_variable("y", kind="binary", lower=1.0, upper=1.0)
    m = MilpModel("fixed")
    y = m.add_variable("y", kind="binary")
    x = m.add_variable("x", upper=10.0)
    m.add_constraint("fix_y", {y: 1.0}, ">=", 1.0)
    m.add_constraint("c", {y: 1.0, x: 1.0}, "<=", 4.0)
    m.set_objective(LinearExpr({y: 2.0, x: -1.0}))
    m.seal()
    mip = branch_and_bound(m)
    lp = simplex_solve(relaxation(m, {}))
    assert mip.objective == pytest.approx(-1.0)
    assert mip.objective == pytest.approx(lp.objective)
    assert mip.bound <= mip.objective + 1e-6


def test_bnb_infeasible_status():
    m = MilpModel("no")
    y = m.add_variable("y", kind="binary")
    m.add_constraint("a", {y: 1.0}, ">=", 0.5)
    m.add_constraint("b", {y: 1.0}, "<=", 0.4)
    m.set_objective(LinearExpr({y: 1.0}))
    assert branch_and_bound(m.seal()).status == "infeasible"


def test_bnb_node_limit_status():
    inst, model = random_problem(0, 4, 6, support_size=10)
    m = build_dddr(inst, model, bounds=uniform_bounds(6, 100.0))
    full = branch_and_bound(m)
    assert full.status == "optimal" and full.bound == full.objective
    # stopped before any incumbent: no plan, but a real open bound
    early = branch_and_bound(m, node_limit=5)
    assert early.status == "node_limit" and early.node_count == 5
    assert early.x is None and early.objective == math.inf
    assert -math.inf < early.bound <= full.objective
    # stopped with an incumbent: it is kept, and the gap stays open
    mid = branch_and_bound(m, node_limit=16)
    assert mid.status == "node_limit" and mid.x is not None
    assert mid.objective == pytest.approx(7308.821171961966, rel=1e-6)
    assert mid.bound == pytest.approx(-59731.06586734592, rel=1e-6)
    assert mid.bound <= full.objective < mid.objective


def test_enumerate_single_facility_and_guard(monkeypatch):
    inst, model = random_problem(33, 1, 3, support_size=6)
    y, obj = enumerate_oracle(inst, model)
    ys = all_plans(1)
    totals = [float(inst.open_cost @ plan) + wc
              for plan, wc in zip(ys, worst_case_values(inst, model, ys))]
    assert len(totals) == 2 and all(map(math.isfinite, totals))
    assert obj == min(totals) and y.tolist() == ys[np.argmin(totals)].tolist()
    # at any size a negative budget is refused before a plan is priced
    big_inst, big_model = random_problem(1, 3, 2)
    object.__setattr__(big_inst, "facility_ids", tuple(range(25)))
    monkeypatch.setattr(ddrloc.worstcase, "worst_case_values", None)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        enumerate_oracle(big_inst, big_model, budget=-1)


def test_budget_zero_forces_empty_plan():
    inst, model = random_problem(37, 3, 4, support_size=6)
    y, obj = enumerate_oracle(inst, model, budget=0)
    assert y.tolist() == [0, 0, 0]
    m = build_dddr(inst, model, budget=0)
    sol = branch_and_bound(m)
    assert sol.objective == pytest.approx(obj, rel=1e-9)


def _count_bnb(monkeypatch):
    calls = []
    real = ddrloc.solvers.branch_and_bound
    monkeypatch.setattr(ddrloc.solvers, "branch_and_bound",
                        lambda m: calls.append(m) or real(m))
    return calls


def test_exact_solve_matches_oracle_at_default_bounds(monkeypatch):
    inst, model = random_problem(12, 3, 4, support_size=7, kappa=0.1)
    calls = _count_bnb(monkeypatch)
    sol, y, bounds = exact_solve(inst, model)
    assert len(calls) == 1                     # one build, one search
    want = derive_dual_bounds(inst, model)
    for name in ("ub_delta1", "ub_delta2", "ub_gamma1", "ub_gamma2"):
        assert np.array_equal(getattr(bounds, name), getattr(want, name))
    y_ref, obj_ref = enumerate_oracle(inst, model)
    assert sol.objective == pytest.approx(obj_ref, rel=1e-6)
    assert np.array_equal(y, y_ref)


def test_exact_solve_checks_the_incumbent_with_the_oracle(monkeypatch):
    inst, model = random_problem(12, 3, 4, support_size=7, kappa=0.1)
    # bounds that truncate the inner dual inflate the MILP value, which the
    # oracle check must catch
    monkeypatch.setattr(ddrloc.solvers, "derive_dual_bounds",
                        lambda instance, model: uniform_bounds(4, 1e-4))
    with pytest.raises(RuntimeError, match="value oracle"):
        exact_solve(inst, model)


def test_exact_solve_reports_empty_set_missed_by_chords(monkeypatch):
    # seed 0, I=6, J=10, K=12, row sum 0.99: customer 8's moment set is empty
    # at the plan [1,0,1,1,1,1], which only an interior edge's cut excludes.
    # With the cuts one round finds the enumeration optimum; with the cuts
    # stripped from the built model the MILP picks an empty set and the
    # oracle check names customer 8.
    from ddrloc.experiments import ExperimentConfig, generate_instance
    inst, model = generate_instance(ExperimentConfig(
        n_facilities=6, n_customers=10, support_size=12, lambda_row_sum=0.99))
    calls = _count_bnb(monkeypatch)
    sol, y, _ = exact_solve(inst, model)
    assert len(calls) == 1
    y_ref, obj_ref = enumerate_oracle(inst, model)
    assert sol.objective == pytest.approx(obj_ref, rel=1e-6)
    assert np.array_equal(y, y_ref) and y.tolist() == [1, 0, 1, 1, 1, 0]
    real = ddrloc.solvers.build_dddr
    monkeypatch.setattr(ddrloc.solvers, "build_dddr",
                        lambda *args, **kw: without_cuts(real(*args, **kw)))
    with pytest.raises(AmbiguityInfeasibleError, match="customer 8"):
        exact_solve(inst, model)
    assert len(calls) == 2


def test_every_set_empty_is_reported_by_enumeration_and_milp(monkeypatch):
    # every baseline mean (20 to 40) lies above the support 1..10, so no plan
    # has a distribution: enumeration finds no plan and the cuts leave the
    # MILP infeasible after one branch-and-bound run
    inst, model = random_problem(3, 3, 4, support_size=5, support_max=10.0)
    assert not any(np.isfinite(worst_case_values(inst, model, all_plans(3))))
    with pytest.raises(RuntimeError, match="no plan has a nonempty ambiguity set"):
        enumerate_oracle(inst, model)
    calls = _count_bnb(monkeypatch)
    sol, y, _ = exact_solve(inst, model)
    assert sol.status == "infeasible" and y is None and len(calls) == 1


def test_exact_solve_finds_the_enumerated_plan():
    inst, model = random_problem(12, 3, 4, support_size=7)
    y, obj = enumerate_oracle(inst, model)
    sol, y_milp, _ = exact_solve(inst, model)
    assert sol.status == "optimal" and sol.node_count >= 1
    assert sol.bound == pytest.approx(sol.objective, rel=1e-6)
    assert np.array_equal(y_milp, y) and sol.objective == pytest.approx(obj, rel=1e-6)


def _record_pricing(monkeypatch):
    """The plan batches enumerate_oracle hands the value oracle, in order."""
    batches = []
    real = ddrloc.worstcase.worst_case_values
    monkeypatch.setattr(ddrloc.worstcase, "worst_case_values",
                        lambda instance, model, ys: batches.append(ys) or real(instance, model, ys))
    return batches


def test_enumeration_streams_its_plans_a_chunk_at_a_time(monkeypatch):
    # At I=17 the oracle never sees more than PLAN_CHUNK plans at once and
    # never prices a plan twice, and the bounds leave it a few of the 2^17
    # plans.  The answer is the plan and the bits that pricing every plan
    # gives: the empty plan, at the value pinned below (4.5 s to price all).
    inst, model = random_problem(0, 17, 2)
    batches = _record_pricing(monkeypatch)
    y, obj = enumerate_oracle(inst, model)
    codes = np.concatenate(batches) @ (1 << np.arange(16, -1, -1))
    assert max(map(len, batches)) <= ddrloc.worstcase.PLAN_CHUNK
    assert len(set(codes.tolist())) == len(codes) <= 4 * ddrloc.solvers.PRICE_BATCH
    assert y.tolist() == [0] * 17 and float(obj).hex() == "0x1.3e47393b57e0ep+12"
    batches.clear()
    y, obj = enumerate_oracle(inst, model, budget=2)
    rows = np.concatenate(batches)
    codes = rows @ (1 << np.arange(16, -1, -1))
    assert max(map(len, batches)) <= ddrloc.worstcase.PLAN_CHUNK
    assert len(set(codes.tolist())) == len(codes) < 1 + 17 + 136
    assert rows.sum(axis=1).max() <= 2
    ys = all_plans(17, 2)
    totals = [float(inst.open_cost @ p) + wc
              for p, wc in zip(ys, worst_case_values(inst, model, ys))]
    best = int(np.argmin(totals))
    assert y.tolist() == ys[best].tolist() and float(obj).hex() == float(totals[best]).hex()


def test_enumeration_tie_rule(monkeypatch):
    # Facilities 1 and 2 are identical and either one alone is optimal, with
    # the same bits: the tie goes to the first tied plan in enumeration
    # order, (0, 1, 0).
    cost = [[10.0, 20.0, 30.0, 15.0], [10.0, 20.0, 30.0, 15.0], [5.0, 5.0, 5.0, 5.0]]
    inst = toy_instance(cost=cost, capacity=[1000.0] * 3, penalty=[225.0] * 4,
                        revenue=[150.0] * 4, open_cost=[100.0, 100.0, 1e6])
    model = toy_model(inst, [30.0] * 4, [30.0] * 4)
    ys = np.array([[0, 1, 0], [1, 0, 0]])
    a, b = (float(inst.open_cost @ p) + wc
            for p, wc in zip(ys, worst_case_values(inst, model, ys)))
    assert a == b
    for budget in (None, 1):
        assert enumerate_oracle(inst, model, budget=budget)[0].tolist() == [0, 1, 0]
    # Priced one plan at a time, with (1, 0, 0)'s Jensen bound lowered (it
    # stays a lower bound), the later plan becomes the incumbent first; the
    # earlier one still takes the tie.
    real = ddrloc.worstcase._jensen_bounds

    def lowered(instance, model, chunk):
        kept, bound = real(instance, model, chunk)
        bound[(chunk[kept] == [1, 0, 0]).all(axis=1)] -= 1.0
        return kept, bound

    monkeypatch.setattr(ddrloc.worstcase, "_jensen_bounds", lowered)
    monkeypatch.setattr(ddrloc.solvers, "PRICE_BATCH", 1)
    batches = _record_pricing(monkeypatch)
    y, obj = enumerate_oracle(inst, model)
    assert batches[0].tolist() == [[1, 0, 0]] and [0, 1, 0] in np.concatenate(batches).tolist()
    assert y.tolist() == [0, 1, 0] and obj == a


@pytest.mark.parametrize("budget", [None, 2])
def test_enumeration_in_chunks_of_three_matches_one_batch(budget, monkeypatch):
    # Pricing three plans at a time gives the plan and the bits of
    # pricing every plan in one batch.
    inst, model = random_problem(5, 5, 6, support_size=8, lambda_row_sum=0.99)
    ys = all_plans(5, budget)
    totals = [float(inst.open_cost @ y) + wc
              for y, wc in zip(ys, worst_case_values(inst, model, ys))]
    best = int(np.argmin(totals))         # the first minimum, as the strict < rule
    monkeypatch.setattr(ddrloc.worstcase, "PLAN_CHUNK", 3)
    y, obj = enumerate_oracle(inst, model, budget=budget)
    assert y.tolist() == ys[best].tolist()
    assert float(obj).hex() == float(totals[best]).hex()


def test_lp_text_round_trip_preserves_optimum(tmp_path):
    inst, model = random_problem(41, 3, 3, support_size=6)
    m = build_dddr(inst, model)
    path = tmp_path / "model.lp"
    path.write_text(export_lp_text(m))
    obj = branch_and_bound(parse_lp_text(path.read_text())).objective
    ref = branch_and_bound(m)
    assert obj == pytest.approx(ref.objective, rel=1e-7)
    # round trip is stable apart from the problem-name comment line
    m2 = parse_lp_text(export_lp_text(m))
    strip = lambda t: t.splitlines()[1:]
    assert strip(export_lp_text(m2)) == strip(export_lp_text(m))


def test_lp_solution_invariants():
    m = _simplex_max_lp([1.0, 2.0])
    x = simplex_solve(m).x
    assert np.all(x >= -1e-8)
    assert abs(x.sum() - 1.0) < 1e-8
    assert x[m.var_index("pi_1")] == pytest.approx(1.0)
