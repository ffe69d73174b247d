"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
Slow shared artifacts (trained plans, MILP-vs-enumeration sweeps) are cached
at module level so later criteria reuse them.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (all_plans, extreme_rays, lp_worst_case, moment_lps, primal_lp,
                      random_problem, relaxation, toy_instance, toy_model, without_cuts)
from ddrloc.benchmarks import evaluate_plan, gen_scenarios, train_sp
from ddrloc.instance import chords, decision_independent, moment_windows
from ddrloc.milp import build_dddr, build_sp_saa
from ddrloc.solvers import (branch_and_bound, enumerate_oracle, exact_solve,
                            simplex_solve)
from ddrloc.transport import second_stage_costs, transport_lp_oracle
from ddrloc.worstcase import (OPTIMAL, ambiguity_feasible, check_certificate, support_theta,
                              worst_case_dual, worst_case_expectation,
                              worst_case_values)


def report(number, ok, detail):
    print(f"\nCriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 1: closed form equals the LP oracle
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_vs_lp_oracle():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(1)
    for trial in range(200):
        n_i = int(rng.integers(1, 7))
        n_j = int(rng.integers(1, 7))
        inst, _ = random_problem(trial, n_i, n_j)
        y = rng.integers(0, 2, size=n_i)
        d = rng.uniform(0, 120, size=n_j)
        diff = abs(second_stage_costs(inst, y, d)[0] - transport_lp_oracle(inst, y, d))
        worst = max(worst, diff)
    elapsed = time.time() - start
    report(1, worst < 1e-6 and elapsed < 10,
           f"200 instances, max |closed form - LP| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 2 and 5 share the 30-instance reformulation suite
# ---------------------------------------------------------------------------

_SUITE = None


def _reformulation_suite():
    global _SUITE
    if _SUITE is not None:
        return _SUITE
    rng = np.random.default_rng(2024)
    rows = []
    for trial in range(30):
        n_i = int(rng.integers(2, 9))
        n_j = int(rng.integers(3, 13))
        k = int(rng.integers(6, 21))
        kappa = float(rng.choice([0.0, 0.0, 0.1, 0.25]))
        inst, model = random_problem(500 + trial, n_i, n_j,
                                     support_size=k, kappa=kappa)
        m = build_dddr(inst, model)            # derived dual bounds
        sol = branch_and_bound(m)
        sol_nc = branch_and_bound(without_cuts(m))
        y_ref, obj_ref = enumerate_oracle(inst, model)
        y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]])
        wc, _ = worst_case_expectation(inst, model, y)
        achieved = float(inst.open_cost @ y) + wc
        rows.append({"obj_milp": sol.objective, "obj_nocuts": sol_nc.objective,
                     "obj_enum": obj_ref, "achieved": achieved})
    _SUITE = rows
    return rows


@pytest.mark.slow
def test_criterion_2_reformulation_exactness():
    start = time.time()
    rows = _reformulation_suite()
    elapsed = time.time() - start
    rel = max(abs(r["obj_milp"] - r["obj_enum"]) / max(1.0, abs(r["obj_enum"]))
              for r in rows)
    ach = max(abs(r["achieved"] - r["obj_enum"]) / max(1.0, abs(r["obj_enum"]))
              for r in rows)
    report(2, rel < 1e-5 and ach < 1e-5 and elapsed < 300,
           f"30 instances, max rel gap MILP vs enumeration = {rel:.2e}, "
           f"plan value gap = {ach:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_cut_validity_and_feasibility_agreement():
    rows = _reformulation_suite()
    rel = max(abs(r["obj_milp"] - r["obj_nocuts"]) / max(1.0, abs(r["obj_milp"]))
              for r in rows)

    rng = np.random.default_rng(55)
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[400.0],
                        revenue=[1.0])
    # (mean, standard deviation, kappa): means engineered to leave the
    # support, then moment windows (kappa > 0), near-zero variance at and
    # between support points, and boxes beyond the support's range
    configs = [(rng.uniform(-20, 160), rng.uniform(0, 250), 0.0) for _ in range(100)]
    configs += [(rng.uniform(-20, 160), rng.uniform(0, 250), rng.uniform(0, 0.5))
                for _ in range(100)]
    configs += [(mu, sigma, kappa) for mu in np.linspace(1.0, 100.0, 15)
                for sigma in (0.0, 1e-6, 0.5) for kappa in (0.0, 1e-3)]
    configs += [(rng.choice([rng.uniform(100, 200), rng.uniform(-50, 1)]),
                 rng.uniform(0, 50), rng.uniform(0, 0.6)) for _ in range(50)]
    agree = 0
    n_infeasible = 0
    for mu, sigma, kappa in configs:
        model = toy_model(inst, bar_mu=[mu], bar_sigma=[sigma],
                          support=(1.0, 100.0, 8), eps_mu=[kappa * abs(mu)],
                          eps_lo=[1.0 - kappa], eps_hi=[1.0 + kappa])
        ray_ok = ambiguity_feasible(inst, model, [0]).feasible
        theta = support_theta(inst, model, np.array([0]))[0]
        window = [w[0, 0] for w in moment_windows(model, [0])]
        lp_ok = simplex_solve(primal_lp(model.support, theta, window)).status == "optimal"
        agree += ray_ok == lp_ok
        n_infeasible += not lp_ok
    total = len(configs)
    report(5, rel < 1e-6 and agree == total and n_infeasible > 10,
           f"cuts value-neutral (max rel {rel:.2e}); ray test agreed with LP "
           f"on {agree}/{total} configs ({n_infeasible} infeasible)")


@pytest.mark.slow
def test_exact_solve_matches_enumeration_at_row_sum_099():
    # The strongly coupled regime, where interior edges decide emptiness;
    # seed 0 at I = 6 is the instance whose optimum the three outer chords
    # once let the MILP miss.
    worst = 0.0
    for n_i, seed, kappa in itertools.product((4, 5, 6), range(4), (0.0, 0.1)):
        inst, model = random_problem(seed, n_i, 10, support_size=12, kappa=kappa,
                                     lambda_row_sum=0.99)
        sol, y, _ = exact_solve(inst, model)
        y_ref, obj_ref = enumerate_oracle(inst, model)
        assert sol.status == "optimal" and np.array_equal(y, y_ref), (n_i, seed, kappa)
        worst = max(worst, abs(sol.objective - obj_ref) / max(1.0, abs(obj_ref)))
    assert worst < 1e-6


@pytest.mark.slow
def test_every_route_agrees_across_the_generated_regimes():
    # 24 instances at I=4, J=8, seed 3: the distance recipe at row sums 0.5
    # and 0.99 and rho-means with rho=2, x kappa 0 and 0.1 x K 12 and 100 x
    # budget none and 2, each also as its DR model.  The MILP finds the
    # enumeration plan, bound-ordered enumeration gives the plan and bits of
    # pricing every plan, HiGHS's primal of the winner's inner problem matches
    # the lockstep one, and the certificate of that solve is dual feasible at
    # its value.
    recipes = ({"lambda_row_sum": 0.5}, {"lambda_row_sum": 0.99},
               {"lambda_recipe": "rho-means", "rho": 2})
    worst = lp_gap = dual_gap = 0.0
    for recipe, kappa, k, budget in itertools.product(recipes, (0.0, 0.1), (12, 100),
                                                      (None, 2)):
        inst, dddr = random_problem(3, 4, 8, support_size=k, kappa=kappa, **recipe)
        for model in (dddr, decision_independent(dddr)):
            where = (recipe, kappa, k, budget, model is dddr)
            y, obj = enumerate_oracle(inst, model, budget)
            ys = all_plans(4, budget)
            totals = [float(inst.open_cost @ p) + wc
                      for p, wc in zip(ys, worst_case_values(inst, model, ys))]
            best = int(np.argmin(totals))
            assert y.tolist() == ys[best].tolist(), where
            assert float(obj).hex() == float(totals[best]).hex(), where
            sol, y_milp, _ = exact_solve(inst, model, budget)
            assert sol.status == "optimal" and np.array_equal(y_milp, y), where
            worst = max(worst, abs(sol.objective - obj) / max(1.0, abs(obj)))
            primal = worst_case_expectation(inst, model, y)[0]
            lp_gap = max(lp_gap, abs(primal - lp_worst_case(inst, model, y))
                         / max(1.0, abs(primal)))
            dual, cert = worst_case_dual(inst, model, y)
            assert check_certificate(inst, model, y, cert) == [], where
            dual_gap = max(dual_gap, abs(primal - dual) / max(1.0, abs(primal)))
    assert worst < 1e-9 and lp_gap < 1e-6 and dual_gap < 1e-9, (worst, lp_gap, dual_gap)


# ---------------------------------------------------------------------------
# Criterion 3: strong duality of the inner problem
# ---------------------------------------------------------------------------

def test_criterion_3_strong_duality():
    # The certificate comes from the lockstep solve that gives the primal, so
    # HiGHS on the primal LPs is the independent check of the value; a dual
    # feasible certificate at that value proves it optimal.
    rng = np.random.default_rng(3)
    worst = gap = 0.0
    bad = []
    for trial in range(100):
        n_i = int(rng.integers(1, 5))
        n_j = int(rng.integers(1, 6))
        kappa = float(rng.choice([0.0, 0.1, 0.3]))
        inst, model = random_problem(1000 + trial, n_i, n_j,
                                     support_size=int(rng.integers(4, 12)),
                                     kappa=kappa)
        y = rng.integers(0, 2, size=n_i)
        primal, _ = worst_case_expectation(inst, model, y)
        dual, cert = worst_case_dual(inst, model, y)
        bad += check_certificate(inst, model, y, cert)
        gap = max(gap, abs(primal - dual) / max(1.0, abs(primal)))
        worst = max(worst, abs(primal - lp_worst_case(inst, model, y)) / max(1.0, abs(primal)))
    report(3, gap < 1e-9 and worst < 1e-6 and not bad,
           f"100 pairs, max relative duality gap = {gap:.2e}, max relative gap to "
           f"HiGHS's primal = {worst:.2e}, {len(bad)} certificate violations")


# ---------------------------------------------------------------------------
# Criterion 4: extreme rays
# ---------------------------------------------------------------------------

def _ray_active_matrix(ray, d, active_points):
    # rows: active support constraints + active nonnegativity constraints,
    # in variables (alpha, delta1, delta2, gamma1, gamma2)
    rows = [[1.0, dk, -dk, dk ** 2, -dk ** 2] for dk in active_points]
    for pos, val in enumerate(ray):
        if pos > 0 and val == 0.0:
            e = [0.0] * 5
            e[pos] = 1.0
            rows.append(e)
    return np.array(rows)


def test_criterion_4_extreme_rays():
    rng = np.random.default_rng(4)
    ok = True
    msgs = []
    for trial in range(50):
        k = int(rng.integers(4, 15))
        # integer support points keep all products exact in floating point,
        # so the -1e-12 tolerance tests the formulas rather than roundoff
        d = np.sort(rng.choice(np.arange(1, 201), size=k, replace=False)).astype(float)
        rays = extreme_rays(d)
        # each ray is defined by the support points where its chord vanishes
        defining = [d[a + b * d + c * d ** 2 == 0] for a, b, c in chords(d)]
        if len(rays) != len(defining) or len(rays) != k + 4:
            ok = False
            msgs.append(f"{len(rays)} rays for {k} support points (trial {trial})")
        for ray, pts in zip(rays, defining):
            a, d1v, d2v, g1v, g2v = ray
            vals = a + (d1v - d2v) * d + (g1v - g2v) * d ** 2
            if np.min(vals) < -1e-12:
                ok = False
                msgs.append(f"ray negative on support (trial {trial})")
            # extremality: the active system must pin the ray up to scaling
            if np.linalg.matrix_rank(_ray_active_matrix(ray, d, pts)) != 4:
                ok = False
                msgs.append(f"active-set rank != 4 (trial {trial})")
        # swapping the defining support pair of each ray breaks feasibility:
        # an upward parabola through a non-adjacent pair dips negative at the
        # interior points; a downward one through anything but the extremes
        # is negative at an endpoint
        i, j = 0, 2                          # non-adjacent pair, K >= 4
        up = (d[i] * d[j], 0.0, d[i] + d[j], 1.0, 0.0)
        vals = up[0] - up[2] * d + d ** 2
        if np.min(vals) >= -1e-12:
            ok = False
            msgs.append(f"perturbed upward ray stayed feasible (trial {trial})")
        down = (-d[0] * d[-2], d[0] + d[-2], 0.0, 0.0, 1.0)
        vals = down[0] + down[1] * d - d ** 2
        if np.min(vals) >= -1e-12:
            ok = False
            msgs.append(f"perturbed downward ray stayed feasible (trial {trial})")
    report(4, ok, msgs[0] if msgs else
           "50 supports: K + 4 rays each, nonnegative, active systems rank 4, "
           "perturbed index pairs infeasible")


# ---------------------------------------------------------------------------
# Criterion 6: DR reduction
# ---------------------------------------------------------------------------

def test_criterion_6_dr_reduction():
    # The MILP with every dependency weight zeroed against the DR route that
    # compare takes: enumeration on decision_independent(model).
    worst = 0.0
    plans_agree = 0
    for trial in range(20):
        n_i, n_j = 3 + trial % 2, 4 + trial % 3
        inst, model = random_problem(2000 + trial, n_i, n_j, support_size=8)
        flat = model.replace(lambda_mu=np.zeros_like(model.lambda_mu),
                             lambda_sigma=np.zeros_like(model.lambda_sigma))
        m = build_dddr(inst, flat)
        a = branch_and_bound(m)
        y = np.array([round(a.x[nm]) for nm in m.meta["y_vars"]])
        y_dr, obj_dr = enumerate_oracle(inst, decision_independent(model))
        worst = max(worst, abs(a.objective - obj_dr))
        plans_agree += np.array_equal(y, y_dr)
    report(6, worst < 1e-9 and plans_agree == 20,
           f"20 instances, max |DDDR(lambda=0) MILP - DR enumeration| = "
           f"{worst:.2e}, plans agree on {plans_agree}/20")


# ---------------------------------------------------------------------------
# Criteria 7-9 share trained plans on the 10 benchmark instances
# ---------------------------------------------------------------------------

_BENCH = {}
BENCH_SEEDS = tuple(range(10))


def _bench_cell(seed, penalty):
    """Plans for every method plus every DDDR plan's robust objective."""
    key = (seed, penalty)
    if key in _BENCH:
        return _BENCH[key]
    from ddrloc.experiments import ExperimentConfig, generate_instance
    # dependency rows normalized to ~1: the benchmark regime couples demand
    # strongly to openings (the library default of 0.5 is deliberately milder)
    cfg = ExperimentConfig(n_facilities=10, n_customers=20, support_size=20,
                           seed=seed, penalty=float(penalty),
                           lambda_row_sum=0.99)
    inst, model = generate_instance(cfg)
    flat = model.replace(lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    plans = {
        "SP(20)": train_sp(inst, model, 20, seed=seed + 1000)[0],
        "SP(100)": train_sp(inst, model, 100, seed=seed + 2000)[0],
    }
    y_dr, _ = enumerate_oracle(inst, flat)
    plans["DR"] = y_dr
    plans["DDDR"], _ = enumerate_oracle(inst, model)
    ys = all_plans(inst.n_facilities)
    table = [(y, float(inst.open_cost @ y) + wc)
             for y, wc in zip(ys, worst_case_values(inst, model, ys)) if math.isfinite(wc)]
    reports = {}
    for method, y in plans.items():
        reports[method] = evaluate_plan(inst, y, gen_scenarios(model, y, "normal", 1000, seed))
    _BENCH[key] = {"instance": inst, "model": model, "plans": plans,
                   "reports": reports, "table": table}
    return _BENCH[key]


@pytest.mark.slow
def test_criterion_7_directional_benchmark():
    start = time.time()
    means = {m: [] for m in ("SP(20)", "SP(100)", "DR", "DDDR")}
    unmet = {m: [] for m in means}
    for seed in BENCH_SEEDS:
        cell = _bench_cell(seed, 225.0)
        for m in means:
            means[m].append(cell["reports"][m].mean_objective)
            unmet[m].append(cell["reports"][m].mean_unmet)
    elapsed = time.time() - start
    dd_obj = np.mean(means["DDDR"])
    dd_unmet = np.mean(unmet["DDDR"])
    lines = []
    ok = elapsed < 1800
    for m in ("SP(20)", "SP(100)", "DR"):
        other = np.mean(means[m])
        gain = (other - dd_obj) / abs(other)
        cut = 1.0 - dd_unmet / np.mean(unmet[m])
        lines.append(f"vs {m}: obj gain {gain:.1%}, unmet cut {cut:.1%}")
        ok = ok and gain >= 0.05 and cut >= 0.50
    report(7, ok, f"10 instances ({elapsed:.0f}s); " + "; ".join(lines))


@pytest.mark.slow
def test_screen_matches_moment_lps_on_criterion_7_instances():
    # The chord screen alone decides emptiness: on every plan of the
    # benchmark instances it agrees with the feasibility of the moment LPs.
    from ddrloc.experiments import ExperimentConfig, generate_instance
    ys = np.array(all_plans(10), dtype=float)
    n_empty = 0
    for seed in BENCH_SEEDS:
        inst, model = generate_instance(ExperimentConfig(
            n_facilities=10, n_customers=20, support_size=20, seed=seed,
            lambda_row_sum=0.99))
        lp = (moment_lps(model, moment_windows(model, ys))[0] == OPTIMAL).all(axis=1)
        screen = np.array([bool(ambiguity_feasible(inst, model, y)) for y in ys])
        assert np.array_equal(screen, lp), seed
        n_empty += int(np.sum(~lp))
    assert n_empty >= 10


@pytest.mark.slow
def test_criterion_8_penalty_monotonicity():
    ok = True
    worst = -math.inf
    for seed in BENCH_SEEDS:
        low = _bench_cell(seed, 150.0)
        high = _bench_cell(seed, 300.0)
        for m in low["plans"]:
            a = low["reports"][m].mean_unmet
            b = high["reports"][m].mean_unmet
            worst = max(worst, b - a)
            ok = ok and b <= a + 1e-9
    report(8, ok, f"p 150 -> 300: max unmet increase across methods = {worst:.3g}")


@pytest.mark.slow
def test_criterion_9_budget_monotonicity():
    ok = True
    for seed in BENCH_SEEDS:
        cell = _bench_cell(seed, 225.0)
        table = cell["table"]
        best = []
        for budget in range(1, 11):
            vals = [v for y, v in table if sum(y) <= budget]
            best.append(min(vals))
        diffs = np.diff(best)
        ok = ok and np.all(diffs <= 1e-9)
    report(9, ok, "DDDR optimum nonincreasing in the budget on all 10 instances")


# ---------------------------------------------------------------------------
# Criterion 10: evaluation equals the restricted scenario LP
# ---------------------------------------------------------------------------

def test_criterion_10_evaluation_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(20):
        n_i = int(rng.integers(2, 5))
        n_j = int(rng.integers(2, 6))
        inst, model = random_problem(3000 + trial, n_i, n_j)
        y = rng.integers(0, 2, size=n_i)
        demands = gen_scenarios(model, y, "normal", int(rng.integers(2, 8)), trial)
        rep = evaluate_plan(inst, y, demands)
        m = build_sp_saa(inst, demands)
        over = {nm: (float(v), float(v)) for nm, v in zip(m.meta["y_vars"], y)}
        sol = simplex_solve(relaxation(m, over))
        worst = max(worst, abs(sol.objective - rep.mean_objective)
                    / max(1.0, abs(sol.objective)))
    report(10, worst < 1e-6,
           f"20 pairs, max rel gap closed-form vs scenario LP = {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical comparison outputs
# ---------------------------------------------------------------------------

def test_criterion_11_compare_determinism(tmp_path):
    from ddrloc.experiments import ExperimentConfig, run

    def cfg(sub):
        return ExperimentConfig(n_facilities=4, n_customers=6, support_size=10,
                                seed=17, sp_scenarios=(5, 10), n_test=60,
                                out=str(tmp_path / sub))

    a = run(cfg("a"))
    b = run(cfg("b"))
    csv_a = open(f"{a}/compare.csv", "rb").read()
    csv_b = open(f"{b}/compare.csv", "rb").read()
    # and every artifact matches the files committed for this config
    golden = Path(__file__).parent / "data" / "compare_seed17"
    names = sorted(str(p.relative_to(golden)) for p in golden.rglob("*") if p.is_file())
    fresh = sorted(str(p.relative_to(a)) for p in Path(a).rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    changed = [n for n in names if (golden / n).read_bytes() != (Path(a) / n).read_bytes()]
    report(11, csv_a == csv_b and len(csv_a) > 0 and names == fresh and not changed,
           "two compare runs with the same config produced byte-identical CSVs; "
           f"{len(names)} artifacts vs tests/data/compare_seed17, "
           f"differing: {changed or 'none'}")
