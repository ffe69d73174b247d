import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (all_plans, dual_value, extreme_rays, moment_lps, random_problem,
                      relaxation, toy_instance, toy_model, uniform_bounds, without_cuts)
from ddrloc.instance import decision_independent, moment_windows, plans_under_budget
from ddrloc.milp import (DualBounds, LinearExpr, MilpModel, build_dddr,
                         build_sp_saa, derive_dual_bounds, export_lp_text,
                         mccormick_bilinear, mccormick_trilinear, model_stats)
from ddrloc.solvers import (OPTIMAL, branch_and_bound, enumerate_oracle, exact_solve,
                            simplex_solve)
from ddrloc.transport import second_stage_costs
from ddrloc.worstcase import (DualCertificate, support_theta, worst_case_dual,
                              worst_case_expectation, worst_case_values)


def _holds(rows, assignment):
    for c in rows:
        lhs = sum(a * assignment[v] for v, a in c.coeffs.items())
        if c.sense == "<=" and lhs > c.rhs + 1e-9:
            return False
        if c.sense == ">=" and lhs < c.rhs - 1e-9:
            return False
        if c.sense == "=" and abs(lhs - c.rhs) > 1e-9:
            return False
    return True


def _w_range(rows, fixed):
    """Feasible interval for w when everything else in ``fixed`` is pinned."""
    lo, hi = -math.inf, math.inf
    for c in rows:
        a_w = c.coeffs.get("w", 0.0)
        rest = sum(a * fixed[v] for v, a in c.coeffs.items() if v != "w")
        if a_w == 0.0:
            continue
        bound = (c.rhs - rest) / a_w
        if (c.sense == "<=") == (a_w > 0):
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return lo, hi


def test_mccormick_bilinear_collapses():
    rows = mccormick_bilinear("w", "eta", "z", 0.0, 100.0)
    assert len(rows) == 4
    for eta in (0.0, 40.0, 100.0):
        lo, hi = _w_range(rows, {"eta": eta, "z": 0.0})
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(0.0, abs=1e-9)
        lo, hi = _w_range(rows, {"eta": eta, "z": 1.0})
        assert lo == pytest.approx(eta) and hi == pytest.approx(eta)
    assert _holds(rows, {"eta": 40.0, "z": 1.0, "w": 40.0})
    assert not _holds(rows, {"eta": 40.0, "z": 1.0, "w": 50.0})
    with pytest.raises(ValueError):
        mccormick_bilinear("w", "eta", "z", 2.0, 1.0)


def test_mccormick_trilinear_exhaustive():
    eta_hi = 10.0
    rows = mccormick_trilinear("w", "eta", "z1", "z2", 0.0, eta_hi)
    assert len(rows) == 6
    for eta in (0.0, 0.5 * eta_hi, eta_hi):
        for z1, z2 in itertools.product((0.0, 1.0), repeat=2):
            lo, hi = _w_range(rows, {"eta": eta, "z1": z1, "z2": z2})
            want = eta * z1 * z2
            assert lo == pytest.approx(want, abs=1e-9)
            assert hi == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        mccormick_trilinear("w", "eta", "z1", "z2", -1.0, 5.0)


def test_dual_constraint_count():
    inst, model = random_problem(3, 3, 4, support_size=6)
    m = without_cuts(build_dddr(inst, model))
    dual_rows = [c for c in m.constraints if c.name.startswith("dual_")]
    assert len(dual_rows) == 4 * 6 * (3 + 1)      # |J| * K * (|I| + 1)


def test_lambda_zero_reduces_to_dr():
    # the MILP with every dependency weight zeroed against enumeration on the
    # DR model, the route compare takes for DR
    inst, model = random_problem(8, 4, 5, support_size=8)
    flat = model.replace(lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    m = build_dddr(inst, flat)
    sol = branch_and_bound(m)
    y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]])
    y_dr, obj_dr = enumerate_oracle(inst, decision_independent(model))
    assert sol.objective == pytest.approx(obj_dr, abs=1e-9)
    assert np.array_equal(y, y_dr)


def _restricted_value(m, y):
    """The MILP's objective with the plan pinned to ``y``, binaries relaxed."""
    over = {nm: (float(v), float(v)) for nm, v in zip(m.meta["y_vars"], y)}
    sol = simplex_solve(relaxation(m, over))
    assert sol.status == "optimal"
    return sol.objective


def test_restriction_matches_inner_dual_value():
    # Fixing the plan inside the MILP must reproduce the nonlinear worst-case
    # objective computed independently (McCormick exactness), both at the
    # derived dual bounds and at bounds far above them.
    inst, model = random_problem(12, 3, 4, support_size=7, kappa=0.1)
    derived = without_cuts(build_dddr(inst, model))
    wide = without_cuts(build_dddr(inst, model, bounds=uniform_bounds(4, 1e6)))
    for y in ([1, 0, 1], [0, 1, 0], [1, 1, 1]):
        wc, _ = worst_case_expectation(inst, model, np.array(y))
        want = float(inst.open_cost @ np.array(y)) + wc
        assert _restricted_value(derived, y) == pytest.approx(want, rel=1e-6)
        assert _restricted_value(wide, y) == pytest.approx(want, rel=1e-6)
    # bounds below the dual optimum truncate the inner dual: the restricted
    # value is no longer the worst case
    tight = without_cuts(build_dddr(inst, model, bounds=uniform_bounds(4, 1e-4)))
    wc, _ = worst_case_expectation(inst, model, np.array([1, 1, 1]))
    want = float(inst.open_cost.sum()) + wc
    assert _restricted_value(tight, [1, 1, 1]) > want + 1.0


@pytest.mark.parametrize("recipe", ["distance", "rho-means"])
@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_derived_dual_bounds_dominate_worst_case_dual(recipe, kappa):
    # The inner dual's optimal vertex at every plan with a nonempty set lies
    # inside the derived bounds (delta1 attains its bound, p_j - r_j, up to
    # the simplex's rounding).
    for seed, (row_sum, k) in enumerate(((0.5, 12), (0.99, 12), (0.5, 100), (0.99, 100))):
        inst, model = random_problem(310 + seed, 4 if k == 12 else 3, 5,
                                     support_size=k, kappa=kappa,
                                     lambda_recipe=recipe, lambda_row_sum=row_sum,
                                     rho=2)
        b = derive_dual_bounds(inst, model)
        ys = all_plans(inst.n_facilities)
        nonempty = np.isfinite(worst_case_values(inst, model, ys))
        assert nonempty.sum() >= len(ys) // 2
        for y in np.array(ys)[nonempty]:
            _, cert = worst_case_dual(inst, model, y)
            for name in ("delta1", "delta2", "gamma1", "gamma2"):
                ub = getattr(b, "ub_" + name)
                assert np.all(getattr(cert, name) <= ub * (1 + 1e-9) + 1e-12), name


def _with_and_without_sec_lo(model, windows, theta):
    """Moment LP values with and without the E[d^2] >= s_lo row, and feasibility.

    Each support point has d^2 >= 0, so s_lo = 0 drops the row.
    """
    m_lo, m_hi, s_lo, s_hi = windows
    status, pi = moment_lps(model, windows, theta)
    _, pi_free = moment_lps(model, (m_lo, m_hi, np.zeros_like(s_lo), s_hi), theta)
    return (pi * theta).sum(-1), (pi_free * theta).sum(-1), status == OPTIMAL


@pytest.mark.parametrize("kappa", [0.1, 0.2])
def test_gamma2_dropped_only_where_sec_lo_never_binds(kappa):
    # Wherever derive_dual_bounds gives gamma2 a bound of 0, the moment LP
    # keeps its value without the E[d^2] >= s_lo row: every plan of the
    # dominance test's configs, with moment windows.
    checked = 0
    for recipe in ("distance", "rho-means"):
        for seed, (row_sum, k) in enumerate(((0.5, 12), (0.99, 12), (0.5, 100), (0.99, 100))):
            inst, model = random_problem(310 + seed, 4 if k == 12 else 3, 5,
                                         support_size=k, kappa=kappa,
                                         lambda_recipe=recipe, lambda_row_sum=row_sum,
                                         rho=2)
            ys = all_plans(inst.n_facilities)
            theta = np.array([support_theta(inst, model, y) for y in ys])
            full, free, ok = _with_and_without_sec_lo(model, moment_windows(model, ys), theta)
            ok &= derive_dual_bounds(inst, model).ub_gamma2 == 0.0
            assert np.all(np.abs(full - free)[ok] <= 1e-9 * np.maximum(1.0, np.abs(full[ok])))
            checked += ok.sum()
    assert checked > 400


def test_sec_lo_never_binds_below_the_down_chord():
    # Random window boxes with s_lo <= f(m_lo), the down-chord at the lower
    # mean, and random convex costs on the support: the row never binds.
    rng = np.random.default_rng(12)
    for k in (3, 12, 40):
        d = np.sort(rng.choice(np.arange(0.0, 200.0), size=k, replace=False))
        model = SimpleNamespace(support=d)
        lo, hi = d[0], d[-1]
        m_lo, m_hi = np.sort(rng.uniform(lo, hi, size=(2, 500)), axis=0)
        f_lo = (lo + hi) * m_lo - lo * hi
        s_lo = rng.uniform(m_lo ** 2, f_lo)
        s_hi = s_lo + rng.uniform(0.0, 1.0, 500) * (hi * hi - s_lo)
        slopes = np.sort(rng.normal(0.0, 5.0, (500, k - 1)), axis=1)
        theta = np.concatenate([np.zeros((500, 1)),
                                np.cumsum(slopes * np.diff(d), axis=1)], axis=1)
        full, free, ok = _with_and_without_sec_lo(model, (m_lo, m_hi, s_lo, s_hi), theta)
        assert ok.sum() > 250
        assert np.all(np.abs(full - free)[ok] <= 1e-9 * np.maximum(1.0, np.abs(full[ok])))


def test_gamma2_kept_where_sec_lo_binds():
    # Revenue above the unit costs makes theta fall with d wherever demand is
    # served, so the adversary wants a low mean.  With nothing open customer
    # 1's s_lo lies below f(m_lo), the down-chord at its lowest mean; opening
    # facility 1 lifts its mean from 60 to 90, past the support's midpoint,
    # and s_lo above f(m_lo), so E[d^2] >= s_lo binds at the optimal plan
    # (1, 0) and gamma2 is positive there.  Customer 2's mean is pinned.
    inst = toy_instance(cost=[[1.0, 2.0], [2.0, 1.0]], capacity=[100.0, 100.0],
                        penalty=[8.0, 8.0], revenue=[5.0, 5.0], open_cost=[150.0, 100.0])
    model = toy_model(inst, [60.0, 40.0], [20.0, 25.0],
                      lambda_mu=[[0.5, 0.25], [0.1, 0.2]],
                      lambda_sigma=[[0.0, 0.0], [0.0, 0.1]], eps_mu=[15.0, 0.0])
    b = derive_dual_bounds(inst, model)
    assert b.ub_gamma2[0] > 0.0 and b.ub_gamma2[1] == 0.0
    y_star, obj_ref = enumerate_oracle(inst, model)
    _, cert = worst_case_dual(inst, model, y_star)
    assert cert.gamma2[0] > 1e-3 and cert.gamma2[1] == 0.0
    names = {v.name for v in build_dddr(inst, model).variables}
    assert "gamma2_1" in names and "gamma2_2" not in names
    sol, y, _ = exact_solve(inst, model)
    assert sol.objective == pytest.approx(obj_ref, rel=1e-9)
    assert y.tolist() == y_star.tolist() == [1, 0]
    # without customer 1's gamma2 the MILP loses the worst case
    cut = DualBounds(b.ub_delta1, b.ub_delta2, b.ub_gamma1, np.zeros(2))
    assert branch_and_bound(build_dddr(inst, model, bounds=cut)).objective > obj_ref + 1.0


def test_derived_dual_bounds_hand_values():
    # One customer, slopes p - r = 3 and c - r = 1 - 5 = -4 on the support
    # 1, 2, 4 (narrowest second span 3): Gamma = 7 / 3.
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[8.0], revenue=[5.0])
    model = toy_model(inst, [2.0], [1.0]).replace(support=np.array([1.0, 2.0, 4.0]))
    b = derive_dual_bounds(inst, model)
    assert b.ub_delta1 == pytest.approx([3.0])
    assert b.ub_delta2 == pytest.approx([7 / 3 * 6 + 4])
    assert b.ub_gamma1 == pytest.approx([7 / 3])
    # the mean is pinned, so E[d^2] >= s_lo never binds and gamma2 gets 0
    assert b.ub_gamma2[0] == 0.0
    # mean window 2 -/+ e, s = 5 and f(m) = 5 m - 4: s_lo - f(m_lo) = 5 e - 1.
    # At e = 0.1 the coefficient sum (-0.5) passes and the pinned-mean bound
    # (2 e * 5 = 1) does not; at e = 0.5 both fail (1.5 and 5), and gamma2
    # keeps max(-(c - r), 0) / (d_0 + d_1) = 4 / 3.
    for e, want in ((0.1, 0.0), (0.5, 4 / 3)):
        wide = derive_dual_bounds(inst, model.replace(eps_mu=np.array([e])))
        assert wide.ub_gamma2 == pytest.approx([want])
    # two support points admit no three-touch vertex: delta2 and gamma2 are 0
    rich = toy_instance(cost=[[6.0]], capacity=[10.0], penalty=[8.0], revenue=[5.0])
    two = toy_model(rich, [2.0], [1.0]).replace(support=np.array([1.0, 3.0]))
    b2 = derive_dual_bounds(rich, two)
    assert b2.ub_delta1 == pytest.approx([3.0])
    assert b2.ub_gamma1 == pytest.approx([0.75])
    assert b2.ub_delta2[0] == 0.0 and b2.ub_gamma2[0] == 0.0


def test_cut_rows_present_and_value_neutral():
    inst, model = random_problem(19, 3, 4, support_size=6)
    full = build_dddr(inst, model)
    without = without_cuts(full)
    assert any(c.name.startswith("cut_") for c in full.constraints)
    assert not any(c.name.startswith("cut_") for c in without.constraints)
    a = branch_and_bound(full)
    b = branch_and_bound(without)
    assert a.objective == pytest.approx(b.objective, rel=1e-6)


def _ray_slack(model, y, jj, ray):
    """Dual objective of customer ``jj`` along one extreme ray: the chord slack."""
    zero = np.zeros(model.n_customers)
    parts = {}
    for name, value in zip(("alpha", "delta1", "delta2", "gamma1", "gamma2"), ray):
        parts[name] = zero.copy()
        parts[name][jj] = value
    return dual_value(model, y, DualCertificate(**parts))


@pytest.mark.parametrize("recipe", ["distance", "rho-means"])
@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_cut_rows_are_the_oracle_certificate(recipe, kappa):
    # Every cut row, evaluated at (y, Y_lm = y_l * y_m), is the slack of the
    # matching extreme ray of the value oracle's dual, customer by customer;
    # there is one row per customer and chord.
    for seed, n_i in ((60, 1), (61, 3), (62, 4)):
        inst, model = random_problem(seed, n_i, 4, support_size=7, kappa=kappa,
                                     lambda_recipe=recipe, rho=min(2, n_i))
        fids = inst.facility_ids
        for dem in (model, decision_independent(model)):
            m = build_dddr(inst, dem)
            cuts = {c.name: c for c in m.constraints if c.name.startswith("cut_")}
            rays = extreme_rays(model.support)
            assert len(cuts) == len(rays) * inst.n_customers
            for y in itertools.product((0, 1), repeat=n_i):
                point = {f"y_{f}": float(v) for f, v in zip(fids, y)}
                point.update({f"Y_{fids[l]}_{fids[k]}": float(y[l] * y[k])
                              for l in range(n_i) for k in range(l)})
                for jj, cid in enumerate(inst.customer_ids):
                    for r, ray in enumerate(rays, start=1):
                        c = cuts[f"cut_ray{r}_{cid}"]
                        got = sum(a * point[v] for v, a in c.coeffs.items()) - c.rhs
                        want = _ray_slack(dem, y, jj, ray)
                        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_budget_row():
    inst, model = random_problem(23, 4, 4, support_size=6)
    m = build_dddr(inst, model, budget=1)
    sol = branch_and_bound(m)
    opened = sum(round(sol.x[nm]) for nm in m.meta["y_vars"])
    assert opened <= 1
    # a negative budget raises, with the enumeration route's message
    for build in (lambda b: plans_under_budget(4, b, 16),
                  lambda b: build_dddr(inst, model, budget=b),
                  lambda b: build_sp_saa(inst, np.zeros((1, 4)), budget=b)):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            build(-1)


def test_sp_saa_zero_demand_and_restriction():
    inst, model = random_problem(29, 3, 4, support_size=6)
    m = build_sp_saa(inst, np.zeros((1, 4)))
    sol = branch_and_bound(m)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert all(round(sol.x[nm]) == 0 for nm in m.meta["y_vars"])

    rng = np.random.default_rng(29)
    demands = rng.uniform(0, 60, size=(5, 4))
    y = np.array([1, 0, 1])
    m2 = build_sp_saa(inst, demands)
    over = {nm: (float(v), float(v)) for nm, v in zip(m2.meta["y_vars"], y)}
    sol2 = simplex_solve(relaxation(m2, over))
    want = float(inst.open_cost @ y + second_stage_costs(inst, y, demands).mean())
    assert sol2.objective == pytest.approx(want, rel=1e-9)


def test_binding_dual_bounds_flag():
    # Bounds above every dual vertex (derived or wide) keep the optimum exact;
    # binding bounds truncate the inner dual and change it.
    inst, model = random_problem(5, 3, 4, support_size=6)
    _, obj_ref = enumerate_oracle(inst, model)
    for bounds in (None, uniform_bounds(4, 1e6)):
        sol = branch_and_bound(build_dddr(inst, model, bounds=bounds))
        assert sol.objective == pytest.approx(obj_ref, rel=1e-9)
    tight = branch_and_bound(build_dddr(inst, model, bounds=uniform_bounds(4, 1e-4)))
    assert tight.objective > obj_ref + 1.0
    # A bound of 0 leaves its multiplier out of the model, envelopes and all;
    # a negative bound is rejected.
    no_g2 = build_dddr(inst, model, bounds=DualBounds(*(np.full(4, 1e6),) * 3, np.zeros(4)))
    names = {v.name for v in no_g2.variables}
    for cid in inst.customer_ids:
        assert {f"alpha_{cid}", f"delta1_{cid}", f"delta2_{cid}", f"gamma1_{cid}"} <= names
    assert not any(n.startswith(("gamma2_", "G_2_", "P_2_")) for n in names)
    assert branch_and_bound(no_g2).objective == pytest.approx(obj_ref, rel=1e-9)
    with pytest.raises(ValueError):
        uniform_bounds(4, -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
def test_dual_bounds_reject_nonfinite_or_negative(value):
    with pytest.raises(ValueError):
        uniform_bounds(3, value)
    ok = np.ones(3)
    with pytest.raises(ValueError):
        DualBounds(ok, ok, ok, np.array([1.0, value, 1.0]))


def test_plan_products_serve_the_cuts_alone():
    # The Y columns and their envelope rows serve the chord cuts alone: every
    # built model has them, and the cut-less copy keeps none.
    inst, model = random_problem(19, 4, 4, support_size=6)
    full = build_dddr(inst, model)
    assert sum(v.name.startswith("Y_") for v in full.variables) == 6
    assert sum(c.name.startswith("Y_") for c in full.constraints) == 24
    cutless = without_cuts(full)
    assert not any(v.name.startswith("Y_") for v in cutless.variables)
    assert not any(c.name.startswith(("Y_", "cut_")) for c in cutless.constraints)
    assert all(cutless.var_index(v.name) == i for i, v in enumerate(cutless.variables))


def _tiny_model():
    m = MilpModel("tiny")
    y = m.add_variable("y_1", kind="binary")
    t = m.add_variable("eta", lower=0.0, upper=5.0)
    a = m.add_variable("alpha", lower=-math.inf)
    m.add_constraint("link", {y: 2.0, t: 1.0, a: -1.0}, "<=", 4.0)
    m.add_constraint("floor", {a: 1.0, t: 0.5}, ">=", 1.0)
    m.set_objective(LinearExpr({y: 3.0, t: 1.0, a: 2.0}, constant=7.0))
    return m.seal()


def test_export_golden_file(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "tiny.lp"
    text = export_lp_text(_tiny_model())
    assert text == golden.read_text()


def test_export_sanitizes_names():
    m = MilpModel("weird name!")
    v = m.add_variable("x[1,2]")
    m.add_constraint("row #1", {v: 1.0}, "<=", 1.0)
    m.set_objective(LinearExpr({v: 1.0}))
    text = export_lp_text(m.seal())
    assert "x_1_2_" in text and "row__1" in text
    assert "[" not in text


def test_model_stats_report():
    inst, model = random_problem(3, 3, 4, support_size=6)
    report = model_stats(build_dddr(inst, model))
    assert "variables" in report and "constraints" in report
