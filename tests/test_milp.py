import itertools
import math

import numpy as np
import pytest

from conftest import random_problem, toy_instance, toy_model
from ddrloc.instance import decision_independent
from ddrloc.milp import (DualBounds, LinearExpr, MilpModel,
                         binding_dual_bounds, build_dddr, build_dr,
                         build_sp_saa, export_lp_text, mccormick_bilinear,
                         mccormick_trilinear, model_stats)
from ddrloc.solvers import branch_and_bound, simplex_solve
from ddrloc.transport import second_stage_costs
from ddrloc.worstcase import (DualCertificate, dual_value, extreme_rays,
                              worst_case_expectation)


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
    m = build_dddr(inst, model, with_cuts=False)
    dual_rows = [c for c in m.constraints if c.name.startswith("dual_")]
    assert len(dual_rows) == 4 * 6 * (3 + 1)      # |J| * K * (|I| + 1)


def test_lambda_zero_reduces_to_dr():
    inst, model = random_problem(8, 4, 5, support_size=8)
    flat = model.replace(lambda_mu=np.zeros_like(model.lambda_mu),
                         lambda_sigma=np.zeros_like(model.lambda_sigma))
    a = branch_and_bound(build_dddr(inst, flat))
    b = branch_and_bound(build_dr(inst, model))
    assert a.objective == pytest.approx(b.objective, abs=1e-9)


def test_restriction_matches_inner_dual_value():
    # Fixing the plan inside the MILP must reproduce the nonlinear worst-case
    # objective computed independently (McCormick exactness).
    inst, model = random_problem(12, 3, 4, support_size=7, kappa=0.1)
    m = build_dddr(inst, model, with_cuts=False,
                   bounds=DualBounds.uniform(4, 1e6))
    for y in ([1, 0, 1], [0, 1, 0], [1, 1, 1]):
        over = {nm: (float(v), float(v)) for nm, v in zip(m.meta["y_vars"], y)}
        sol = simplex_solve(m.with_bounds(over, relax_binaries=True))
        assert sol.status == "optimal"
        wc, _ = worst_case_expectation(inst, model, np.array(y))
        want = float(inst.open_cost @ np.array(y)) + wc
        assert sol.objective == pytest.approx(want, rel=1e-6)
        assert binding_dual_bounds(m, sol.assignment()) == []
    # at the default bound of 100 the dual optimum of y = (1,1,1) is
    # truncated, and the flag must say so
    tight = build_dddr(inst, model, with_cuts=False)
    over = {nm: (1.0, 1.0) for nm in tight.meta["y_vars"]}
    sol = simplex_solve(tight.with_bounds(over, relax_binaries=True))
    assert binding_dual_bounds(tight, sol.assignment())


def test_cut_rows_present_and_value_neutral():
    inst, model = random_problem(19, 3, 4, support_size=6)
    with_cuts = build_dddr(inst, model, with_cuts=True)
    without = build_dddr(inst, model, with_cuts=False)
    assert any(c.name.startswith("cut_") for c in with_cuts.constraints)
    assert not any(c.name.startswith("cut_") for c in without.constraints)
    a = branch_and_bound(with_cuts)
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
    # matching extreme ray of the value oracle's dual, customer by customer.
    for seed, n_i in ((60, 1), (61, 3), (62, 4)):
        inst, model = random_problem(seed, n_i, 4, support_size=7, kappa=kappa,
                                     lambda_recipe=recipe, rho=min(2, n_i))
        fids = inst.facility_ids
        for build, dem in ((build_dddr, model), (build_dr, decision_independent(model))):
            m = build(inst, model)
            cuts = {c.name: c for c in m.constraints if c.name.startswith("cut_")}
            assert len(cuts) == 3 * inst.n_customers
            rays = extreme_rays(model.support)
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
    sol2 = simplex_solve(m2.with_bounds(over, relax_binaries=True))
    want = float(inst.open_cost @ y + second_stage_costs(inst, y, demands).mean())
    assert sol2.objective == pytest.approx(want, rel=1e-9)


def test_binding_dual_bounds_flag():
    inst, model = random_problem(5, 3, 4, support_size=6)
    tight = DualBounds.uniform(4, 1e-4)
    m = build_dddr(inst, model, bounds=tight)
    sol = branch_and_bound(m)
    assert binding_dual_bounds(m, sol.x)
    wide = DualBounds.uniform(4, 1e6)
    m2 = build_dddr(inst, model, bounds=wide)
    sol2 = branch_and_bound(m2)
    assert binding_dual_bounds(m2, sol2.x) == []
    with pytest.raises(ValueError):
        DualBounds.uniform(4, 0.0)


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
