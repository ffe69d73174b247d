import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_problem, toy_instance, toy_model
from ddrloc.experiments import ExperimentConfig, generate_instance
from ddrloc.instance import apply_robustness_level, moment_windows
from ddrloc.milp import MilpModel
from ddrloc.solvers import simplex_solve
from ddrloc.worstcase import (AmbiguityInfeasibleError, ambiguity_feasible,
                              check_certificate, dual_value, extreme_rays,
                              worst_case_dual, worst_case_expectation,
                              worst_case_values, _primal_lp, theta_values)


def test_two_point_support_forces_half_half():
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[3.0], revenue=[2.0])
    model = toy_model(inst, bar_mu=[5.0], bar_sigma=[5.0], support=(0.0, 10.0, 2))
    val, dist = worst_case_expectation(inst, model, [0])
    np.testing.assert_allclose(dist.pi[0], [0.5, 0.5], atol=1e-9)


def test_pinned_mean_linear_objective():
    # No facility open and an exact mean: the objective is linear in d, so
    # the worst case is (p - r) * mu regardless of the variance window.
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[9.0], revenue=[2.0])
    model = toy_model(inst, bar_mu=[5.0], bar_sigma=[3.0], support=(0.0, 10.0, 6),
                      eps_lo=[0.5], eps_hi=[1.5])
    val, _ = worst_case_expectation(inst, model, [0])
    assert val == pytest.approx((9.0 - 2.0) * 5.0, abs=1e-8)


def test_widening_windows_never_decreases_value():
    inst, model = random_problem(13, 3, 4, support_size=10)
    y = np.array([1, 0, 1])
    base, _ = worst_case_expectation(inst, model, y)
    wider, _ = worst_case_expectation(
        inst, model.replace(eps_sigma_lo=np.full(4, 0.8),
                            eps_sigma_hi=np.full(4, 1.2)), y)
    widest, _ = worst_case_expectation(
        inst, apply_robustness_level(model, 0.3), y)
    assert wider >= base - 1e-9
    assert widest >= wider - 1e-9


def test_strong_duality_and_certificate():
    inst, model = random_problem(17, 3, 5, support_size=9, kappa=0.15)
    y = np.array([0, 1, 1])
    primal, dist = worst_case_expectation(inst, model, y)
    dual, cert = worst_case_dual(inst, model, y)
    assert primal == pytest.approx(dual, rel=1e-6)
    assert check_certificate(inst, model, y, cert) == []
    assert dual_value(model, y, cert) == pytest.approx(primal, rel=1e-6)
    # weak duality: inflating alpha keeps feasibility and raises the bound
    import dataclasses
    fat = dataclasses.replace(cert, alpha=cert.alpha + 10.0)
    assert check_certificate(inst, model, y, fat) == []
    assert dual_value(model, y, fat) > primal
    # an all-zero certificate violates the support constraints here
    zero = dataclasses.replace(cert, alpha=np.zeros_like(cert.alpha),
                               delta1=np.zeros_like(cert.delta1),
                               delta2=np.zeros_like(cert.delta2),
                               gamma1=np.zeros_like(cert.gamma1),
                               gamma2=np.zeros_like(cert.gamma2))
    assert check_certificate(inst, model, y, zero) != []


def test_distribution_respects_moment_windows():
    inst, model = random_problem(21, 4, 5, support_size=8, kappa=0.25)
    y = np.array([1, 1, 0, 0])
    _, dist = worst_case_expectation(inst, model, y)
    d = model.support
    m_lo, m_hi, s_lo, s_hi = (w[0] for w in moment_windows(model, y))
    for jj in range(inst.n_customers):
        pi = dist.pi[jj]
        assert pi.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(pi >= -1e-9)
        assert m_lo[jj] - 1e-7 <= pi @ d <= m_hi[jj] + 1e-7
        assert s_lo[jj] - 1e-6 <= pi @ d ** 2 <= s_hi[jj] + 1e-6


def test_extreme_rays_frozen_values():
    rays = extreme_rays(np.arange(1.0, 101.0))
    assert rays[0] == (2.0, 0.0, 3.0, 1.0, 0.0)
    assert rays[1] == (9900.0, 0.0, 199.0, 1.0, 0.0)
    assert rays[2] == (-100.0, 101.0, 0.0, 0.0, 1.0)


def test_rays_nonnegative_on_support_and_coincide_for_two_points():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = np.sort(rng.uniform(0, 100, size=rng.integers(2, 12)))
        if len(np.unique(d)) < len(d):
            continue
        for a, d1v, d2v, g1v, g2v in extreme_rays(d):
            vals = a + (d1v - d2v) * d + (g1v - g2v) * d ** 2
            assert np.all(vals >= -1e-9)
    two = extreme_rays([3.0, 8.0])
    assert two[0] == two[1]


def test_ambiguity_feasible_hand_value():
    # support 1..100, mu = 30, sigma^2 = 900, exact windows: ray 3 slack
    # is 101*30 - 100 - 1800 = 1130
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[225.0], revenue=[150.0])
    model = toy_model(inst, bar_mu=[30.0], bar_sigma=[30.0], support=(1.0, 100.0, 100))
    report = ambiguity_feasible(inst, model, [0])
    assert report.feasible and bool(report)


def test_infeasible_mean_outside_support():
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[150.0], bar_sigma=[5.0], support=(1.0, 100.0, 10))
    report = ambiguity_feasible(inst, model, [0])
    assert not report
    assert report.violations          # names (customer, ray, slack)
    with pytest.raises(AmbiguityInfeasibleError):
        worst_case_expectation(inst, model, [0])


def test_infeasible_huge_variance_via_ray3():
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[50.0], bar_sigma=[500.0], support=(1.0, 100.0, 10))
    report = ambiguity_feasible(inst, model, [0])
    assert not report
    assert any(ray == 3 for _, ray, _ in report.violations)


def test_feasibility_agrees_with_direct_lp():
    rng = np.random.default_rng(99)
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    for _ in range(60):
        mu = rng.uniform(-20, 160)
        sigma = rng.uniform(0, 200)
        model = toy_model(inst, bar_mu=[mu], bar_sigma=[sigma],
                          support=(1.0, 100.0, 8))
        report = ambiguity_feasible(inst, model, [0])
        theta = theta_values(inst, model, np.array([0]), 0)
        window = [w[0, 0] for w in moment_windows(model, [0])]
        sol = simplex_solve(_primal_lp(model.support, theta, window))
        assert report.feasible == (sol.status == "optimal")


def test_bulk_values_match_lp_route():
    ys = [np.array(list(np.binary_repr(t, 4)), dtype=int) for t in range(16)]
    # vertex path (pinned moments, K <= 40) against the primal LPs
    inst, model = random_problem(31, 4, 5, support_size=12)
    bulk = worst_case_values(inst, model, ys)
    for y, v in zip(ys, bulk):
        direct, _ = worst_case_expectation(inst, model, y)
        assert v == pytest.approx(direct, rel=1e-8, abs=1e-6)
    # the simplex fallback, reached through windows (kappa > 0) and through a
    # support above the vertex path's limit, against the dual LPs
    for kappa, k in ((0.1, 12), (0.0, 41)):
        inst, model = random_problem(31, 4, 5, support_size=k, kappa=kappa)
        slow = worst_case_values(inst, model, ys)
        for y, v in zip(ys, slow):
            dual, _ = worst_case_dual(inst, model, y)
            assert v == pytest.approx(dual, rel=1e-8, abs=1e-6)


def test_bulk_values_flag_infeasible_plans():
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    # mean feasible only once the facility opens and lifts it into the support
    model = toy_model(inst, bar_mu=[0.6], bar_sigma=[0.6],
                      lambda_mu=[[0.9]], lambda_sigma=[[0.1]],
                      support=(1.0, 10.0, 10))
    vals = worst_case_values(inst, model, [[0], [1]])
    assert not np.isfinite(vals[0])
    assert np.isfinite(vals[1])


def test_bulk_values_flag_infeasible_plans_with_windows():
    # the same model with moment windows takes the simplex fallback, whose
    # chord screen must map the empty set to inf as well
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[0.6], bar_sigma=[0.6],
                      lambda_mu=[[0.9]], lambda_sigma=[[0.1]],
                      support=(1.0, 10.0, 10), eps_mu=[0.05],
                      eps_lo=[0.9], eps_hi=[1.1])
    vals = worst_case_values(inst, model, [[0], [1]])
    assert not np.isfinite(vals[0])
    assert np.isfinite(vals[1])
    assert not ambiguity_feasible(inst, model, [0])


def test_empty_set_missed_by_rays_is_reported_by_every_route():
    # The three rays pass, but the moment LP of customer 8 is infeasible:
    # the chord through two interior support points is violated.
    inst, model = random_problem(0, 6, 10, support_size=12, lambda_row_sum=0.99)
    y = np.array([1, 0, 1, 1, 1, 1])
    assert ambiguity_feasible(inst, model, y)
    assert np.array_equal(worst_case_values(inst, model, [y]), [np.inf])
    # a tiny robustness level keeps the set empty but sends the batch to the
    # simplex fallback, which must map the infeasible moment LP to inf
    wide = apply_robustness_level(model, 1e-9)
    assert ambiguity_feasible(inst, wide, y)
    assert np.array_equal(worst_case_values(inst, wide, [y]), [np.inf])
    for route in (worst_case_expectation, worst_case_dual):
        with pytest.raises(AmbiguityInfeasibleError, match="moment LP"):
            route(inst, model, y)


def test_bulk_values_match_pinned_file():
    # Exact values over every plan, written for two configs: one takes the
    # simplex fallback (kappa > 0), the other the vertex path, with four
    # empty ambiguity sets among its plans, [1, 0, 1, 1, 1, 1] included.
    pinned = json.loads((Path(__file__).parent / "data" / "oracle_values.json").read_text())
    for case in pinned:
        inst, model = generate_instance(ExperimentConfig(**case["config"]))
        ys = list(itertools.product((0, 1), repeat=inst.n_facilities))
        want = [math.inf if v == "inf" else float.fromhex(v) for v in case["values"]]
        assert worst_case_values(inst, model, ys).tolist() == want
    assert pinned[1]["values"][0b101111] == "inf"
