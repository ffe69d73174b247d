import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (all_plans, dual_value, extreme_rays, moment_lps, primal_lp,
                      random_problem, toy_instance, toy_model)
from ddrloc.experiments import ExperimentConfig, generate_instance
from ddrloc.instance import (apply_robustness_level, arithmetic_support, chords,
                             decision_independent, moment_windows)
from ddrloc.milp import MilpModel
from ddrloc.solvers import (INFEASIBLE, OPTIMAL, _simplex_batch, enumerate_oracle,
                            simplex_solve)
from ddrloc.worstcase import (AmbiguityInfeasibleError, ambiguity_feasible,
                              check_certificate, worst_case_dual,
                              worst_case_expectation, worst_case_values,
                              _jensen_bounds, _mixture_bounds, _moment_lps,
                              support_theta)


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
    # 99 up-chords over the adjacent pairs, the down-chord, four range bounds
    rays = extreme_rays(np.arange(1.0, 101.0))
    assert len(rays) == 104
    assert rays[0] == (2.0, 0.0, 3.0, 1.0, 0.0)
    assert rays[98] == (9900.0, 0.0, 199.0, 1.0, 0.0)
    assert rays[99] == (-100.0, 101.0, 0.0, 0.0, 1.0)


def test_rays_nonnegative_on_support_and_coincide_for_two_points():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = np.sort(rng.uniform(0, 100, size=rng.integers(2, 12)))
        if len(np.unique(d)) < len(d):
            continue
        for a, d1v, d2v, g1v, g2v in extreme_rays(d):
            vals = a + (d1v - d2v) * d + (g1v - g2v) * d ** 2
            assert np.all(vals >= -1e-9)
    # two points have one edge: its up-chord and the down-chord are the same
    # parabola with opposite signs
    two = chords([3.0, 8.0])
    assert two[:2] == [(24.0, -11.0, 1.0), (-24.0, 11.0, -1.0)]
    assert sum(1 for a, b, c in two if c > 0 and b < 0) == 1


def test_ambiguity_feasible_hand_value():
    # support 1..100, mu = 30, sigma^2 = 900, exact windows: the down-chord
    # slack is 101*30 - 100 - 1800 = 1130
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
    down = [r for r, (a, b, c) in enumerate(chords(model.support), start=1)
            if b > 0 and c < 0]
    assert len(down) == 1
    assert any(ray == down[0] for _, ray, _ in report.violations)


def test_feasibility_agrees_with_direct_lp():
    rng = np.random.default_rng(99)
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    for _ in range(60):
        mu = rng.uniform(-20, 160)
        sigma = rng.uniform(0, 200)
        model = toy_model(inst, bar_mu=[mu], bar_sigma=[sigma],
                          support=(1.0, 100.0, 8))
        report = ambiguity_feasible(inst, model, [0])
        theta = support_theta(inst, model, np.array([0]))[0]
        window = [w[0, 0] for w in moment_windows(model, [0])]
        sol = simplex_solve(primal_lp(model.support, theta, window))
        assert report.feasible == (sol.status == "optimal")


def _boxes(mu, sigma, kappa):
    """Screen and moment-LP verdicts, one customer per box on the support 1..100
    (K = 10): mean mu, variance sigma^2, robustness kappa."""
    n = len(mu)
    inst = toy_instance(cost=[np.ones(n)], capacity=[10.0], penalty=np.full(n, 300.0),
                        revenue=np.ones(n))
    model = toy_model(inst, bar_mu=mu, bar_sigma=sigma, support=(1.0, 100.0, 10),
                      eps_mu=kappa * np.abs(mu), eps_lo=1.0 - kappa, eps_hi=1.0 + kappa)
    report = ambiguity_feasible(inst, model, [0])
    empty = {cid for cid, _, _ in report.violations}
    screen = np.array([cid not in empty for cid in inst.customer_ids])
    return screen, moment_lps(model, [w[0] for w in moment_windows(model, [0])])[0] == OPTIMAL


def test_screen_agrees_with_moment_lp_feasibility():
    # The chord screen is exact: it agrees with the moment LP's feasibility
    # on windows with kappa > 0, near-zero variance and boxes outside the
    # support's range, one customer per box.
    rng = np.random.default_rng(10)
    n = 1500
    pts = np.repeat(arithmetic_support(1.0, 100.0, 10), 12)
    cases = {
        "kappa": (rng.uniform(-20, 160, n), rng.uniform(0, 250, n), rng.uniform(0, 0.5, n)),
        "outside": (np.concatenate([rng.uniform(100, 200, n // 2), rng.uniform(-50, 1, n // 2)]),
                    rng.uniform(0, 50, n), rng.uniform(0, 0.6, n)),
        # at and near support points.  A set empty by less than the simplex's
        # feasibility tolerance reads feasible to the LP (at d_0, variances
        # of about 1e-8 to 1e-6), so those variances are left out.
        "near-zero variance": (np.concatenate([pts, pts + 1e-3, pts - 0.5]),
                               np.tile([0.0, 1e-6, 1e-2, 1.0], 90),
                               np.tile([0.0, 0.0, 0.0, 1e-9, 1e-3, 0.05], 60)),
    }
    for name, (mu, sigma, kappa) in cases.items():
        screen, lp = _boxes(mu, sigma, kappa)
        assert np.array_equal(screen, lp), name
        assert 0 < lp.sum() < len(lp), name
    # mean and second-moment windows beyond the support's range that every
    # edge and the down-chord admit: only the range bounds see them
    screen, lp = _boxes(np.array([150.0]), np.array([5.0]), np.array([0.3]))
    assert not screen[0] and not lp[0]
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[300.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[150.0], bar_sigma=[5.0], eps_mu=[45.0],
                      eps_lo=[0.7], eps_hi=[1.3])
    rays = [ray for _, ray, _ in ambiguity_feasible(inst, model, [0]).violations]
    assert [chords(model.support)[r - 1] for r in rays] == [(100.0, -1.0, 0.0),
                                                            (1e4, 0.0, -1.0)]
    # decision-dependent windows: every plan of strongly coupled instances
    for kappa in (0.0, 0.1, 0.3):
        inst, model = random_problem(40, 5, 8, support_size=12, kappa=kappa,
                                     lambda_row_sum=0.99)
        ys = list(itertools.product((0, 1), repeat=5))
        lp = (moment_lps(model, moment_windows(model, ys))[0] == OPTIMAL).all(axis=1)
        screen = [bool(ambiguity_feasible(inst, model, y)) for y in ys]
        assert np.array_equal(screen, lp)
        assert np.array_equal(np.isfinite(worst_case_values(inst, model, ys)), lp)


def test_bulk_values_match_lp_route():
    ys = [np.array(list(np.binary_repr(t, 4)), dtype=int) for t in range(16)]
    # pinned moments and moment windows (kappa > 0) on small and larger
    # supports, against the dual LPs
    for kappa, k in ((0.0, 12), (0.1, 12), (0.0, 41)):
        inst, model = random_problem(31, 4, 5, support_size=k, kappa=kappa)
        bulk = worst_case_values(inst, model, ys)
        for y, v in zip(ys, bulk):
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
    # the same model with moment windows: the chord screen must map the
    # empty set to inf as well
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
    # Customer 8's moment set is empty at this plan although the chords
    # through the two lowest, the two highest and the extreme support points
    # hold: the screen names the edge through the interior points d_5, d_6.
    inst, model = random_problem(0, 6, 10, support_size=12, lambda_row_sum=0.99)
    y = np.array([1, 0, 1, 1, 1, 1])
    d = model.support
    edge = (d[5] * d[6], -(d[5] + d[6]), 1.0)
    # a tiny robustness level keeps the set empty but opens the moment windows
    for dem in (model, apply_robustness_level(model, 1e-9)):
        report = ambiguity_feasible(inst, dem, y)
        assert not report
        assert [(cid, ray) for cid, ray, _ in report.violations] == [(8, 6)]
        assert chords(d)[5] == edge
        assert np.array_equal(worst_case_values(inst, dem, [y]), [np.inf])
        for route in (worst_case_expectation, worst_case_dual):
            with pytest.raises(AmbiguityInfeasibleError, match="customer 8, ray 6"):
                route(inst, dem, y)


def _per_block_reference(inst, model, ys, windows):
    """A one-block _simplex_batch call on the rows of primal_lp per (plan,
    customer): values and pi."""
    values = np.zeros(len(ys))
    pi = np.zeros((len(ys), inst.n_customers, model.support_size))
    for n, y in enumerate(ys):
        for jj, theta in enumerate(support_theta(inst, model, y)):
            lp = primal_lp(model.support, theta, [w[n, jj] for w in windows])
            rows = np.array([[con.coeffs.get(v.name, 0.0) for v in lp.variables]
                             for con in lp.constraints])
            cost = np.zeros((1, lp.n_variables))
            for v, a in lp.objective.coeffs.items():
                cost[0, lp.var_index(v)] += a
            status, u, obj = _simplex_batch(
                rows, np.array([[con.rhs for con in lp.constraints]]),
                [con.sense for con in lp.constraints], cost)
            if status[0] == OPTIMAL:
                values[n] -= obj[0]
                pi[n, jj] = 0.0 + u[0]
            else:
                assert status[0] == INFEASIBLE
                values[n] = math.inf
                pi[n, jj] = np.nan
    return values, pi


def _lockstep_cases():
    for kappa, k in itertools.product((0.0, 0.1, 0.25), (5, 12, 41, 100)):
        for recipe, row_sum in (("distance", 0.5), ("distance", 0.99), ("rho-means", 0.5)):
            yield random_problem(7 + k, 3, 3, support_size=k, kappa=kappa,
                                 lambda_recipe=recipe, lambda_row_sum=row_sum)
    # an empty set that only an interior edge detects (customer 8's LP is
    # infeasible)
    inst, model = random_problem(0, 6, 10, support_size=12, lambda_row_sum=0.99)
    yield inst, apply_robustness_level(model, 1e-9)
    # mean windows reaching below zero flip rows of some blocks' tableaux
    inst = toy_instance(cost=[[1.0, 2.0]], capacity=[10.0], penalty=[300.0, 250.0],
                        revenue=[1.0, 3.0])
    yield inst, toy_model(inst, bar_mu=[4.0, 30.0], bar_sigma=[2.0, 20.0],
                          lambda_mu=[[0.5], [-0.2]], support=(0.0, 100.0, 8),
                          eps_mu=[6.0, 5.0], eps_lo=[0.5, 0.9], eps_hi=[1.5, 1.1])


def test_lockstep_moment_lps_match_lone_blocks(monkeypatch):
    # The batched route agrees bit for bit with one lone block per LP: value
    # and pi.  An infeasible block gets the lone block's status from
    # _simplex_batch, and _moment_lps, which runs behind the exact chord
    # screen, raises on it.
    flipped = infeasible = 0
    for inst, model in _lockstep_cases():
        ys = np.array(list(itertools.product((0.0, 1.0), repeat=inst.n_facilities)))
        if inst.n_facilities == 6:
            ys = ys[[0b101111, 0b111111]]
        windows = moment_windows(model, ys)
        want, want_pi = _per_block_reference(inst, model, ys, windows)
        flipped += int(np.sum(windows[0] < 0))
        empty = np.isnan(want_pi[:, :, 0])
        for n in np.flatnonzero(empty.any(axis=1)):
            theta = support_theta(inst, model, ys[n])
            status, u = moment_lps(model, [w[n] for w in windows], theta)
            assert np.array_equal(status == INFEASIBLE, empty[n])
            assert u[~empty[n]].tobytes() == want_pi[n][~empty[n]].tobytes()
            with pytest.raises(RuntimeError, match="chord screen passed"):
                _moment_lps(inst, model, ys[n:n + 1], tuple(w[n:n + 1] for w in windows))
            infeasible += int(empty[n].sum())
        keep = ~empty.any(axis=1)
        ys, windows = ys[keep], tuple(w[keep] for w in windows)
        values, pi = _moment_lps(inst, model, ys, windows, with_pi=True)
        assert values.tobytes() == want[keep].tobytes()
        assert pi.tobytes() == want_pi[keep].tobytes()
        # Batch independence of the LP stage: the same windows give the same
        # bits alone, in the batch, and with plans straddling chunk boundaries.
        for n in range(len(ys)):
            one = tuple(w[n:n + 1] for w in windows)
            alone = _moment_lps(inst, model, ys[n:n + 1], one)[0]
            assert alone.tobytes() == values[n:n + 1].tobytes()
        with monkeypatch.context() as m:
            m.setattr("ddrloc.worstcase.LP_CHUNK_POINTS",
                      (2 * inst.n_customers - 1) * model.support_size)
            assert _moment_lps(inst, model, ys, windows)[0].tobytes() == values.tobytes()
    assert flipped and infeasible


def _pinned_values(name):
    """``(got, want)`` per case of a pin file: ``worst_case_values`` over every plan."""
    for case in json.loads((Path(__file__).parent / "data" / name).read_text()):
        inst, model = generate_instance(ExperimentConfig(**case["config"]))
        ys = list(itertools.product((0, 1), repeat=inst.n_facilities))
        want = [math.inf if v == "inf" else float.fromhex(v) for v in case["values"]]
        yield worst_case_values(inst, model, ys), np.array(want)


def test_bulk_values_match_pinned_file():
    # Exact values over every plan.  oracle_values.json holds four configs:
    # moment windows (kappa > 0) at K = 12; the row-sum-0.99 repro, with four
    # empty ambiguity sets among its plans, [1, 0, 1, 1, 1, 1] included;
    # oracle-windows; and pinned moments on K = 100.  The repro's bits there
    # come from an independent three-point vertex enumeration, so it is a
    # cross-check at 1e-12 relative with the same empty sets; the oracle's
    # own bits for it are pinned in oracle_values_repro.json.
    cases = list(_pinned_values("oracle_values.json"))
    for n, (got, want) in enumerate(cases):
        if n == 1:
            assert np.array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        else:
            assert got.tobytes() == want.tobytes()
    assert np.isinf(cases[1][1][0b101111])
    for got, want in _pinned_values("oracle_values_repro.json"):
        assert got.tobytes() == want.tobytes()


def _batch_cases():
    """Instances of both pin files and a criterion 7 instance, each once."""
    configs = [ExperimentConfig(n_facilities=10, n_customers=20, support_size=20,
                                lambda_row_sum=0.99, seed=5)]
    for name in ("oracle_values.json", "oracle_values_repro.json"):
        for case in json.loads((Path(__file__).parent / "data" / name).read_text()):
            cfg = ExperimentConfig(**case["config"])
            if cfg not in configs:
                configs.append(cfg)
    return [generate_instance(cfg) for cfg in configs]


@pytest.mark.parametrize("case", range(5))
def test_plan_prices_the_same_alone_and_in_any_batch(case, monkeypatch):
    # A plan's windows, screen and worst-case value have the same bits alone
    # as in the full batch, and the oracle's chunking does not move them.
    inst, model = _batch_cases()[case]
    ys = all_plans(inst.n_facilities)
    windows = np.stack(moment_windows(model, ys), axis=-1)
    values = worst_case_values(inst, model, ys)
    for y, row, value in zip(ys, windows, values):
        assert np.stack(moment_windows(model, y), axis=-1)[0].tobytes() == row.tobytes()
        assert worst_case_values(inst, model, y).tobytes() == value.tobytes()
        assert bool(ambiguity_feasible(inst, model, y)) == math.isfinite(value)
        if math.isfinite(value):
            assert worst_case_expectation(inst, model, y)[0].hex() == value.hex()
    monkeypatch.setattr("ddrloc.worstcase.PLAN_CHUNK", 3)
    assert worst_case_values(inst, model, ys).tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# The bounds of the bound-ordered enumeration
# ---------------------------------------------------------------------------

# The bounds use other arithmetic than the value oracle, so where one is tight
# it may come out above the oracle by a rounding error (about 1e-16 relative
# measured), far inside enumerate_oracle's BOUND_SLACK of 1e-9.
BOUND_ROUNDING = 1e-12


def _bound_cases():
    """``(id, instance, model, budget)`` over the regimes the bounds must hold in."""
    pinned = []
    for name in ("oracle_values.json", "oracle_values_repro.json"):
        for case in json.loads((Path(__file__).parent / "data" / name).read_text()):
            if case["config"] not in pinned:
                pinned.append(case["config"])
    for n, config in enumerate(pinned):
        yield f"pinned{n}", *generate_instance(ExperimentConfig(**config)), None
    # the row-sum-0.99 repro at kappa 1e-9: windows at the edge of emptiness
    inst, model = generate_instance(ExperimentConfig(**pinned[1]))
    yield "repro-kappa1e-9", inst, apply_robustness_level(model, 1e-9), None
    for seed in range(10):                      # criterion 7's instances
        yield f"crit7-{seed}", *generate_instance(ExperimentConfig(
            n_facilities=10, n_customers=20, support_size=20, seed=seed,
            lambda_row_sum=0.99)), None
    for kappa, row_sum, k in itertools.product((0.0, 0.1), (0.5, 0.99), (12, 20, 100)):
        inst, model = random_problem(k, 6, 8, support_size=k, kappa=kappa,
                                     lambda_row_sum=row_sum)
        yield f"k{k}-kappa{kappa}-rs{row_sum}", inst, model, None
        yield f"k{k}-kappa{kappa}-rs{row_sum}-dr", inst, decision_independent(model), None
    inst, model = random_problem(4, 8, 8, support_size=20, kappa=0.1, lambda_row_sum=0.99)
    yield "budget3", inst, model, 3
    inst, model = random_problem(5, 6, 8, support_size=12, lambda_recipe="rho-means", rho=2)
    yield "rho-means", inst, model, None


_BOUND_CASES = {case[0]: case[1:] for case in _bound_cases()}


@pytest.mark.parametrize("case", list(_BOUND_CASES))
def test_bounds_hold_and_enumeration_matches_pricing_every_plan(case):
    # On every plan: the interval test gives the chord screen's verdict, and
    # Jensen <= mixture <= worst case up to BOUND_ROUNDING.  Bound-ordered
    # enumeration returns the plan and the bits of pricing every plan.
    inst, model, budget = _BOUND_CASES[case]
    ys = all_plans(inst.n_facilities, budget)
    wc = worst_case_values(inst, model, ys)
    totals = np.array([float(inst.open_cost @ y) + v for y, v in zip(ys, wc)])
    kept, jensen = _jensen_bounds(inst, model, ys)
    assert np.array_equal(kept, np.isfinite(wc))
    mixture = _mixture_bounds(inst, model, ys[kept])
    tol = BOUND_ROUNDING * np.maximum(1.0, np.abs(totals[kept]))
    assert np.all(jensen <= mixture + tol)
    assert np.all(mixture <= totals[kept] + tol)
    y, obj = enumerate_oracle(inst, model, budget)
    best = int(np.argmin(totals))
    assert y.tolist() == ys[best].tolist()
    assert float(obj).hex() == float(totals[best]).hex()
