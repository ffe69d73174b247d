"""Reference values computed from the problem definition, apart from ddrloc.

Nothing here calls ddrloc's solvers, recourse closed form or value oracle.
The recourse cost fills open facilities cheapest-first up to capacity,
penalises the rest and subtracts revenue; the worst-case expectation solves
each customer's moment LP over the support probabilities with
``scipy.optimize.linprog``.  The checks compare the program's outputs with
these values.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-6      # HiGHS solves the moment LPs on both sides
CSV_TOL = 1e-8      # compare.csv prints 10 significant digits


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def recourse(instance, y, jj: int, demand: np.ndarray):
    """Cost and unmet demand at customer column ``jj`` for each demand value."""
    demand = np.asarray(demand, dtype=float)
    remaining = demand.copy()
    cost = np.zeros_like(demand)
    c = instance.cost[:, jj]
    for i in np.argsort(c, kind="stable"):
        ship = np.minimum(remaining, instance.capacity[i] * y[i])
        cost += c[i] * ship
        remaining -= ship
    cost += instance.penalty[jj] * remaining - instance.revenue[jj] * demand
    return cost, remaining


def moments(model, y):
    """Plan-dependent means and variances from the demand model's definition."""
    mu = model.bar_mu * (1.0 + model.lambda_mu @ y)
    var = model.bar_sigma ** 2 * (1.0 - model.lambda_sigma @ y)
    return mu, var


def moment_lp(support, theta, m_lo, m_hi, s_lo, s_hi) -> float:
    """max E[theta] over distributions on ``support`` with moments in the windows."""
    d = np.asarray(support, dtype=float)
    a_eq, b_eq = [np.ones_like(d)], [1.0]
    a_ub, b_ub = [], []
    for row, lo, hi in ((d, m_lo, m_hi), (d * d, s_lo, s_hi)):
        if lo == hi:
            a_eq.append(row)
            b_eq.append(lo)
        else:
            a_ub += [row, -row]
            b_ub += [hi, -lo]
    res = linprog(-np.asarray(theta, dtype=float),
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return math.inf             # empty ambiguity set
    if not res.success:
        raise RuntimeError(f"reference moment LP failed: {res.message}")
    return -float(res.fun)


def worst_case_objective(instance, model, y) -> float:
    """Opening cost plus the worst-case expected recourse; inf if the set is empty."""
    y = np.asarray(y, dtype=float)
    mu, var = moments(model, y)
    s = var + mu ** 2
    total = float(instance.open_cost @ y)
    for jj in range(instance.n_customers):
        theta, _ = recourse(instance, y, jj, model.support)
        eps = float(model.eps_mu[jj])
        total += moment_lp(model.support, theta, mu[jj] - eps, mu[jj] + eps,
                           s[jj] * float(model.eps_sigma_lo[jj]),
                           s[jj] * float(model.eps_sigma_hi[jj]))
        if math.isinf(total):
            break
    return total


def all_plans(n: int):
    return [np.array(y) for y in itertools.product((0, 1), repeat=n)]


# ---------------------------------------------------------------------------
# Checks, one per workload; each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_exact(instance, model, record) -> list[str]:
    """Objective is the minimum over all plans, the plan attains it, gap closed."""
    status, objective, bound, y = record
    if status != "optimal" or y is None:
        return [f"status {status}"]
    best = min(worst_case_objective(instance, model, p)
               for p in all_plans(instance.n_facilities))
    bad = []
    if not close(objective, best):
        bad.append(f"objective {objective!r} != reference minimum {best!r}")
    attained = worst_case_objective(instance, model, y)
    if not close(attained, best):
        bad.append(f"plan {y} has reference value {attained!r}, minimum {best!r}")
    if objective - bound > REL_TOL * max(1.0, abs(objective)):
        bad.append(f"gap not closed: bound {bound!r}, objective {objective!r}")
    return bad


def check_oracle(instance, model, record, sample) -> list[str]:
    """The plan's reference value is the objective; no sampled plan beats it."""
    y, objective = record
    bad = []
    attained = worst_case_objective(instance, model, y)
    if not close(attained, objective):
        bad.append(f"plan {y} has reference value {attained!r}, "
                   f"oracle reported {objective!r}")
    for other in sample:
        v = worst_case_objective(instance, model, other)
        if v < objective and not close(v, objective):
            bad.append(f"sampled plan {tuple(other)} is better: {v!r} < {objective!r}")
    return bad


def check_compare(instance, model, config, csv_text: str, plans: dict) -> list[str]:
    """compare.csv means match a recomputation; DDDR is worst-case best."""
    stats = {(r["method"], r["statistic"]): float(r["value"])
             for r in csv.DictReader(io.StringIO(csv_text))}
    bad = []
    worst = {}
    for method, open_ids in plans.items():
        y = np.array([1.0 if fid in open_ids else 0.0
                      for fid in instance.facility_ids])
        mu, var = moments(model, y)
        rng = np.random.default_rng(config.seed)
        demands = np.maximum(
            rng.normal(mu, np.sqrt(var), size=(config.n_test, len(mu))), 0.0)
        objective = np.full(config.n_test, float(instance.open_cost @ y))
        unmet = np.zeros(config.n_test)
        for jj in range(instance.n_customers):
            cost, short = recourse(instance, y, jj, demands[:, jj])
            objective += cost
            unmet += short
        for key, ref in (("mean_objective", objective.mean()),
                         ("mean_unmet", unmet.mean())):
            got = stats.get((method, key))
            if got is None or not close(got, float(ref), CSV_TOL):
                bad.append(f"{method} {key}: csv {got!r}, reference {ref!r}")
        worst[method] = worst_case_objective(instance, model, y)
    dddr = worst.get("DDDR", math.inf)
    for method, v in worst.items():
        if dddr > v and not close(dddr, v):
            bad.append(f"DDDR worst case {dddr!r} above {method} {v!r}")
    return bad
