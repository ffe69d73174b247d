import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from ddrloc.instance import (DemandModel, Instance, _as_y, arithmetic_support,
                             chords, moment_windows)
from ddrloc.milp import DualBounds, LinearExpr, MilpModel, Variable


def toy_instance(cost, capacity, penalty, revenue, open_cost=None):
    """Instance with an explicit cost matrix and dummy coordinates."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    n_i, n_j = cost.shape
    return Instance(
        facility_ids=tuple(range(1, n_i + 1)),
        facility_coords=np.zeros((n_i, 2)),
        open_cost=np.zeros(n_i) if open_cost is None else np.asarray(open_cost, float),
        capacity=np.asarray(capacity, dtype=float),
        customer_ids=tuple(range(1, n_j + 1)),
        customer_coords=np.zeros((n_j, 2)),
        penalty=np.asarray(penalty, dtype=float),
        revenue=np.asarray(revenue, dtype=float),
        cost=cost,
    )


def toy_model(instance, bar_mu, bar_sigma, lambda_mu=None, lambda_sigma=None,
              support=(1.0, 100.0, 10), eps_mu=None, eps_lo=None, eps_hi=None):
    n_j = instance.n_customers
    n_i = instance.n_facilities
    z = np.zeros((n_j, n_i))
    return DemandModel(
        bar_mu=np.asarray(bar_mu, dtype=float),
        bar_sigma=np.asarray(bar_sigma, dtype=float),
        lambda_mu=z.copy() if lambda_mu is None else np.asarray(lambda_mu, float),
        lambda_sigma=z.copy() if lambda_sigma is None else np.asarray(lambda_sigma, float),
        support=arithmetic_support(*support),
        eps_mu=np.zeros(n_j) if eps_mu is None else np.asarray(eps_mu, float),
        eps_sigma_lo=np.ones(n_j) if eps_lo is None else np.asarray(eps_lo, float),
        eps_sigma_hi=np.ones(n_j) if eps_hi is None else np.asarray(eps_hi, float),
    )


def random_problem(seed, n_facilities, n_customers, support_size=10, kappa=0.0,
                   **overrides):
    from ddrloc.experiments import ExperimentConfig, generate_instance
    cfg = ExperimentConfig(n_facilities=n_facilities, n_customers=n_customers,
                           seed=seed, support_size=support_size, kappa=kappa,
                           **overrides)
    return generate_instance(cfg)


def all_plans(n, budget=None):
    """Every plan over ``n`` facilities under the budget, as one matrix: the
    single chunk that 2^n integer codes make."""
    from ddrloc.instance import plans_under_budget
    return next(plans_under_budget(n, budget, 2 ** n))


@pytest.fixture
def small_problem():
    return random_problem(11, 3, 5, support_size=8)


def _rebuilt(m, variables, constraints):
    """Sealed model with ``m``'s name, objective and meta over the given
    variables and rows."""
    out = MilpModel(m.name)
    out.variables = list(variables)
    out._index = {v.name: i for i, v in enumerate(out.variables)}
    out.constraints = list(constraints)
    out.objective = LinearExpr(m.objective.coeffs, m.objective.constant)
    out.meta = dict(m.meta)
    return out.seal()


def without_cuts(m):
    """Copy of a built robust MILP without its chord cuts: no ``cut_*`` rows,
    and no plan-product ``Y_*`` columns or envelope rows, which only the cuts
    read.  Without the cuts a plan whose ambiguity set is empty stays
    feasible, so the copy can reach one."""
    return _rebuilt(m, [v for v in m.variables if not v.name.startswith("Y_")],
                    [c for c in m.constraints if not c.name.startswith(("cut_", "Y_"))])


def relaxation(m, overrides):
    """Sealed copy of ``m`` with every variable continuous and the bounds of
    the variables named in ``overrides`` changed."""
    variables = []
    for v in m.variables:
        lo, hi = overrides.get(v.name, (v.lower, v.upper))
        variables.append(Variable(v.name, "continuous", float(lo), float(hi)))
    return _rebuilt(m, variables, m.constraints)


def uniform_bounds(n_customers, value):
    """Dual bounds with every multiplier of every customer capped at ``value``."""
    return DualBounds(*(np.full(n_customers, float(value)) for _ in range(4)))


def extreme_rays(support):
    """The recession directions (alpha, delta1, delta2, gamma1, gamma2) of the
    inner dual.

    One per chord ``(a, b, c)`` of :func:`~ddrloc.instance.chords`, in its
    order: ``(a, b+, b-, c+, c-)``, the quadratic split into the dual rows.
    """
    return [(a, max(0.0, b), max(0.0, -b), max(0.0, c), max(0.0, -c))
            for a, b, c in chords(support)]


def dual_value(model, y, cert):
    """Dual objective at a given certificate; an upper bound when feasible."""
    m_lo, m_hi, s_lo, s_hi = (w[0] for w in moment_windows(model, y))
    return float(np.sum(cert.alpha + cert.delta1 * m_hi - cert.delta2 * m_lo
                        + cert.gamma1 * s_hi - cert.gamma2 * s_lo))


@dataclass(frozen=True)
class Allocation:
    """Shipments x[i, j], unmet demand s[j] and the resulting cost."""

    x: np.ndarray
    s: np.ndarray
    value: float


def recover_allocation(instance, y, d):
    """Optimal primal allocation: per customer, fill facilities by ascending cost.

    Every transport cost is below the penalty, so each customer ships as much
    as open capacity allows (cheapest facilities first, ties to smaller id)
    and only the remainder is penalized.
    """
    d = np.asarray(d, dtype=float)
    yv = _as_y(y)
    n_i, n_j = instance.n_facilities, instance.n_customers
    x = np.zeros((n_i, n_j))
    s = np.zeros(n_j)
    ids = np.asarray(instance.facility_ids)
    for jj in range(n_j):
        remaining = d[jj]
        for i in np.lexsort((ids, instance.cost[:, jj])):
            if remaining <= 0:
                break
            ship = min(remaining, instance.capacity[i] * yv[i])
            x[i, jj] = ship
            remaining -= ship
        s[jj] = max(remaining, 0.0)
    value = float((instance.cost * x).sum() + instance.penalty @ s - instance.revenue @ d)
    return Allocation(x=x, s=s, value=value)


def primal_lp(support, theta, window):
    """Moment LP of one customer over the support probabilities, as a model.

    ``simplex_solve`` solves it with HiGHS, the one engine apart from the
    value oracle.  The oracle builds the same rows, with the same
    ``float ** 2`` coefficients, as one lockstep-simplex tableau per block
    (``worstcase._moment_lps``), and ``worst_case_dual`` reads its
    certificate off that same solve, so only this route checks them both.
    """
    m_lo, m_hi, s_lo, s_hi = window
    d = [float(dk) for dk in support]
    m = MilpModel("moment_primal")
    pis = [m.add_variable(f"pi_{k}") for k in range(len(d))]
    m.add_constraint("mass", {p: 1.0 for p in pis}, "=", 1.0)
    m.add_constraint("mean_hi", dict(zip(pis, d)), "<=", m_hi)
    m.add_constraint("mean_lo", dict(zip(pis, d)), ">=", m_lo)
    m.add_constraint("sec_hi", {p: dk ** 2 for p, dk in zip(pis, d)}, "<=", s_hi)
    m.add_constraint("sec_lo", {p: dk ** 2 for p, dk in zip(pis, d)}, ">=", s_lo)
    m.set_objective(LinearExpr({p: -float(t) for p, t in zip(pis, theta)}))
    return m.seal()


def lp_worst_case(instance, model, y):
    """Worst case of plan ``y``: HiGHS on every customer's :func:`primal_lp`."""
    from ddrloc.solvers import simplex_solve
    from ddrloc.worstcase import support_theta
    windows = [w[0] for w in moment_windows(model, y)]
    total = 0.0
    for jj, theta in enumerate(support_theta(instance, model, y)):
        sol = simplex_solve(primal_lp(model.support, theta, [w[jj] for w in windows]))
        assert sol.status == "optimal", (jj, sol.status)
        total -= sol.objective
    return total


def moment_lps(model, windows, theta=0.0):
    """The moment LP of each window box, as the value oracle builds it, solved
    straight through the lockstep simplex: ``(status, pi)``.

    ``windows`` is ``(m_lo, m_hi, s_lo, s_hi)``, arrays of one shape S;
    ``theta`` (S + (K,), or 0.0 to test feasibility alone) is the cost.
    """
    from ddrloc.worstcase import _MOMENT_SENSES, _simplex_batch
    d = model.support
    sq = [dk ** 2 for dk in d.tolist()]
    m_lo, m_hi, s_lo, s_hi = (np.asarray(w, dtype=float) for w in windows)
    rhs = np.stack([np.ones_like(m_lo), m_hi, m_lo, s_hi, s_lo], axis=-1).reshape(-1, 5)
    cost = np.broadcast_to(0.0 - np.asarray(theta, dtype=float),
                           m_lo.shape + (len(d),)).reshape(len(rhs), len(d))
    status, u, _, _ = _simplex_batch(np.array([np.ones(len(d)), d, d, sq, sq]), rhs,
                                  _MOMENT_SENSES, cost)
    return status.reshape(m_lo.shape), (0.0 + u).reshape(m_lo.shape + (len(d),))


def parse_lp_text(text: str) -> MilpModel:
    """Minimal reader for the LP text emitted by ``milp.export_lp_text``.

    It is the only route by which the tests check that an exported model
    keeps its optimum: scipy ships no LP-format reader, and the HiGHS reader
    (``highspy``) is not a dependency.
    """
    m = MilpModel("imported")
    const = 0.0
    section = None
    pending_rows = []
    term_re = re.compile(r"([+-])\s*([0-9.eE+-]+)\s+([A-Za-z0-9_]+)")
    var_bounds: dict[str, tuple[float, float]] = {}
    binaries: set[str] = set()
    obj_terms: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            if "Objective constant:" in line:
                const = float(line.split(":")[1])
            continue
        low = line.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "minimize":
            body = line.split(":", 1)[1]
            for sgn, num, var in term_re.findall(" " + _norm_terms(body)):
                obj_terms[var] = obj_terms.get(var, 0.0) + float(sgn + num)
        elif section == "subject to":
            name, body = line.split(":", 1)
            mt = re.search(r"(<=|>=|=)\s*([0-9.eE+-]+)\s*$", body)
            sense, rhs = mt.group(1), float(mt.group(2))
            lhs = body[: mt.start()]
            coeffs = {}
            for sgn, num, var in term_re.findall(" " + _norm_terms(lhs)):
                coeffs[var] = coeffs.get(var, 0.0) + float(sgn + num)
            pending_rows.append((name.strip(), coeffs, sense, rhs))
        elif section == "bounds":
            if line.endswith(" free"):
                var_bounds[line.split()[0]] = (-math.inf, math.inf)
            else:
                parts = line.replace("<=", " ").split()
                if len(parts) == 3:
                    lo, var, hi = parts
                    var_bounds[var] = (float(lo) if lo != "-inf" else -math.inf, float(hi))
                elif len(parts) == 2:
                    var_bounds[parts[1]] = (float(parts[0]), math.inf)
        elif section == "binaries":
            binaries.update(line.split())

    seen: dict[str, None] = {}
    for var in obj_terms:
        seen.setdefault(var)
    for _, coeffs, _, _ in pending_rows:
        for var in coeffs:
            seen.setdefault(var)
    for var in list(var_bounds) + sorted(binaries):
        seen.setdefault(var)
    for var in seen:
        if var in binaries:
            m.add_variable(var, kind="binary")
        else:
            lo, hi = var_bounds.get(var, (0.0, math.inf))
            m.add_variable(var, lower=lo, upper=hi)
    for name, coeffs, sense, rhs in pending_rows:
        m.add_constraint(name, coeffs, sense, rhs)
    m.set_objective(LinearExpr(obj_terms, const))
    return m.seal()


def _norm_terms(body: str) -> str:
    """Ensure every term starts with an explicit sign for the regex."""
    body = body.strip()
    if body and body[0] not in "+-":
        body = "+ " + body
    return body
